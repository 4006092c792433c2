"""Finite-dimensional complex Banach-lattice arithmetic.

Vectors carry a norm context (little-ell-p, quadrature L^p, or grid sup) and
support the order operations (real part, modulus) plus the distance-to-cone
functional used throughout the positivity analysis.
"""

from __future__ import annotations

import numbers
from typing import ClassVar, Union

import numpy as np

from .record import Record


class LatticeError(ValueError):
    pass


def number(value, what: str, error: type = LatticeError):
    """value, when it is a real number: a JSON string or boolean (which
    Python counts as an int) is rejected with `error`, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} {value!r} is not a number")
    return value


def _numbers(values, what: str) -> tuple:
    """A model file's list of real numbers, as a tuple (`number`)."""
    return tuple(number(v, what) for v in values)


def _same(value):
    """A descriptor value written as it is held."""
    return value


class Described(Record):
    """A record with a JSON descriptor: its `tag` key, which names its class
    by that class attribute ("kind", or a model's "variant"), then one key
    per field. Its `codec` maps each key, in field order, to a (write,
    read) pair: to_json writes write(field), and from_json builds the
    record from read(data[key]), key by key in that order."""

    tag: ClassVar[str] = "kind"
    codec: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._writers = tuple((key, write) for key, (write, _) in cls.codec.items())

    def to_json(self) -> dict:
        data = {self.tag: getattr(self, self.tag)}
        for key, write in self._writers:
            data[key] = write(getattr(self, key))
        return data

    @classmethod
    def from_json(cls, data: dict):
        return cls(*[read(data[key]) for key, (_, read) in cls.codec.items()])


class _SequenceNorm(Described):
    """A little-ell-p norm: no nodes, and a descriptor that is its kind alone."""

    node_count: ClassVar[None] = None


class Ell1(_SequenceNorm):
    kind: ClassVar[str] = "ell1"

    def of_moduli(self, a: np.ndarray):
        return np.add.reduce(a, axis=0)


class Ell2(_SequenceNorm):
    kind: ClassVar[str] = "ell2"

    def of_moduli(self, a: np.ndarray):
        """sqrt(sum a^2), bit for bit, or where that sum overflows from finite
        moduli, the scaled form max a ||a / max a||_2."""
        total = np.add.reduce(a * a, axis=0)
        if not np.maximum.reduce(total, axis=None) == np.inf:
            return np.sqrt(total)
        top = np.maximum.reduce(a, axis=0)
        with np.errstate(invalid="ignore"):
            scaled = top * np.sqrt(np.add.reduce(np.square(a / top), axis=0))
        return np.where((total == np.inf) & (top < np.inf), scaled, np.sqrt(total))


class EllInf(_SequenceNorm):
    kind: ClassVar[str] = "ellinf"

    def of_moduli(self, a: np.ndarray):
        return np.maximum.reduce(a, axis=0, initial=0.0)


class LpQuadrature(Described):
    """L^p norm on an interval, discretized by a quadrature rule."""

    p: float
    nodes: tuple
    weights: tuple
    kind: ClassVar[str] = "lp_quadrature"
    codec = {"p": (_same, lambda v: number(v, "quadrature exponent p")),
             "nodes": (list, lambda v: _numbers(v, "quadrature node")),
             "weights": (list, lambda v: _numbers(v, "quadrature weight"))}

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p >= 1):
            raise LatticeError(f"quadrature exponent p={self.p} must be a finite number >= 1")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise LatticeError("quadrature nodes and weights must have equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
            raise LatticeError("quadrature nodes must be finite and strictly increasing")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise LatticeError("quadrature weights must be strictly positive and finite")
        weights.setflags(write=False)  # not fields: equality, hash, JSON see the tuples
        object.__setattr__(self, "weight_array", weights)
        object.__setattr__(self, "node_count", len(nodes))

    def of_moduli(self, a: np.ndarray):
        # the root is an array power for a vector too: numpy's scalar power
        # rounds differently
        w = self.weight_array.reshape((-1,) + (1,) * (a.ndim - 1))
        return np.asarray(np.add.reduce(w * a**self.p, axis=0)) ** (1.0 / self.p)

    def domain(self) -> tuple:
        """The hull of the quadrature cells."""
        w = self.weight_array
        return float(self.nodes[0]) - float(w[0]) / 2, float(self.nodes[-1]) + float(w[-1]) / 2


class GridSup(Described):
    """Sup norm sampled on a fixed grid; all statements are grid-relative."""

    nodes: tuple
    kind: ClassVar[str] = "grid_sup"
    codec = {"nodes": (list, lambda v: _numbers(v, "grid node"))}

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
            raise LatticeError("grid nodes must be finite and strictly increasing")
        weights = trapezoid_weights(nodes)
        weights.setflags(write=False)  # not fields: equality, hash, JSON see the tuples
        object.__setattr__(self, "weight_array", weights)
        object.__setattr__(self, "node_count", len(nodes))

    def of_moduli(self, a: np.ndarray):
        return np.maximum.reduce(a, axis=0, initial=0.0)

    def domain(self) -> tuple:
        """The grid's end points."""
        return float(self.nodes[0]), float(self.nodes[-1])


# Each norm kind gives its `kind`, its `node_count` (None for ell-p), its
# descriptor's `codec` (empty for ell-p), and of_moduli(a): the norm of a
# vector, or of each column of a matrix, from the moduli a of its entries,
# reduced along axis 0 by a ufunc's own reduce (the ndarray methods go
# through numpy's Python wrappers). A grid kind also gives the interval it
# covers, domain().
NormKind = Union[Ell1, Ell2, EllInf, LpQuadrature, GridSup]
NORM_KINDS = {cls.kind: cls for cls in (Ell1, Ell2, EllInf, LpQuadrature, GridSup)}


class LatticeVector(Record):
    entries: np.ndarray
    norm: NormKind = Ell2()

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 1:
            raise LatticeError("lattice vectors are one-dimensional")
        expected = self.norm.node_count
        if expected is not None and len(entries) != expected:
            raise LatticeError(
                f"vector length {len(entries)} does not match the {expected} nodes of its norm"
            )

    def __len__(self):
        return len(self.entries)


def norm_value(x: LatticeVector) -> float:
    return float(x.norm.of_moduli(np.abs(x.entries)))


def cone_residual(M: np.ndarray) -> np.ndarray:
    """Entrywise distance to the positive reals, hypot((re M)^-, im M), in one
    array; for a real M, max(-M, 0), which is the same bit for bit, as
    hypot(r, 0) = |r|."""
    R = -M.real
    np.maximum(R, 0.0, out=R)
    if M.dtype.kind != "c":
        return R
    return np.hypot(R, M.imag, out=R)


def cone_distances(M: np.ndarray, norm: NormKind) -> np.ndarray:
    """Distance to the positive cone of each column of M (of M itself when it
    is a vector): the norm of its entrywise cone residual."""
    return norm.of_moduli(cone_residual(M))


def cone_distance(x: LatticeVector) -> float:
    """Distance of x to the positive cone: the norm of -(re x)^- + i im x."""
    return float(cone_distances(x.entries, x.norm))


def midpoint_rule(lo: float, hi: float, n: int):
    """Composite midpoint nodes/weights on (lo, hi); never places a node at 0
    when n is even and the interval is symmetric."""
    h = (hi - lo) / n
    nodes = lo + h * (np.arange(n) + 0.5)
    weights = np.full(n, h)
    return nodes, weights


def trapezoid_weights(nodes) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w
