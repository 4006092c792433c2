"""Concrete operator models with exact power formulas.

Four representations: dense complex matrices, rank-k functional operators
(finite-rank maps sum_i f_i <phi_i, .> with a diagonal duality matrix),
diagonal multiplication operators, and weighted shifts.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .lattice import NORM_KINDS, Described, LatticeVector, NormKind, _same, listed, number
from .record import Record
from .spectral import Spectrum, diagonal_spectrum, eigenvalues, nilpotent_spectrum


class OperatorError(ValueError):
    pass


DUALITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# function and functional representations
#
# A function kind gives sample(nodes) at a float array of nodes,
# halfline_powers() (None when tabulated) and extremes(lo, hi), its (inf, sup)
# over [lo, hi], +-inf where unbounded, or None when it is not real; a
# functional kind gives row(space), apply(f, space), hat_pairing(peak, width)
# and the points it evaluates at.
# Each declares its descriptor (`codec`, see `lattice.Described`) and checks
# its parameters.


def _number(value, what: str):
    """`lattice.number`, raising OperatorError."""
    return number(value, what, OperatorError)


def _finite_data(data, what: str) -> np.ndarray:
    """A complex copy of data, rejected when empty or not finite."""
    a = np.array(data, dtype=complex)
    if a.size == 0 or not np.isfinite(a).all():
        raise OperatorError(f"{what} must be nonempty and finite")
    return a


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def complex_pairs(a) -> list:
    """[[re, im], ...] of a complex array as Python floats: [_c2j(z) for z
    in a], bit for bit, in one conversion."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def _j2c(v) -> complex:
    """A number, or an [re, im] pair of numbers, as a complex."""
    if not isinstance(v, (list, tuple)):
        return complex(_number(v, "complex entry"))
    if len(v) != 2:
        raise OperatorError(f"complex entry {v!r} is not an [re, im] pair")
    return complex(_number(v[0], "real part"), _number(v[1], "imaginary part"))


def _decode(data, registry: dict, family: str, key: str = "kind"):
    """The descriptor `data` read by the class that `registry` holds under
    its name data[key], which must be a string."""
    if not isinstance(data, dict):
        raise OperatorError(f"{family} descriptor must be a JSON object, not {type(data).__name__}")
    name = data.get(key)
    cls = registry.get(name) if isinstance(name, str) else None
    if cls is None:
        raise OperatorError(f"unknown {family} {key} {name!r}")
    return cls.from_json(data)


def norm_from_json(data: dict) -> NormKind:
    return _decode(data, NORM_KINDS, "norm")


def _descriptor_list(registry: dict, family: str) -> tuple:
    """The codec pair of a list of descriptors that `registry` reads."""
    return (lambda xs: [x.to_json() for x in xs],
            listed(lambda d: _decode(d, registry, family), family + "s", OperatorError))


def _complex_list(what: str) -> tuple:
    """The codec pair of a list of complex entries (`_j2c`), called `what`."""
    return complex_pairs, listed(_j2c, what, OperatorError)


# the codec pairs that several kinds share
_COMPLEX = (_c2j, _j2c)
_NORM = (Described.to_json, norm_from_json)


class Constant(Described):
    value: complex = 1.0
    kind: ClassVar[str] = "constant"
    codec = {"value": _COMPLEX}

    def __post_init__(self):
        _finite_data(self.value, "constant value")

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        return np.full(len(nodes), complex(self.value))

    def halfline_powers(self):
        return (complex(self.value), 0.0, complex(self.value), 0.0)

    def extremes(self, lo: float, hi: float):
        value = complex(self.value)
        return None if value.imag else (value.real, value.real)


class Monomial(Described):
    degree: int = 1
    kind: ClassVar[str] = "monomial"
    codec = {"degree": (_same, _same)}

    def __post_init__(self):
        if not float(_number(self.degree, "monomial degree")).is_integer():
            raise OperatorError(f"monomial degree {self.degree!r} is not an integer")
        object.__setattr__(self, "degree", int(self.degree))

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        return nodes.astype(complex) ** self.degree

    def halfline_powers(self):
        return (1.0 + 0j, float(self.degree), (-1.0 + 0j) ** self.degree, float(self.degree))

    def extremes(self, lo: float, hi: float):
        if self.degree < 0 and lo <= 0.0 <= hi:
            return (-np.inf, np.inf)
        values = [t**self.degree for t in (lo, hi, 0.0) if lo <= t <= hi]
        return (min(values), max(values))


class SignedPower(Described):
    """x -> sgn(x) * |x|**exponent; exponent may be negative (integrable)."""

    exponent: float
    kind: ClassVar[str] = "signed_power"
    codec = {"exponent": (_same, lambda v: float(_number(v, "signed-power exponent")))}

    def __post_init__(self):
        _finite_data(self.exponent, "signed-power exponent")

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        if np.any(nodes == 0.0) and self.exponent < 0:
            raise OperatorError("signed power with negative exponent sampled at 0")
        return np.sign(nodes) * np.abs(nodes).astype(complex) ** self.exponent

    def halfline_powers(self):
        return (1.0 + 0j, self.exponent, -1.0 + 0j, self.exponent)

    def extremes(self, lo: float, hi: float):
        """Nondecreasing for exponent >= 0; for a negative one, decreasing
        on each side of 0 and unbounded at it."""
        alpha = complex(self.exponent)
        if alpha.imag:
            return None
        if alpha.real < 0 and lo <= 0.0 <= hi:
            return (-np.inf, np.inf)
        ends = [float(np.sign(t)) * abs(t) ** alpha.real for t in (lo, hi)]
        return (min(ends), max(ends))


class Tabulated(Described):
    values: tuple
    kind: ClassVar[str] = "tabulated"
    codec = {"values": _complex_list("tabulated values")}

    def __post_init__(self):
        _finite_data(self.values, "tabulated values")

    def sample(self, nodes: np.ndarray) -> np.ndarray:
        values = np.asarray(self.values, dtype=complex)
        if len(values) != len(nodes):
            raise OperatorError("tabulated values do not match the node count")
        return values

    def halfline_powers(self):
        return None

    def extremes(self, lo: float, hi: float):
        """Read at the nodes: a tabulated function has no other values."""
        values = np.asarray(self.values, dtype=complex)
        return None if values.imag.any() else (float(values.real.min()), float(values.real.max()))


FunctionRep = Union[Constant, Monomial, SignedPower, Tabulated]
FUNCTION_KINDS = {cls.kind: cls for cls in (Constant, Monomial, SignedPower, Tabulated)}


def integrate_product(f: FunctionRep, g: FunctionRep, lo: float, hi: float) -> complex:
    """Closed-form integral of f*g over (lo, hi); lo <= 0 <= hi."""
    pf = f.halfline_powers()
    pg = g.halfline_powers()
    if pf is None or pg is None:
        raise OperatorError("closed-form integration requires analytic factors")
    cp = pf[0] * pg[0]
    sp = pf[1] + pg[1]
    cn = pf[2] * pg[2]
    sn = pf[3] + pg[3]
    if sp <= -1 or sn <= -1:
        raise OperatorError("product is not integrable at 0")
    total = 0.0 + 0j
    if hi > 0:
        total += cp * hi ** (sp + 1) / (sp + 1)
    if lo < 0:
        total += cn * (-lo) ** (sn + 1) / (sn + 1)
    return complex(total)


def _nodes(space: NormKind) -> np.ndarray:
    """The nodes of a function-space norm, as floats."""
    if space.node_count is None:
        raise OperatorError("functionals require a function-space norm")
    return np.asarray(space.nodes, dtype=float)


class WeightedIntegral(Described):
    """g -> scale * integral of weight(x) * g(x) over the space's interval."""

    weight: FunctionRep
    scale: complex = 1.0
    kind: ClassVar[str] = "weighted_integral"
    codec = {"weight": (Described.to_json, lambda v: _decode(v, FUNCTION_KINDS, "function")),
             "scale": _COMPLEX}
    points: ClassVar[tuple] = ()  # no point evaluation, so no hat peak

    def __post_init__(self):
        _finite_data(self.scale, "integral scale")

    def row(self, space: NormKind) -> np.ndarray:
        """Row vector r with <phi, g> = r @ samples(g) for grid vectors g: the
        space's trapezoid or quadrature weights (`weight_array`) times phi."""
        return self.scale * self.weight.sample(_nodes(space)) * space.weight_array

    def apply(self, f: FunctionRep, space: NormKind) -> complex:
        """<phi, f> in closed form when both factors are analytic, by
        quadrature otherwise."""
        if f.halfline_powers() is None or self.weight.halfline_powers() is None:
            return complex(self.row(space) @ f.sample(_nodes(space)))
        lo, hi = space.domain()
        return self.scale * integrate_product(self.weight, f, lo, hi)

    def hat_pairing(self, peak: float, width: float) -> complex:
        """<phi, hat> for the hat of this width at `peak`, exact for a
        constant weight. In the width-0 limit it is 0 for any analytic
        weight integrable at the peak, one whose half-line exponents are
        both above -1, as the hat's integral against it vanishes."""
        if isinstance(self.weight, Constant):
            return self.scale * self.weight.value * width / 2.0
        powers = self.weight.halfline_powers()
        if width == 0.0 and powers is not None and min(powers[1], powers[3]) > -1:
            return 0j
        raise OperatorError("hat witness requires a constant or, at width 0, integrable weight")


class PointCombination(Described):
    """g -> sum_i coefficients[i] * g(points[i])."""

    points: tuple
    coefficients: tuple
    kind: ClassVar[str] = "point_combination"
    codec = {"points": (list, listed(lambda p: _number(p, "functional point"), "functional points",
                                     OperatorError)),
             "coefficients": _complex_list("functional coefficients")}

    def __post_init__(self):
        _finite_data(self.points, "functional points")
        _finite_data(self.coefficients, "functional coefficients")
        if len(self.points) != len(self.coefficients):
            raise OperatorError("a point combination needs one coefficient per point")

    def _node_indices(self, nodes: np.ndarray) -> list:
        """The index of each point's node; a point that is no node is
        rejected."""
        indices = []
        for p in self.points:
            idx = int(np.argmin(np.abs(nodes - p)))
            if abs(nodes[idx] - p) > 1e-9:
                raise OperatorError(f"point {p} is not a node of the space")
            indices.append(idx)
        return indices

    def row(self, space: NormKind) -> np.ndarray:
        """Row vector r with <phi, g> = r @ samples(g): each coefficient at
        its point's node."""
        nodes = _nodes(space)
        row = np.zeros(len(nodes), dtype=complex)
        for idx, c in zip(self._node_indices(nodes), self.coefficients):
            row[idx] += c
        return row

    def apply(self, f: FunctionRep, space: NormKind) -> complex:
        """<phi, f> from the values of f at the points: an analytic f's
        sampled there, a tabulated f's read at each point's node."""
        if f.halfline_powers() is None:
            nodes = _nodes(space)
            vals = f.sample(nodes)[self._node_indices(nodes)]
        else:
            vals = f.sample(np.asarray(self.points, dtype=float))
        return complex(np.sum(np.asarray(self.coefficients, dtype=complex) * vals))

    def hat_pairing(self, peak: float, width: float) -> complex:
        """<phi, hat> for the hat of this width at `peak`, valid while the
        hat's support stays clear of the other points."""
        total = 0.0 + 0j
        for p, c in zip(self.points, self.coefficients):
            if abs(p - peak) < 1e-12:
                total += c
            elif abs(p - peak) < width:
                raise OperatorError("hat support touches a functional point")
        return total


FUNCTIONAL_KINDS = {cls.kind: cls for cls in (WeightedIntegral, PointCombination)}


# ---------------------------------------------------------------------------
# operator models
#
# Each model supplies the same methods: orbit(Y, horizon), its one power
# path, which streams Y, TY, ..., T^horizon Y for a dim x m block Y; dense();
# spectral_radius(); spectral_data(), its `Spectrum`, which the asymptotic
# rule and the checks read; and its descriptor: a `codec`, or for a dense
# matrix, which writes n and one flat entry list, to_json() and from_json().
# A diagonal and a weighted shift give their spectrum in closed form, a
# dense matrix keeps the one it solved, and a rank-k model takes its dense
# view's. A norm that fixes its nodes must fix one per dimension.


def _iterate(step, Y: np.ndarray, horizon: int):
    """Y, step(Y), step(step(Y)), ... up to `horizon` steps, one at a time."""
    yield Y
    for _ in range(horizon):
        Y = step(Y)
        yield Y


def _check_node_count(T) -> None:
    """A norm that fixes its nodes must fix as many as T has dimensions."""
    count = T.norm.node_count
    if count is not None and count != T.dim:
        raise OperatorError(f"norm has {count} nodes, model has dimension {T.dim}")


class Dense(Record):
    matrix: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "dense"

    def __post_init__(self):
        m = _finite_data(self.matrix, "dense matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise OperatorError("dense operator requires a square matrix")
        m.setflags(write=False)  # the kept spectrum stays the matrix's
        object.__setattr__(self, "matrix", m)
        _check_node_count(self)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def orbit(self, Y: np.ndarray, horizon: int):
        return _iterate(self.matrix.__matmul__, Y, horizon)

    def dense(self) -> Dense:
        return self

    @cached_property
    def _spectrum(self) -> Spectrum:
        return eigenvalues(self.matrix)

    def spectral_data(self) -> Spectrum:
        """Solved on first use and kept, for the rescaling and the checks."""
        return self._spectrum

    def spectral_radius(self) -> float:
        return self.spectral_data().spectral_radius

    @cached_property
    def exactly_real(self) -> bool:
        """Every imaginary part is 0 (-0.0 too), read off the least and the
        largest; kept, as is `exactly_nonnegative`, which both trios read."""
        imag = self.matrix.imag
        return bool(np.minimum.reduce(imag, axis=None) == 0 == np.maximum.reduce(imag, axis=None))

    @cached_property
    def exactly_nonnegative(self) -> bool:
        return bool(np.minimum.reduce(self.matrix.real, axis=None) >= 0) and self.exactly_real

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.dim,
            "entries": complex_pairs(self.matrix.ravel()),
            "norm": self.norm.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict):
        n = _number(data["n"], "dense size n")
        if not float(n).is_integer():
            raise OperatorError(f"dense size n {n!r} is not an integer")
        n = int(n)
        entries = listed(_j2c, "dense entries", OperatorError)(data["entries"])
        if len(entries) != n * n:
            raise OperatorError(f"dense size n {n} needs {n * n} entries, not {len(entries)}")
        return cls(np.array(entries).reshape(n, n), norm_from_json(data["norm"]))


class Diagonal(Described):
    symbol: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "diagonal"
    tag = "variant"
    codec = {"symbol": _complex_list("diagonal symbol"), "norm": _NORM}

    def __post_init__(self):
        object.__setattr__(self, "symbol", _finite_data(self.symbol, "diagonal symbol"))
        _check_node_count(self)

    @property
    def dim(self) -> int:
        return len(self.symbol)

    def orbit(self, Y: np.ndarray, horizon: int):
        return _iterate(lambda Z: self.symbol[:, None] * Z, Y, horizon)

    def dense(self) -> Dense:
        return Dense(np.diag(self.symbol), self.norm)

    def spectral_radius(self) -> float:
        return float(np.maximum.reduce(np.abs(self.symbol)))

    def spectral_data(self) -> Spectrum:
        """Read off the symbol (`diagonal_spectrum`), built on each call."""
        return diagonal_spectrum(self.symbol)


class WeightedShift(Described):
    """(Tx)_{k+1} = w_k x_k and (Tx)_1 = 0; dimension = len(weights) + 1."""

    weights: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "shift"
    tag = "variant"
    codec = {"weights": _complex_list("shift weights"), "norm": _NORM}

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_data(self.weights, "shift weights"))
        _check_node_count(self)

    @property
    def dim(self) -> int:
        return len(self.weights) + 1

    def _step(self, Z: np.ndarray) -> np.ndarray:
        """T applied to a vector, or to each column of a block."""
        return np.concatenate([np.zeros_like(Z[:1]), (self.weights * Z[:-1].T).T])

    def orbit(self, Y: np.ndarray, horizon: int):
        return _iterate(self._step, Y, horizon)

    def dense(self) -> Dense:
        return Dense(np.diag(self.weights, -1), self.norm)

    def spectral_radius(self) -> float:
        return 0.0  # nilpotent truncation

    def spectral_data(self) -> Spectrum:
        """dim zeros and spr = 0 (`nilpotent_spectrum`), built on each call."""
        return nilpotent_spectrum(self.dim)


class RankK(Described):
    functions: tuple
    functionals: tuple
    space: NormKind
    variant: ClassVar[str] = "rank_k"
    tag = "variant"
    codec = {"functions": _descriptor_list(FUNCTION_KINDS, "function"),
             "functionals": _descriptor_list(FUNCTIONAL_KINDS, "functional"), "space": _NORM}

    def __post_init__(self):
        # not fields, so equality, hash and repr skip them: D[i, j] =
        # <phi_i, f_j> (`duality`), its diagonal lam_i = <phi_i, f_i> (the
        # `eigen_parameters`) and their largest modulus (`_radius`), the
        # quadrature `rows` of the phi_i (k x dim) and the f_j sampled on the
        # grid (`samples`, dim x k)
        if len(self.functions) != len(self.functionals):
            raise OperatorError("rank-k model needs matching function/functional lists")
        if self.space.node_count is None:
            raise OperatorError("rank-k model requires a function-space norm")
        k = len(self.functions)
        if k == 0:
            raise OperatorError("rank-k model needs at least one function")
        D = np.zeros((k, k), dtype=complex)
        for i, phi in enumerate(self.functionals):
            for j, f in enumerate(self.functions):
                D[i, j] = phi.apply(f, self.space)
        off = D - np.diag(np.diag(D))
        if np.max(np.abs(off), initial=0.0) > DUALITY_TOL:
            raise OperatorError(
                "duality matrix is not diagonal: "
                f"max off-diagonal {np.max(np.abs(off)):.3e} > {DUALITY_TOL}"
            )
        object.__setattr__(self, "duality", D)
        lam = np.diag(D).copy()
        lam.setflags(write=False)
        object.__setattr__(self, "eigen_parameters", lam)
        # with a diagonal duality matrix the nonzero eigenvalues are exactly
        # the diagonal pairings <phi_i, f_i>
        object.__setattr__(self, "_radius", float(np.max(np.abs(lam))))
        nodes = np.asarray(self.space.nodes, dtype=float)
        rows = [phi.row(self.space) for phi in self.functionals]
        samples = [f.sample(nodes) for f in self.functions]
        object.__setattr__(self, "rows", np.array(rows))
        object.__setattr__(self, "samples", np.array(samples).T)

    @property
    def norm(self) -> NormKind:
        """The function space's norm; the JSON descriptor calls it "space"."""
        return self.space

    @property
    def rank(self) -> int:
        return len(self.functions)

    @property
    def dim(self) -> int:
        return self.space.node_count

    def coefficients(self, entries: np.ndarray) -> np.ndarray:
        """The pairings <phi_i, x> for a grid vector with these entries, one dot
        product per row: a matrix-vector product rounds differently, and the
        singular-term witnesses built on these would move in the last bit."""
        return np.array([row @ entries for row in self.rows])

    def orbit(self, Y: np.ndarray, horizon: int):
        # T^n = samples diag(lambda^(n-1)) rows for n >= 1
        yield Y
        C = self.rows @ Y
        lam = self.eigen_parameters[:, None]
        for n in range(1, horizon + 1):
            yield self.samples @ (lam ** (n - 1) * C)

    def dense(self) -> Dense:
        return Dense(self.samples @ self.rows, self.space)

    def spectral_radius(self) -> float:
        return self._radius

    def spectral_data(self) -> Spectrum:
        """Its dense view's, solved on each call: a dim x dim solve, which
        `run_classify` asks for only at dim <= its DIM_CAP. At spr = 0 it is
        dim zeros (`nilpotent_spectrum`), with no dense view formed."""
        if self._radius == 0:
            return nilpotent_spectrum(self.dim)
        return to_dense(self).spectral_data()


OperatorModel = Union[Dense, Diagonal, WeightedShift, RankK]


def _check_vector(T: OperatorModel, x: LatticeVector):
    if len(x) != T.dim:
        raise OperatorError(
            f"vector length {len(x)} does not match operator dimension {T.dim}"
        )


def power_apply(T: OperatorModel, n: int, x: LatticeVector) -> LatticeVector:
    """T^n x for n >= 1: the n-th block of T's orbit of x."""
    if n < 1:
        raise OperatorError("power_apply requires n >= 1")
    _check_vector(T, x)
    for Y in T.orbit(x.entries[:, None], n):
        pass
    return LatticeVector(Y[:, 0], x.norm)


def to_dense(T: OperatorModel) -> Dense:
    return T.dense()


# ---------------------------------------------------------------------------
# model files


def model_to_json(T: OperatorModel) -> dict:
    return T.to_json()


# the descriptor keys whose lists grow with a model, hashed as bytes
_ARRAY_KEYS = frozenset(("symbol", "weights", "nodes", "values", "points", "coefficients"))


def _digest_header(data, arrays: list, key: str = "") -> str:
    """The compact sorted-key JSON text of a descriptor, with the list under
    each of _ARRAY_KEYS written as its length and appended to `arrays` as
    little-endian float64 ([re, im] pairs as two)."""
    if key in _ARRAY_KEYS:
        arrays.append(np.array(data, dtype="<f8"))
        return "%d" % len(data)
    if isinstance(data, dict):
        items = ['"%s":%s' % (k, _digest_header(data[k], arrays, k)) for k in sorted(data)]
        return "{%s}" % ",".join(items)
    if isinstance(data, list):  # of records, or an [re, im] pair
        return "[%s]" % ",".join([_digest_header(d, arrays) for d in data])
    if isinstance(data, str):
        return '"%s"' % data
    return float.__repr__(data) if isinstance(data, float) else "%d" % data


def model_digest(T: OperatorModel) -> str:
    """sha256 hex digest that names a model in a report (and its model file):
    a `Dense`'s one-format header (n, norm's compact JSON, variant) and
    matrix as complex128 in C order, or any other model's `_digest_header`
    and arrays; only a grid norm's nodes in a `Dense`'s header are formatted."""
    if isinstance(T, Dense):
        norm = '{"kind":"%s"}' % T.norm.kind if T.norm.node_count is None else json.dumps(
            T.norm.to_json(), sort_keys=True, separators=(",", ":"))
        h = hashlib.sha256(('{"n":%d,"norm":%s,"variant":"%s"}' % (T.dim, norm, T.variant)).encode())
        h.update(np.ascontiguousarray(T.matrix, dtype="<c16"))
        return h.hexdigest()
    arrays: list = []
    h = hashlib.sha256(_digest_header(model_to_json(T), arrays).encode())
    for a in arrays:
        h.update(a)
    return h.hexdigest()


MODEL_VARIANTS = {cls.variant: cls for cls in (Dense, Diagonal, WeightedShift, RankK)}


def model_from_json(data: dict) -> OperatorModel:
    return _decode(data, MODEL_VARIANTS, "model", "variant")
