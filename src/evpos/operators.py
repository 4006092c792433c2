"""Concrete operator models with exact power formulas.

Four representations: dense complex matrices, rank-k functional operators
(finite-rank maps sum_i f_i <phi_i, .> with a diagonal duality matrix),
diagonal multiplication operators, and weighted shifts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

from .lattice import (
    GridSup,
    LatticeVector,
    LpQuadrature,
    NormKind,
    node_count,
)
from .spectral import Spectrum, diagonal_spectrum, eigenvalues, nilpotent_spectrum


class OperatorError(ValueError):
    pass


DUALITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# function and functional representations


@dataclass(frozen=True)
class Constant:
    value: complex = 1.0


@dataclass(frozen=True)
class Monomial:
    degree: int = 1


@dataclass(frozen=True)
class SignedPower:
    """x -> sgn(x) * |x|**exponent; exponent may be negative (integrable)."""

    exponent: float


@dataclass(frozen=True)
class Tabulated:
    values: tuple


FunctionRep = Union[Constant, Monomial, SignedPower, Tabulated]


@dataclass(frozen=True)
class WeightedIntegral:
    """g -> scale * integral of weight(x) * g(x) over the space's interval."""

    weight: FunctionRep
    scale: complex = 1.0


@dataclass(frozen=True)
class PointCombination:
    """g -> sum_i coefficients[i] * g(points[i])."""

    points: tuple
    coefficients: tuple


FunctionalRep = Union[WeightedIntegral, PointCombination]


def sample_function(f: FunctionRep, nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if isinstance(f, Constant):
        return np.full(len(nodes), complex(f.value))
    if isinstance(f, Monomial):
        return nodes.astype(complex) ** f.degree
    if isinstance(f, SignedPower):
        if np.any(nodes == 0.0) and f.exponent < 0:
            raise OperatorError("signed power with negative exponent sampled at 0")
        return np.sign(nodes) * np.abs(nodes).astype(complex) ** f.exponent
    if isinstance(f, Tabulated):
        values = np.asarray(f.values, dtype=complex)
        if len(values) != len(nodes):
            raise OperatorError("tabulated values do not match the node count")
        return values
    raise OperatorError(f"unknown function representation {f!r}")


def _halfline_powers(f: FunctionRep):
    """(coef_pos, exp_pos, coef_neg, exp_neg) so that f(x) = coef_pos*x^exp_pos
    for x > 0 and f(x) = coef_neg*|x|^exp_neg for x < 0. None for Tabulated."""
    if isinstance(f, Constant):
        return (complex(f.value), 0.0, complex(f.value), 0.0)
    if isinstance(f, Monomial):
        return (1.0 + 0j, float(f.degree), (-1.0 + 0j) ** f.degree, float(f.degree))
    if isinstance(f, SignedPower):
        return (1.0 + 0j, f.exponent, -1.0 + 0j, f.exponent)
    return None


def integrate_product(f: FunctionRep, g: FunctionRep, lo: float, hi: float) -> complex:
    """Closed-form integral of f*g over (lo, hi); lo <= 0 <= hi."""
    pf = _halfline_powers(f)
    pg = _halfline_powers(g)
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


def domain_of(space: NormKind):
    """Interval covered by a function-space norm; grid endpoints for sup grids,
    cell hull for quadrature rules."""
    if isinstance(space, GridSup):
        return float(space.nodes[0]), float(space.nodes[-1])
    if isinstance(space, LpQuadrature):
        w = space.weight_array
        return float(space.nodes[0]) - float(w[0]) / 2, float(space.nodes[-1]) + float(w[-1]) / 2
    raise OperatorError("norm kind carries no function domain")


def quadrature_row(phi: FunctionalRep, space: NormKind) -> np.ndarray:
    """Row vector r with <phi, g> = r @ samples(g) for grid vectors g: the
    space's trapezoid or quadrature weights (`weight_array`) times phi."""
    if not isinstance(space, (GridSup, LpQuadrature)):
        raise OperatorError("functionals require a function-space norm")
    nodes = np.asarray(space.nodes, dtype=float)
    quad = space.weight_array
    if isinstance(phi, WeightedIntegral):
        return phi.scale * sample_function(phi.weight, nodes) * quad
    if isinstance(phi, PointCombination):
        row = np.zeros(len(nodes), dtype=complex)
        for p, c in zip(phi.points, phi.coefficients):
            idx = np.argmin(np.abs(nodes - p))
            if abs(nodes[idx] - p) > 1e-9:
                raise OperatorError(f"point {p} is not a node of the space")
            row[idx] += c
        return row
    raise OperatorError(f"unknown functional representation {phi!r}")


def apply_functional(
    phi: FunctionalRep, f: FunctionRep, space: NormKind
) -> complex:
    """<phi, f> in closed form when possible, by quadrature otherwise."""
    if isinstance(phi, WeightedIntegral):
        if isinstance(f, Tabulated) or isinstance(phi.weight, Tabulated):
            nodes = np.asarray(space.nodes, dtype=float)
            row = quadrature_row(phi, space)
            return complex(row @ sample_function(f, nodes))
        lo, hi = domain_of(space)
        return phi.scale * integrate_product(phi.weight, f, lo, hi)
    if isinstance(phi, PointCombination):
        pts = np.asarray(phi.points, dtype=float)
        vals = sample_function(f, pts)
        return complex(np.sum(np.asarray(phi.coefficients, dtype=complex) * vals))
    raise OperatorError(f"unknown functional representation {phi!r}")


# ---------------------------------------------------------------------------
# operator models
#
# Each model supplies the same methods: orbit(Y, horizon), its one power
# path, which streams Y, TY, ..., T^horizon Y for a dim x m block Y; dense();
# spectral_radius(); spectral_data(), its `Spectrum`, which the asymptotic
# rule and the checks read; and to_json(). A diagonal and a weighted shift
# give their spectrum in closed form, a dense matrix keeps the one it
# solved, and a rank-k model takes its dense view's.


def _iterate(step, Y: np.ndarray, horizon: int):
    """Y, step(Y), step(step(Y)), ... up to `horizon` steps, one at a time."""
    yield Y
    for _ in range(horizon):
        Y = step(Y)
        yield Y


def _finite_data(data, what: str) -> np.ndarray:
    """A complex copy of data, rejected when empty or not finite."""
    a = np.array(data, dtype=complex)
    if a.size == 0 or not np.isfinite(a).all():
        raise OperatorError(f"{what} must be nonempty and finite")
    return a


def entrywise_positive(a: np.ndarray, tol: float) -> bool:
    """Every entry of a lies within tol of the nonnegative reals."""
    return bool((a.real >= -tol).all() and (np.abs(a.imag) <= tol).all())


@dataclass(frozen=True)
class Dense:
    matrix: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "dense"

    def __post_init__(self):
        m = _finite_data(self.matrix, "dense matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise OperatorError("dense operator requires a square matrix")
        m.setflags(write=False)  # the kept spectrum stays the matrix's
        object.__setattr__(self, "matrix", m)

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

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.dim,
            "entries": complex_pairs(self.matrix.ravel()),
            "norm": norm_to_json(self.norm),
        }


@dataclass(frozen=True)
class Diagonal:
    symbol: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "diagonal"

    def __post_init__(self):
        object.__setattr__(self, "symbol", _finite_data(self.symbol, "diagonal symbol"))

    @property
    def dim(self) -> int:
        return len(self.symbol)

    def orbit(self, Y: np.ndarray, horizon: int):
        return _iterate(lambda Z: self.symbol[:, None] * Z, Y, horizon)

    def dense(self) -> Dense:
        return Dense(np.diag(self.symbol), self.norm)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.symbol)))

    def spectral_data(self) -> Spectrum:
        """Read off the symbol (`diagonal_spectrum`), built on each call."""
        return diagonal_spectrum(self.symbol)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "symbol": complex_pairs(self.symbol),
            "norm": norm_to_json(self.norm),
        }


@dataclass(frozen=True)
class WeightedShift:
    """(Tx)_{k+1} = w_k x_k and (Tx)_1 = 0; dimension = len(weights) + 1."""

    weights: np.ndarray
    norm: NormKind
    variant: ClassVar[str] = "shift"

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_data(self.weights, "shift weights"))

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
        """dim zeros and spr = 0 (`nilpotent_spectrum`), built on each call;
        ||T||_2 is the largest weight modulus, as T maps the basis vectors
        to orthogonal ones."""
        return nilpotent_spectrum(self.dim, float(np.max(np.abs(self.weights))))

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "weights": complex_pairs(self.weights),
            "norm": norm_to_json(self.norm),
        }


@dataclass(frozen=True)
class RankK:
    functions: tuple
    functionals: tuple
    space: NormKind
    # computed once by __post_init__: D[i, j] = <phi_i, f_j>, the quadrature
    # rows of the phi_i (k x dim) and the f_j sampled on the grid (dim x k)
    duality: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    variant: ClassVar[str] = "rank_k"

    def __post_init__(self):
        if len(self.functions) != len(self.functionals):
            raise OperatorError("rank-k model needs matching function/functional lists")
        if node_count(self.space) is None:
            raise OperatorError("rank-k model requires a function-space norm")
        k = len(self.functions)
        D = np.zeros((k, k), dtype=complex)
        for i, phi in enumerate(self.functionals):
            for j, f in enumerate(self.functions):
                D[i, j] = apply_functional(phi, f, self.space)
        off = D - np.diag(np.diag(D))
        if np.max(np.abs(off), initial=0.0) > DUALITY_TOL:
            raise OperatorError(
                "duality matrix is not diagonal: "
                f"max off-diagonal {np.max(np.abs(off)):.3e} > {DUALITY_TOL}"
            )
        object.__setattr__(self, "duality", D)
        nodes = np.asarray(self.space.nodes, dtype=float)
        rows = [quadrature_row(phi, self.space) for phi in self.functionals]
        samples = [sample_function(f, nodes) for f in self.functions]
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
        return node_count(self.space)

    @property
    def eigen_parameters(self) -> np.ndarray:
        return np.diag(self.duality)

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
        # with a diagonal duality matrix the nonzero eigenvalues are exactly
        # the diagonal pairings <phi_i, f_i>
        return float(np.max(np.abs(self.eigen_parameters)))

    def spectral_data(self) -> Spectrum:
        """Its dense view's, solved on each call: a dim x dim solve, which
        `run_classify` asks for only at dim <= its DIM_CAP."""
        return to_dense(self).spectral_data()

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "functions": [_function_to_json(f) for f in self.functions],
            "functionals": [_functional_to_json(phi) for phi in self.functionals],
            "space": norm_to_json(self.space),
        }


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


def pairing(
    T: OperatorModel,
    n: int,
    x: LatticeVector,
    xprime: Union[FunctionalRep, LatticeVector],
) -> complex:
    """<x', T^n x>; n = 0 returns the plain pairing <x', x>."""
    if n < 0:
        raise OperatorError("pairing requires n >= 0")
    if isinstance(xprime, LatticeVector):
        if len(xprime) != len(x):
            raise OperatorError("pairing dimension mismatch")
        y = x if n == 0 else power_apply(T, n, x)
        return complex(np.sum(xprime.entries * y.entries))
    if not isinstance(T, RankK):
        raise OperatorError("functional pairings require a rank-k model")
    row = quadrature_row(xprime, T.space)
    if n == 0:
        return complex(row @ x.entries)
    coeffs = T.coefficients(x.entries) * T.eigen_parameters ** (n - 1)
    dual = np.array(
        [apply_functional(xprime, f, T.space) for f in T.functions]
    )
    return complex(np.sum(coeffs * dual))


def to_dense(T: OperatorModel) -> Dense:
    return T.dense()


# ---------------------------------------------------------------------------
# JSON descriptors


def _c2j(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def complex_pairs(a) -> list:
    """[[re, im], ...] of a complex array as Python floats: [_c2j(z) for z
    in a], bit for bit, in one conversion."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def _j2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def norm_to_json(norm: NormKind) -> dict:
    from .lattice import Ell1, Ell2, EllInf

    if isinstance(norm, Ell1):
        return {"kind": "ell1"}
    if isinstance(norm, Ell2):
        return {"kind": "ell2"}
    if isinstance(norm, EllInf):
        return {"kind": "ellinf"}
    if isinstance(norm, LpQuadrature):
        return {
            "kind": "lp_quadrature",
            "p": norm.p,
            "nodes": list(norm.nodes),
            "weights": list(norm.weights),
        }
    if isinstance(norm, GridSup):
        return {"kind": "grid_sup", "nodes": list(norm.nodes)}
    raise OperatorError(f"unknown norm kind {norm!r}")


def norm_from_json(data: dict) -> NormKind:
    from .lattice import Ell1, Ell2, EllInf

    kind = data.get("kind")
    if kind == "ell1":
        return Ell1()
    if kind == "ell2":
        return Ell2()
    if kind == "ellinf":
        return EllInf()
    if kind == "lp_quadrature":
        return LpQuadrature(data["p"], tuple(data["nodes"]), tuple(data["weights"]))
    if kind == "grid_sup":
        return GridSup(tuple(data["nodes"]))
    raise OperatorError(f"unknown norm kind {kind!r}")


def _function_to_json(f: FunctionRep) -> dict:
    if isinstance(f, Constant):
        return {"kind": "constant", "value": _c2j(f.value)}
    if isinstance(f, Monomial):
        return {"kind": "monomial", "degree": f.degree}
    if isinstance(f, SignedPower):
        return {"kind": "signed_power", "exponent": f.exponent}
    if isinstance(f, Tabulated):
        return {"kind": "tabulated", "values": complex_pairs(f.values)}
    raise OperatorError(f"unknown function representation {f!r}")


def _function_from_json(data: dict) -> FunctionRep:
    kind = data.get("kind")
    if kind == "constant":
        return Constant(_j2c(data["value"]))
    if kind == "monomial":
        return Monomial(int(data["degree"]))
    if kind == "signed_power":
        return SignedPower(float(data["exponent"]))
    if kind == "tabulated":
        return Tabulated(tuple(_j2c(v) for v in data["values"]))
    raise OperatorError(f"unknown function kind {kind!r}")


def _functional_to_json(phi: FunctionalRep) -> dict:
    if isinstance(phi, WeightedIntegral):
        return {
            "kind": "weighted_integral",
            "weight": _function_to_json(phi.weight),
            "scale": _c2j(phi.scale),
        }
    if isinstance(phi, PointCombination):
        return {
            "kind": "point_combination",
            "points": list(phi.points),
            "coefficients": complex_pairs(phi.coefficients),
        }
    raise OperatorError(f"unknown functional representation {phi!r}")


def _functional_from_json(data: dict) -> FunctionalRep:
    kind = data.get("kind")
    if kind == "weighted_integral":
        return WeightedIntegral(_function_from_json(data["weight"]), _j2c(data["scale"]))
    if kind == "point_combination":
        return PointCombination(
            tuple(data["points"]), tuple(_j2c(c) for c in data["coefficients"])
        )
    raise OperatorError(f"unknown functional kind {kind!r}")


def model_to_json(T: OperatorModel) -> dict:
    return T.to_json()


def _canonical_json(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def model_digest(T: OperatorModel) -> str:
    """sha256 hex digest that names a model in a report. A `Dense` hashes a
    canonical compact-JSON header (variant, n, norm) followed by its matrix
    as little-endian complex128 bytes in C order, so no entry is formatted;
    any other model hashes the canonical compact JSON of its (small)
    descriptor. A model read back from its model file has the same digest."""
    if isinstance(T, Dense):
        header = {"variant": T.variant, "n": T.dim, "norm": norm_to_json(T.norm)}
        h = hashlib.sha256(_canonical_json(header))
        h.update(np.ascontiguousarray(T.matrix, dtype="<c16"))
        return h.hexdigest()
    return hashlib.sha256(_canonical_json(model_to_json(T))).hexdigest()


def model_from_json(data: dict) -> OperatorModel:
    variant = data.get("variant")
    if variant == "dense":
        n = int(data["n"])
        entries = np.array([_j2c(v) for v in data["entries"]]).reshape(n, n)
        return Dense(entries, norm_from_json(data["norm"]))
    if variant == "diagonal":
        return Diagonal(
            np.array([_j2c(v) for v in data["symbol"]]), norm_from_json(data["norm"])
        )
    if variant == "shift":
        return WeightedShift(
            np.array([_j2c(v) for v in data["weights"]]), norm_from_json(data["norm"])
        )
    if variant == "rank_k":
        return RankK(
            tuple(_function_from_json(f) for f in data["functions"]),
            tuple(_functional_from_json(phi) for phi in data["functionals"]),
            norm_from_json(data["space"]),
        )
    raise OperatorError(f"unknown model variant {variant!r}")
