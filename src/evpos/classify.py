"""Classification of operators in the eventual/asymptotic positivity hierarchy.

Six notions: powers become positive as operators, per positive vector, or per
positive (vector, functional) pairing; and the asymptotic variants where the
rescaled powers approach the cone in the distance-to-cone sense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import (
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeVector,
    LpQuadrature,
    NormKind,
    cone_distance,
    norm_value,
)
from .operators import (
    Diagonal,
    OperatorModel,
    OperatorError,
    RankK,
    WeightedIntegral,
    Constant,
    Tabulated,
    apply,
    apply_functional,
    entrywise_positive,
    power_apply,
    quadrature_row,
    to_dense,
)
from .rng import rng_for
from .witnesses import hat_family_witness, signed_power_witness

DEFAULT_TOL = 1e-9
HORIZON_EVENTUAL = 30
HORIZON_ASYMPTOTIC = 200
EXTREME_POINT_SUP_CAP = 20
REFUTE_FACTOR = 100.0


class NotClassifiableError(RuntimeError):
    """Raised when spr(T) is numerically zero so the rescaling is undefined."""


class Notion(enum.Enum):
    UNIFORM_EVENTUAL = "uniform-eventual"
    INDIVIDUAL_EVENTUAL = "individual-eventual"
    WEAK_EVENTUAL = "weak-eventual"
    UNIFORM_ASYMPTOTIC = "uniform-asymptotic"
    INDIVIDUAL_ASYMPTOTIC = "individual-asymptotic"
    WEAK_ASYMPTOTIC = "weak-asymptotic"


@dataclass(frozen=True)
class Confirmed:
    n0: int = 0


@dataclass(frozen=True)
class RefutedWithWitness:
    witness: object
    description: str = ""


@dataclass(frozen=True)
class UndeterminedUpToHorizon:
    horizon: int


Status = Union[Confirmed, RefutedWithWitness, UndeterminedUpToHorizon]


@dataclass(frozen=True)
class PositivityVerdict:
    notion: Notion
    status: Status
    decay: tuple = ()
    tolerance: float = DEFAULT_TOL

    @property
    def kind(self) -> str:
        return type(self.status).__name__


@dataclass(frozen=True)
class ConeTestSet:
    vectors: tuple
    functionals: tuple
    provenance: str = "canonical"


# ---------------------------------------------------------------------------
# test set construction


def _normalized_positive(entries: np.ndarray, norm: NormKind) -> LatticeVector:
    v = LatticeVector(np.asarray(entries, dtype=complex), norm)
    nv = norm_value(v)
    if nv > 1.0:
        v = v.with_entries(v.entries / nv)
    return v


def canonical_cone_test_set(
    norm: NormKind, dim: int, seed: int = 0, n_random: int = 16
) -> ConeTestSet:
    """Basis vectors, the all-ones vector, and seeded random positive vectors,
    each normalized into the positive unit ball."""
    vectors = []
    eye = np.eye(dim)
    for j in range(dim):
        vectors.append(_normalized_positive(eye[j], norm))
    vectors.append(_normalized_positive(np.ones(dim), norm))
    rng = rng_for(seed, 1)
    for _ in range(n_random):
        vectors.append(_normalized_positive(rng.uniform(0.0, 1.0, size=dim), norm))
    functionals = tuple(vectors)
    return ConeTestSet(tuple(vectors), functionals, provenance="basis+ones+seeded-random")


def function_space_test_set(
    space: NormKind, seed: int = 0, n_random: int = 16
) -> ConeTestSet:
    """Positive grid functions and positive integral functionals for rank-k
    models on function spaces."""
    nodes = np.asarray(space.nodes, dtype=float)
    dim = len(nodes)
    vectors = [_normalized_positive(np.ones(dim), space)]
    rng = rng_for(seed, 2)
    for _ in range(n_random):
        vectors.append(_normalized_positive(rng.uniform(0.0, 1.0, size=dim), space))
    functionals = [WeightedIntegral(Constant(1.0), 0.5)]
    for _ in range(n_random):
        functionals.append(
            WeightedIntegral(Tabulated(tuple(rng.uniform(0.0, 1.0, size=dim))), 1.0)
        )
    return ConeTestSet(tuple(vectors), tuple(functionals), provenance="ones+seeded-random")


def default_test_set(T: OperatorModel, seed: int = 0) -> ConeTestSet:
    if isinstance(T, RankK):
        return function_space_test_set(T.space, seed)
    return canonical_cone_test_set(T.norm, T.dim, seed)


# ---------------------------------------------------------------------------
# positivity of a single operator


def is_positive_operator(T: OperatorModel, tol: float = DEFAULT_TOL) -> bool:
    if not isinstance(T, RankK):
        return T.is_positive(tol)
    tests = default_test_set(T)
    for x in tests.vectors:
        if cone_distance(apply(T, x)) > tol * max(norm_value(x), 1e-300):
            return False
    if hat_family_witness(T, 1) is not None:
        return False
    for x in tests.vectors:
        if signed_power_witness(T, x, 1) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# eventual notions


def _n0_from_flags(flags: Sequence[bool], base_positive: bool) -> Optional[int]:
    """flags[i] is the sign condition at n = i + 1; returns the least n0 such
    that the condition holds from n0 to the horizon, or None."""
    fails = [i + 1 for i, ok in enumerate(flags) if not ok]
    if not fails:
        return 0 if base_positive else 1
    n0 = fails[-1] + 1
    if n0 > len(flags):
        return None
    return n0


def uniform_eventual(
    T: OperatorModel, horizon: int = HORIZON_EVENTUAL, tol: float = DEFAULT_TOL
) -> PositivityVerdict:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(T, RankK):
        return _uniform_eventual_rank_k(T, horizon, tol)
    A = to_dense(T).matrix
    flags = []
    decay = []
    power = np.eye(A.shape[0], dtype=complex)
    for _ in range(horizon):
        power = power @ A
        scale = max(1.0, float(np.max(np.abs(power))))
        flags.append(entrywise_positive(power, tol * scale))
        neg = np.maximum(-power.real, 0.0)
        decay.append(float(np.max(np.hypot(neg, power.imag))))
    n0 = _n0_from_flags(flags, is_positive_operator(T, tol))
    if n0 is None:
        status: Status = UndeterminedUpToHorizon(horizon)
    else:
        status = Confirmed(n0)
    return PositivityVerdict(Notion.UNIFORM_EVENTUAL, status, tuple(decay), tol)


def _uniform_eventual_rank_k(T: RankK, horizon: int, tol: float) -> PositivityVerdict:
    # an analytic refutation of the individual notion refutes the uniform one
    # a fortiori; check it first, because the quadrature grid cannot see the
    # shrinking region where the singular term goes negative
    ones = LatticeVector(np.ones(T.dim, dtype=complex), T.space)
    analytic = [signed_power_witness(T, ones, n) for n in range(1, horizon + 1)]
    if all(w is not None for w in analytic):
        return PositivityVerdict(
            Notion.UNIFORM_EVENTUAL,
            RefutedWithWitness(
                tuple(analytic),
                "singular-term negativity points persist at every power",
            ),
            tuple(-w.value for w in analytic),
            tol,
        )
    witnesses = []
    decay = []
    grid_ok = []
    A = to_dense(T).matrix
    power = np.eye(A.shape[0], dtype=complex)
    for n in range(1, horizon + 1):
        power = power @ A
        scale = max(1.0, float(np.max(np.abs(power))))
        grid_ok.append(entrywise_positive(power, tol * scale))
        w = hat_family_witness(T, n)
        witnesses.append(w)
        decay.append(0.0 if w is None else -w.value)
    if all(w is not None for w in witnesses):
        # the violation must sharpen as the family parameter shrinks
        monotone = True
        for n in (1, horizon // 2 + 1, horizon):
            eps = 2.0 ** -(n + 1)
            w_full = hat_family_witness(T, n, eps)
            w_half = hat_family_witness(T, n, eps / 2)
            if w_full is None or w_half is None or -w_half.value < -w_full.value:
                monotone = False
                break
        if monotone:
            return PositivityVerdict(
                Notion.UNIFORM_EVENTUAL,
                RefutedWithWitness(
                    tuple(witnesses),
                    "shrinking-hat family keeps a negative value at every power",
                ),
                tuple(decay),
                tol,
            )
    flags = [ok and w is None for ok, w in zip(grid_ok, witnesses)]
    n0 = _n0_from_flags(flags, is_positive_operator(T, tol))
    if n0 is None:
        return PositivityVerdict(
            Notion.UNIFORM_EVENTUAL, UndeterminedUpToHorizon(horizon), tuple(decay), tol
        )
    return PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(n0), tuple(decay), tol)


def individual_eventual(
    T: OperatorModel,
    tests: Optional[ConeTestSet] = None,
    horizon: int = HORIZON_EVENTUAL,
    tol: float = DEFAULT_TOL,
) -> PositivityVerdict:
    if tests is None:
        tests = default_test_set(T)
    # analytic refutation first: a persistent singular-term witness beats any
    # grid-level decay (the grid cannot see the shrinking negativity region)
    if isinstance(T, RankK):
        for x in tests.vectors:
            ws = [signed_power_witness(T, x, n) for n in range(1, horizon + 1)]
            if all(w is not None for w in ws):
                return PositivityVerdict(
                    Notion.INDIVIDUAL_EVENTUAL,
                    RefutedWithWitness(
                        tuple(ws),
                        "singular-term negativity points persist at every power",
                    ),
                    tuple(-w.value for w in ws),
                    tol,
                )
    worst_decay = np.zeros(horizon)
    n0s = []
    for x in tests.vectors:
        scale = max(norm_value(x), 1e-300)
        flags = []
        for n in range(1, horizon + 1):
            d = cone_distance(power_apply(T, n, x))
            worst_decay[n - 1] = max(worst_decay[n - 1], d / scale)
            flags.append(d <= tol * scale)
        n0 = _n0_from_flags(flags, cone_distance(x) <= tol * scale)
        if n0 is None:
            return PositivityVerdict(
                Notion.INDIVIDUAL_EVENTUAL,
                UndeterminedUpToHorizon(horizon),
                tuple(worst_decay),
                tol,
            )
        n0s.append(n0)
    return PositivityVerdict(
        Notion.INDIVIDUAL_EVENTUAL, Confirmed(max(n0s, default=0)), tuple(worst_decay), tol
    )


def _diagonal_weak_refutation(
    T: Diagonal, tests: ConeTestSet, tol: float
) -> Optional[tuple]:
    """A pair whose pairing provably alternates in sign forever: the dominant
    active symbol entry is strictly negative real."""
    for i, x in enumerate(tests.vectors):
        for j, xp in enumerate(tests.functionals):
            coeff = (x.entries * xp.entries).real
            active = np.abs(coeff) > tol
            if not np.any(active):
                continue
            mods = np.abs(T.symbol)
            mods_active = np.where(active, mods, -np.inf)
            k = int(np.argmax(mods_active))
            s = T.symbol[k]
            others = mods_active.copy()
            others[k] = -np.inf
            max_other = float(np.max(others))
            dominant = max_other < 0 or mods[k] > max_other * (1 + 1e-9)
            if s.real < -tol and abs(s.imag) <= tol and coeff[k] > 0 and dominant:
                return (i, j, k)
    return None


def weak_eventual(
    T: OperatorModel,
    tests: Optional[ConeTestSet] = None,
    horizon: int = HORIZON_EVENTUAL,
    tol: float = DEFAULT_TOL,
) -> PositivityVerdict:
    if tests is None:
        tests = default_test_set(T)
    if isinstance(T, Diagonal):
        hit = _diagonal_weak_refutation(T, tests, tol)
        if hit is not None:
            i, j, k = hit
            return PositivityVerdict(
                Notion.WEAK_EVENTUAL,
                RefutedWithWitness(
                    (tests.vectors[i], tests.functionals[j]),
                    f"dominant symbol entry {T.symbol[k]} keeps the pairing "
                    "alternating in sign",
                ),
                (),
                tol,
            )
    values = _pairing_table(T, tests, horizon)[1:]
    worst_decay = []
    bad = (values.real < -tol) | (np.abs(values.imag) > tol)
    for n in range(horizon):
        neg = np.maximum(-values[n].real, 0.0)
        worst_decay.append(float(np.max(np.hypot(neg, values[n].imag))))
    n0s = []
    for i in range(values.shape[1]):
        for j in range(values.shape[2]):
            flags = [not bad[n, i, j] for n in range(horizon)]
            n0 = _n0_from_flags(flags, True)
            if n0 is None:
                return PositivityVerdict(
                    Notion.WEAK_EVENTUAL,
                    UndeterminedUpToHorizon(horizon),
                    tuple(worst_decay),
                    tol,
                )
            n0s.append(n0)
    return PositivityVerdict(
        Notion.WEAK_EVENTUAL, Confirmed(max(n0s, default=0)), tuple(worst_decay), tol
    )


# ---------------------------------------------------------------------------
# asymptotic notions


@dataclass(frozen=True)
class ExtremePoints:
    pass


@dataclass(frozen=True)
class MonteCarlo:
    samples: int = 64
    seed: int = 0


Strategy = Union[ExtremePoints, MonteCarlo]


class StrategyUnavailableError(RuntimeError):
    pass


def scale_model(T: OperatorModel, c: float) -> OperatorModel:
    return T.scaled(c)


def spectral_radius_of(T: OperatorModel) -> float:
    return T.spectral_radius()


def _cone_distances_columns(M: np.ndarray, norm: NormKind) -> np.ndarray:
    neg = np.maximum(-M.real, 0.0)
    residual = np.hypot(neg, M.imag)
    if isinstance(norm, Ell1):
        return residual.sum(axis=0)
    if isinstance(norm, Ell2):
        return np.sqrt((residual**2).sum(axis=0))
    if isinstance(norm, (EllInf, GridSup)):
        return residual.max(axis=0)
    if isinstance(norm, LpQuadrature):
        w = np.asarray(norm.weights, dtype=float)[:, None]
        return (w * residual**norm.p).sum(axis=0) ** (1.0 / norm.p)
    raise OperatorError(f"unknown norm kind {norm!r}")


def delta_n(
    T: OperatorModel,
    n: int,
    strategy: Strategy = ExtremePoints(),
    spr: Optional[float] = None,
) -> tuple:
    """sup over the positive unit ball of d+( (T/spr)^n x ).

    Returns (value, witness_vector, exact) where exact is True for the
    extreme-point enumeration and False for the Monte Carlo lower bound.
    """
    if spr is None:
        spr = spectral_radius_of(T)
    if spr <= 0:
        raise NotClassifiableError("spectral radius is zero; rescaling undefined")
    S = scale_model(T, 1.0 / spr)
    A = to_dense(S).matrix
    power = np.linalg.matrix_power(A, n)
    norm = T.norm
    if isinstance(strategy, ExtremePoints):
        if isinstance(norm, Ell1):
            dists = _cone_distances_columns(power, norm)
            j = int(np.argmax(dists))
            e = np.zeros(A.shape[0])
            e[j] = 1.0
            return float(dists[j]), LatticeVector(e, norm), True
        if isinstance(norm, (EllInf, GridSup)):
            dim = A.shape[0]
            if dim > EXTREME_POINT_SUP_CAP:
                raise StrategyUnavailableError(
                    f"0/1-vector enumeration needs dim <= {EXTREME_POINT_SUP_CAP}"
                )
            best = (0.0, np.zeros(dim))
            for mask in range(1, 2**dim):
                bits = np.array([(mask >> k) & 1 for k in range(dim)], dtype=float)
                y = power @ bits
                d = float(_cone_distances_columns(y[:, None], norm)[0])
                if d > best[0]:
                    best = (d, bits)
            return best[0], LatticeVector(best[1], norm), True
        raise StrategyUnavailableError(
            f"no finite extreme-point set for norm {norm!r}; use MonteCarlo"
        )
    rng = rng_for(strategy.seed, n)
    dim = A.shape[0]
    best_val = 0.0
    best_vec = np.zeros(dim)
    for _ in range(strategy.samples):
        x = rng.uniform(0.0, 1.0, size=dim)
        nv = norm_value(LatticeVector(x, norm))
        if nv > 0:
            x = x / nv
        d = float(_cone_distances_columns((power @ x)[:, None], norm)[0])
        if d > best_val:
            best_val, best_vec = d, x
    # coordinate-ascent refinement around the best sample
    for _ in range(2):
        for k in range(dim):
            for factor in (0.0, 0.5, 2.0):
                trial = best_vec.copy()
                trial[k] *= factor
                nv = norm_value(LatticeVector(trial, norm))
                if nv > 1.0:
                    trial = trial / nv
                d = float(_cone_distances_columns((power @ trial)[:, None], norm)[0])
                if d > best_val:
                    best_val, best_vec = d, trial
    return best_val, LatticeVector(best_vec, norm), False


def _tail_verdict(
    notion: Notion,
    decay: np.ndarray,
    tol: float,
    horizon: int,
    witness,
) -> PositivityVerdict:
    q = max(1, horizon // 4)
    tail = decay[-q:]
    prev = decay[-2 * q : -q] if horizon >= 2 * q else decay[:q]
    if np.max(tail) <= tol:
        return PositivityVerdict(notion, Confirmed(0), tuple(decay), tol)
    if np.max(tail) >= REFUTE_FACTOR * tol and np.max(tail) >= 0.9 * np.max(prev):
        return PositivityVerdict(
            notion,
            RefutedWithWitness(witness, "tail of the decay sequence does not decay"),
            tuple(decay),
            tol,
        )
    return PositivityVerdict(notion, UndeterminedUpToHorizon(horizon), tuple(decay), tol)


def classify_asymptotic(
    T: OperatorModel,
    horizon: int = HORIZON_ASYMPTOTIC,
    tol: float = DEFAULT_TOL,
    tests: Optional[ConeTestSet] = None,
) -> tuple:
    """(uniform, individual, weak) asymptotic verdicts with decay sequences."""
    spr = spectral_radius_of(T)
    if spr <= tol:
        raise NotClassifiableError(
            f"spectral radius {spr:.3e} is below tolerance; rescaling undefined"
        )
    if tests is None:
        tests = default_test_set(T)
    S = scale_model(T, 1.0 / spr)
    A = to_dense(S).matrix
    norm = T.norm
    dim = A.shape[0]

    use_extreme = isinstance(norm, Ell1) or (
        isinstance(norm, (EllInf, GridSup)) and dim <= EXTREME_POINT_SUP_CAP
    )
    uniform_decay = np.zeros(horizon + 1)
    uniform_witness = None
    X = np.stack([x.entries for x in tests.vectors], axis=1)
    ind_decay = np.zeros((horizon + 1, X.shape[1]))
    power = np.eye(dim, dtype=complex)
    mc_rng = rng_for(0, 99)
    mc_samples = np.stack(
        [
            _normalized_positive(mc_rng.uniform(0.0, 1.0, size=dim), norm).entries
            for _ in range(32)
        ],
        axis=1,
    )
    uniform_arg = np.zeros(horizon + 1, dtype=int)
    for n in range(horizon + 1):
        if n > 0:
            power = power @ A
        if use_extreme and isinstance(norm, Ell1):
            dists = _cone_distances_columns(power, norm)
            j = int(np.argmax(dists))
            uniform_arg[n] = j
            uniform_decay[n] = float(dists[j])
        elif use_extreme:
            val, wit, _ = delta_n(T, n, ExtremePoints(), spr=spr)
            uniform_decay[n] = val
            uniform_witness = wit
        else:
            cand = np.concatenate([power @ X, power @ mc_samples], axis=1)
            dists = _cone_distances_columns(cand, norm)
            uniform_decay[n] = float(np.max(dists))
            uniform_witness = "monte-carlo lower bound"
        ind_decay[n] = _cone_distances_columns(power @ X, norm)

    if use_extreme and isinstance(norm, Ell1):
        j = int(uniform_arg[int(np.argmax(uniform_decay))])
        e = np.zeros(dim)
        e[j] = 1.0
        uniform_witness = LatticeVector(e, norm)

    scales = np.array([max(norm_value(x), 1e-300) for x in tests.vectors])
    ind_decay = ind_decay / scales[None, :]
    ind_worst = int(np.argmax(ind_decay[-max(1, horizon // 4) :].max(axis=0)))

    weak_table = _pairing_table(S, tests, horizon)
    neg = np.maximum(-weak_table.real, 0.0)
    weak_dist = np.hypot(neg, weak_table.imag)  # scalar cone distance per pairing
    weak_decay = weak_dist.reshape(weak_dist.shape[0], -1).max(axis=1)
    flat_tail = weak_dist[-max(1, horizon // 4) :].max(axis=0)
    wi, wj = np.unravel_index(int(np.argmax(flat_tail)), flat_tail.shape)

    uniform = _tail_verdict(
        Notion.UNIFORM_ASYMPTOTIC, uniform_decay, tol, horizon, uniform_witness
    )
    individual = _tail_verdict(
        Notion.INDIVIDUAL_ASYMPTOTIC,
        ind_decay.max(axis=1),
        tol,
        horizon,
        tests.vectors[ind_worst],
    )
    weak = _tail_verdict(
        Notion.WEAK_ASYMPTOTIC,
        weak_decay,
        tol,
        horizon,
        (tests.vectors[wi], tests.functionals[wj]),
    )
    return uniform, individual, weak


def _pairing_table(S: OperatorModel, tests: ConeTestSet, horizon: int):
    """values[n, i, j] = <x'_j, S^n x_i> for n = 0..horizon."""
    if isinstance(S, RankK):
        C = np.stack([S.coefficients(x.entries) for x in tests.vectors])
        D = np.stack(
            [
                np.array([apply_functional(phi, f, S.space) for f in S.functions])
                for phi in tests.functionals
            ]
        )
        R = np.stack([quadrature_row(phi, S.space) for phi in tests.functionals])
        X = np.stack([x.entries for x in tests.vectors])
        lam = S.eigen_parameters
        out = np.empty((horizon + 1, len(tests.vectors), len(tests.functionals)), dtype=complex)
        out[0] = X @ R.T
        for n in range(1, horizon + 1):
            out[n] = (C * lam[None, :] ** (n - 1)) @ D.T
        return out
    A = to_dense(S).matrix
    X = np.stack([x.entries for x in tests.vectors], axis=1)
    Xp = np.stack([f.entries for f in tests.functionals], axis=1)
    out = np.empty((horizon + 1, X.shape[1], Xp.shape[1]), dtype=complex)
    Y = X
    out[0] = Y.T @ Xp
    for n in range(1, horizon + 1):
        Y = A @ Y
        out[n] = Y.T @ Xp
    return out


# ---------------------------------------------------------------------------
# hierarchy consistency


_EVENTUAL_CHAIN = (Notion.UNIFORM_EVENTUAL, Notion.INDIVIDUAL_EVENTUAL, Notion.WEAK_EVENTUAL)
_ASYMPTOTIC_CHAIN = (
    Notion.UNIFORM_ASYMPTOTIC,
    Notion.INDIVIDUAL_ASYMPTOTIC,
    Notion.WEAK_ASYMPTOTIC,
)


def hierarchy_violations(verdicts: Sequence[PositivityVerdict]) -> list:
    """A Confirmed verdict sitting above a Refuted one in either implication
    chain is a hard failure; returns the offending (upper, lower) pairs."""
    by_notion = {v.notion: v for v in verdicts}
    bad = []
    for chain in (_EVENTUAL_CHAIN, _ASYMPTOTIC_CHAIN):
        for hi in range(len(chain)):
            for lo in range(hi + 1, len(chain)):
                upper = by_notion.get(chain[hi])
                lower = by_notion.get(chain[lo])
                if upper is None or lower is None:
                    continue
                if isinstance(upper.status, Confirmed) and isinstance(
                    lower.status, RefutedWithWitness
                ):
                    bad.append((upper.notion.value, lower.notion.value))
    return bad
