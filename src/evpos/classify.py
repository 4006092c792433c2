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
    EllInf,
    GridSup,
    LatticeVector,
    NormKind,
    cone_distance,
    cone_distances,
    cone_residual,
    norm_of_moduli,
    norm_value,
)
from .operators import (
    Diagonal,
    OperatorModel,
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


def _flag_verdict(notion, flags, base_positive, decay, horizon, tol) -> PositivityVerdict:
    n0 = _n0_from_flags(flags, base_positive)
    status = UndeterminedUpToHorizon(horizon) if n0 is None else Confirmed(n0)
    return PositivityVerdict(notion, status, tuple(decay), tol)


def _columns(vectors) -> np.ndarray:
    return np.stack([x.entries for x in vectors], axis=1)


def _orbit_start(X: np.ndarray, powers: bool) -> tuple:
    """(Y, k): an orbit's first block, with the test vectors X from column k.
    With powers, its first dim columns are the identity: a test set that
    starts with the basis vectors is its own identity block."""
    dim = X.shape[0]
    k = 0 if not powers or np.array_equal(X[:, :dim], np.eye(dim)) else dim
    return np.concatenate([np.eye(dim)[:, :k], X], axis=1), k


def _singular_refutation(T, vectors, notion, horizon, tol) -> Optional[PositivityVerdict]:
    """Refuted when the singular-term witness of some vector persists at every
    power: a fixed grid cannot see the shrinking region where it goes
    negative, so this analytic refutation comes before any grid decay."""
    if not isinstance(T, RankK):
        return None
    for x in vectors:
        ws = [signed_power_witness(T, x, n) for n in range(1, horizon + 1)]
        if all(w is not None for w in ws):
            return PositivityVerdict(
                notion,
                RefutedWithWitness(
                    tuple(ws), "singular-term negativity points persist at every power"
                ),
                tuple(-w.value for w in ws),
                tol,
            )
    return None


def _uniform_verdict(T, grid_ok, grid_decay, horizon, tol) -> PositivityVerdict:
    """From the entrywise test of each power T^n, n = 1..horizon; a rank-k
    model adds its shrinking-hat witnesses, which refute when they persist
    and sharpen."""
    flags, decay = grid_ok, grid_decay
    if isinstance(T, RankK):
        witnesses = [hat_family_witness(T, n) for n in range(1, horizon + 1)]
        decay = [0.0 if w is None else -w.value for w in witnesses]
        if all(w is not None for w in witnesses) and _hat_family_sharpens(T, horizon):
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
    return _flag_verdict(
        Notion.UNIFORM_EVENTUAL, flags, is_positive_operator(T, tol), decay, horizon, tol
    )


def _hat_family_sharpens(T: RankK, horizon: int) -> bool:
    """The violation must sharpen as the family parameter shrinks."""
    for n in (1, horizon // 2 + 1, horizon):
        eps = 2.0 ** -(n + 1)
        w_full = hat_family_witness(T, n, eps)
        w_half = hat_family_witness(T, n, eps / 2)
        if w_full is None or w_half is None or -w_half.value < -w_full.value:
            return False
    return True


def _individual_verdict(tests: ConeTestSet, dists: np.ndarray, horizon, tol):
    """dists[n, i] = d+(T^n x_i) for n = 0..horizon. The vectors are taken in
    order: the first one still off the cone at the horizon makes the verdict
    undetermined, and the decay is then the worst up to that vector."""
    scales = np.array([max(norm_value(x), 1e-300) for x in tests.vectors])
    ok = dists <= tol * scales
    worst = dists[1:] / scales
    stuck = np.flatnonzero(~ok[-1])
    if stuck.size:
        status, worst = UndeterminedUpToHorizon(horizon), worst[:, : stuck[0] + 1]
    else:
        n0s = [_n0_from_flags(ok[1:, i], ok[0, i]) for i in range(len(scales))]
        status = Confirmed(max(n0s, default=0))
    decay = np.max(worst, axis=1, initial=0.0)
    return PositivityVerdict(Notion.INDIVIDUAL_EVENTUAL, status, tuple(decay), tol)


def classify_eventual(
    T: OperatorModel,
    horizon: int = HORIZON_EVENTUAL,
    tol: float = DEFAULT_TOL,
    tests: Optional[ConeTestSet] = None,
) -> tuple:
    """(uniform, individual, weak) eventual verdicts from one orbit of T whose
    blocks hold the powers T^n (uniform notion) next to T^n of the test
    vectors (the other two; see _orbit_start). Each block's cone residual is
    taken once; distances, grid decay and coordinate pairings come from it."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if tests is None:
        tests = default_test_set(T)
    ones = LatticeVector(np.ones(T.dim, dtype=complex), T.norm)
    uniform = _singular_refutation(T, (ones,), Notion.UNIFORM_EVENTUAL, horizon, tol)
    individual = _singular_refutation(T, tests.vectors, Notion.INDIVIDUAL_EVENTUAL, horizon, tol)
    weak = _diagonal_weak_refutation(T, tests, tol) if isinstance(T, Diagonal) else None
    Y, k = _orbit_start(_columns(tests.vectors), uniform is None)
    c, pair = _pairings(T, tests)
    grid_ok, grid_decay, dists, weak_ok, weak_decay = [], [], [], [], []
    for n, Z in enumerate(T.orbit(Y, horizon)):
        R = cone_residual(Z)
        dists.append(norm_of_moduli(R[:, k:], T.norm))
        if n == 0:
            continue
        if uniform is None:
            power = Z[:, : T.dim]
            scale = max(1.0, float(np.abs(power).max()))
            grid_ok.append(entrywise_positive(power, tol * scale))
            grid_decay.append(float(R[:, : T.dim].max()))
        values = pair(n, Z[:, k:])
        weak_ok.append(entrywise_positive(Z[:c, k:], tol) and entrywise_positive(values, tol))
        coord_max = R[:c, k:].max(initial=0.0)
        weak_decay.append(float(cone_residual(values).max(initial=coord_max)))
        del R  # a power-sized block: free it before the orbit makes the next one
    if uniform is None:
        uniform = _uniform_verdict(T, grid_ok, grid_decay, horizon, tol)
    if individual is None:
        individual = _individual_verdict(tests, np.array(dists), horizon, tol)
    if weak is None:
        weak = _flag_verdict(Notion.WEAK_EVENTUAL, weak_ok, True, weak_decay, horizon, tol)
    return uniform, individual, weak


def uniform_eventual(
    T: OperatorModel, horizon: int = HORIZON_EVENTUAL, tol: float = DEFAULT_TOL
) -> PositivityVerdict:
    return classify_eventual(T, horizon, tol)[0]


def individual_eventual(
    T: OperatorModel,
    tests: Optional[ConeTestSet] = None,
    horizon: int = HORIZON_EVENTUAL,
    tol: float = DEFAULT_TOL,
) -> PositivityVerdict:
    """The individual notion alone, one vector at a time: each orbit is
    stepped with power_apply. classify_eventual reads the same orbits from
    one block product per step, so the two paths check each other."""
    if tests is None:
        tests = default_test_set(T)
    refuted = _singular_refutation(T, tests.vectors, Notion.INDIVIDUAL_EVENTUAL, horizon, tol)
    if refuted is not None:
        return refuted
    dists = np.empty((horizon + 1, len(tests.vectors)))
    for i, x in enumerate(tests.vectors):
        for n in range(horizon + 1):
            x = power_apply(T, 1, x) if n else x
            dists[n, i] = cone_distance(x)
    return _individual_verdict(tests, dists, horizon, tol)


def _diagonal_weak_refutation(
    T: Diagonal, tests: ConeTestSet, tol: float
) -> Optional[PositivityVerdict]:
    """Refuted by a pair whose pairing provably alternates in sign forever:
    the dominant active symbol entry is strictly negative real."""
    for x in tests.vectors:
        for xp in tests.functionals:
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
                return PositivityVerdict(
                    Notion.WEAK_EVENTUAL,
                    RefutedWithWitness(
                        (x, xp),
                        f"dominant symbol entry {s} keeps the pairing alternating in sign",
                    ),
                    (),
                    tol,
                )
    return None


def weak_eventual(
    T: OperatorModel,
    tests: Optional[ConeTestSet] = None,
    horizon: int = HORIZON_EVENTUAL,
    tol: float = DEFAULT_TOL,
) -> PositivityVerdict:
    return classify_eventual(T, horizon, tol, tests)[2]


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
            dists = cone_distances(power, norm)
            j = int(np.argmax(dists))
            return float(dists[j]), LatticeVector(np.eye(A.shape[0])[j], norm), True
        if isinstance(norm, (EllInf, GridSup)):
            if A.shape[0] > EXTREME_POINT_SUP_CAP:
                raise StrategyUnavailableError(
                    f"0/1-vector enumeration needs dim <= {EXTREME_POINT_SUP_CAP}"
                )
            value, bits = _sup_over_vertices(power, norm)
            return value, LatticeVector(bits, norm), True
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
        d = float(cone_distances(power @ x, norm))
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
                d = float(cone_distances(power @ trial, norm))
                if d > best_val:
                    best_val, best_vec = d, trial
    return best_val, LatticeVector(best_vec, norm), False


def _sup_over_vertices(power: np.ndarray, norm: NormKind) -> tuple:
    """(max of d+(power @ v) over the 0/1 vectors v, the first maximiser): the
    positive unit ball of a sup norm is the convex hull of those vectors. The
    vectors go through in blocks of 4096 columns."""
    dim = power.shape[1]
    best = (0.0, np.zeros(dim))
    for start in range(0, 2**dim, 4096):
        masks = np.arange(start, min(start + 4096, 2**dim))
        bits = ((masks >> np.arange(dim)[:, None]) & 1).astype(float)
        dists = cone_distances(power @ bits, norm)
        j = int(np.argmax(dists))
        if dists[j] > best[0]:
            best = (float(dists[j]), bits[:, j])
    return best


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
    """(uniform, individual, weak) asymptotic verdicts with decay sequences,
    from one orbit of T/spr whose blocks hold the powers too (l1, and sup
    norms of at most EXTREME_POINT_SUP_CAP nodes; see _orbit_start), or Monte
    Carlo samples after the test vectors. Each block's residual is taken once."""
    spr = spectral_radius_of(T)
    if spr <= tol:
        raise NotClassifiableError(
            f"spectral radius {spr:.3e} is below tolerance; rescaling undefined"
        )
    if tests is None:
        tests = default_test_set(T)
    S = scale_model(T, 1.0 / spr)
    norm = T.norm
    dim = T.dim
    ell1 = isinstance(norm, Ell1)
    vertices = isinstance(norm, (EllInf, GridSup)) and dim <= EXTREME_POINT_SUP_CAP
    Y, k = _orbit_start(_columns(tests.vectors), ell1 or vertices)
    if not (ell1 or vertices):
        mc_rng = rng_for(0, 99)
        samples = _columns(
            _normalized_positive(mc_rng.uniform(0.0, 1.0, size=dim), norm) for _ in range(32)
        )
        Y = np.concatenate([Y, samples], axis=1)
        uniform_witness = "monte-carlo lower bound"
    nx = len(tests.vectors)
    cols = slice(k, k + nx)
    q = max(1, horizon // 4)
    c, pair = _pairings(S, tests)
    uniform_decay = np.zeros(horizon + 1)
    ind_decay = np.zeros((horizon + 1, nx))
    weak_decay = np.zeros(horizon + 1)
    coord_tail = rest_tail = 0.0  # per pairing, the largest residual in the tail
    for n, Z in enumerate(S.orbit(Y, horizon)):
        R = cone_residual(Z)
        dists = norm_of_moduli(R, norm)
        ind_decay[n] = dists[cols]
        if vertices:
            uniform_decay[n], bits = _sup_over_vertices(Z[:, :dim], norm)
            uniform_witness = LatticeVector(bits, norm)
        elif ell1:  # the witness is the worst basis vector at the worst power
            j = int(np.argmax(dists[:dim]))
            uniform_decay[n] = dists[j]
            if n == 0 or uniform_decay[n] > uniform_decay[:n].max():
                uniform_witness = LatticeVector(Y[:, j], norm)
        else:
            uniform_decay[n] = float(dists.max())
        coord, rest = R[:c, cols].T, cone_residual(pair(n, Z[:, cols]))
        weak_decay[n] = rest.max(initial=coord.max(initial=0.0))
        if n > horizon - q:
            coord_tail = np.maximum(coord_tail, coord)
            rest_tail = np.maximum(rest_tail, rest)
    weak_tail = np.concatenate([coord_tail, rest_tail], axis=1)

    scales = np.array([max(norm_value(x), 1e-300) for x in tests.vectors])
    ind_decay = ind_decay / scales[None, :]
    ind_worst = int(np.argmax(ind_decay[-q:].max(axis=0)))
    wi, wj = np.unravel_index(int(np.argmax(weak_tail)), weak_tail.shape)

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


def _pairings(S: OperatorModel, tests: ConeTestSet):
    """(c, pair): the first c test functionals are e_1..e_c, read from the
    orbit block; pair(n, block)[i, j] = <x'_(c+j), S^n x_i> for the rest, with
    S^n x_i in the block's columns. A rank-k model pairs in closed form
    (c = 0), with the exact pairings <x'_j, f> of its functions."""
    if not isinstance(S, RankK):
        Xp = _columns(tests.functionals)
        c = S.dim if np.array_equal(Xp[:, : S.dim], np.eye(S.dim)) else 0
        return c, lambda n, block: block.T @ Xp[:, c:]
    C = np.stack([S.coefficients(x.entries) for x in tests.vectors])
    D = np.array(
        [[apply_functional(phi, f, S.space) for f in S.functions] for phi in tests.functionals]
    )
    R = np.stack([quadrature_row(phi, S.space) for phi in tests.functionals])
    lam = S.eigen_parameters
    return 0, lambda n, block: block.T @ R.T if n == 0 else (C * lam ** (n - 1)) @ D.T


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
