"""Classification of operators in the eventual/asymptotic positivity hierarchy.

Six notions: powers become positive as operators, per positive vector, or per
positive (vector, functional) pairing; and the asymptotic variants where the
rescaled powers approach the cone in the distance-to-cone sense.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .lattice import (
    Ell1,
    LatticeVector,
    LpQuadrature,
    NormKind,
    cone_distance,
    cone_distances,
    cone_residual,
    norm_value,
)
from .operators import (
    Dense,
    Diagonal,
    Monomial,
    OperatorModel,
    RankK,
    SignedPower,
    WeightedIntegral,
    WeightedShift,
    power_apply,
    to_dense,
)
from . import spectral
from .record import Record
from .witnesses import face_witness, hat_limit_witnesses, signed_power_witness

DEFAULT_TOL = 1e-9
# the powers that the brute-force reference `individual_eventual` steps
HORIZON_EVENTUAL = 30
# rows of a rank-k limit point formed at a time, so none is dim x dim
LIMIT_POINT_ROWS = 64
# the most limit points L_r that the rule for a peripheral pole of order
# m > 1 forms: every period p = lcm(q) of root orders q <= 8 is read in full
MAX_PERIOD = 840
# the most (window start, window length) pairs that one tile of the shift
# rule holds, unless a single length has more starts: its complex phases
# take 256 KiB
SHIFT_TILE = 2**14
# the most entries of the powers that one block of `_power_failure` holds,
# unless a single power has more: a complex block takes 256 KiB
POWER_TILE = 2**14
# the most powers that the tail certificate of a `Dense` or rank-k eventual
# trio tests directly, and the largest power m of N = S - L_1 that the
# `Dense` one forms
MAX_TAIL = 512
# a certificate confirms only limit-point entries above this multiple of
# their rounding: n eps sum_k ||P_k||_F^2 (see `_peripheral_status`) for a
# `Dense`, `_term_rounding` for a rank-k model
MARGIN_ROUNDINGS = 100
# a norm of a power of N past which the certificate stops squaring: far
# inside the float range, so the next square cannot overflow
NORM_CEILING = 1e100
EPS = float(np.finfo(float).eps)


class NotClassifiableError(RuntimeError):
    """Raised when spr(T) is zero, so the rescaling by 1/spr is undefined."""


class Notion(enum.Enum):
    UNIFORM_EVENTUAL = "uniform-eventual"
    INDIVIDUAL_EVENTUAL = "individual-eventual"
    WEAK_EVENTUAL = "weak-eventual"
    UNIFORM_ASYMPTOTIC = "uniform-asymptotic"
    INDIVIDUAL_ASYMPTOTIC = "individual-asymptotic"
    WEAK_ASYMPTOTIC = "weak-asymptotic"


# each chain runs from the strongest notion to the weakest
_EVENTUAL_CHAIN, _ASYMPTOTIC_CHAIN = tuple(Notion)[:3], tuple(Notion)[3:]


class Confirmed(Record):
    n0: int = 0


class RefutedWithWitness(Record):
    witness: object
    description: str = ""


class UndeterminedUpToHorizon(Record):
    horizon: int


Status = Union[Confirmed, RefutedWithWitness, UndeterminedUpToHorizon]


class PositivityVerdict(Record):
    notion: Notion
    status: Status


# ---------------------------------------------------------------------------
# eventual notions


def _last_failure(flags) -> int:
    """flags yields a notion's test at n = 1, 2, ...: one past the last n at
    which it fails, or 0 when none does. T^0 = I keeps a positive vector
    positive, so n0 = 0 and n0 = 1 say the same."""
    last = max((n for n, ok in enumerate(flags, 1) if not ok), default=0)
    return last + 1 if last else 0


def _power_failure(B: np.ndarray, n_t: int) -> int:
    """`_last_failure` of the grid test on B^n for n < n_t: every entry of
    the power lies within DEFAULT_TOL max|B^n| of the nonnegative reals.
    Each power is P_n = P_(n-1) @ B, formed into a block of at most
    POWER_TILE entries, and at least one power, so memory stays O(dim^2);
    each block is tested with a few reductions over its powers at once
    (`_block_passes`)."""
    dim = len(B)
    per_block = max(1, POWER_TILE // (dim * dim))
    n0, n, P = 0, 1, None
    while n < n_t:
        count = min(per_block, n_t - n)
        block = np.empty((count, dim, dim), dtype=B.dtype)
        for t in range(count):
            if P is None:
                block[t] = B
            else:
                np.matmul(P, B, out=block[t])
            P = block[t]
        failed = (~_block_passes(block.reshape(count, -1))).nonzero()[0]
        if failed.size:
            n0 = n + int(failed[-1]) + 1
        n += count
    return n0


def _block_passes(P: np.ndarray) -> np.ndarray:
    """The grid test of each row of P, a power's entries: a real row is
    decided from its least and largest entries alone, as
    max|P| = max(max P, -min P), and where -min P is the larger,
    min P < -DEFAULT_TOL |min P| fails the test as min P < -DEFAULT_TOL max P
    does. A complex row passes when its least real part and its largest
    imaginary modulus are within tol = DEFAULT_TOL max|P|. A NaN
    propagates, and fails the test."""
    if P.dtype.kind == "c":
        tol = DEFAULT_TOL * np.maximum.reduce(np.abs(P), axis=1)
        low = np.minimum.reduce(P.real, axis=1) >= -tol
        return low & (np.maximum.reduce(np.abs(P.imag), axis=1) <= tol)
    return np.minimum.reduce(P, axis=1) >= -DEFAULT_TOL * np.maximum.reduce(P, axis=1)


def _singular_refutation(T, vectors) -> Optional[PositivityVerdict]:
    """Refuted by the first vector x (given by its entries) whose singular
    term persists, with no horizon: for a rank-2 model
    T^n x = a + lam_2^(n-1) b f_2, with b = <phi_2, x> and
    f_2 = sgn(t)|t|^alpha, alpha < 0 (checked first, as no other f_2 has a
    witness; `signed_power_witness` checks that a and b are real). With
    lam_2 != 0 and b != 0 the singular term near 0 is, at every power,
    non-real or arbitrarily large of both signs, which a fixed grid cannot
    see, so this comes before any grid test. b counts only beyond its
    rounding, dim eps sum_j |row_j| |x_j|: the constant-one vector of
    `ex2.2b` pairs to 0 with phi_2 by symmetry, and to -6.9e-18 in floating
    point. The witness is the negativity point of T x."""
    if not isinstance(T, RankK) or T.rank != 2 or T.eigen_parameters[1] == 0:
        return None
    f_2 = T.functions[1]
    if not (isinstance(f_2, SignedPower) and f_2.exponent < 0):
        return None
    row = T.rows[1]
    size = np.abs(row)
    for x in vectors:
        rounding = T.dim * EPS * float(size @ np.abs(x))
        if abs(row @ x) <= rounding:
            continue
        witness = signed_power_witness(T, LatticeVector(x, T.norm), 1)
        if witness is not None:
            return PositivityVerdict(
                Notion.INDIVIDUAL_EVENTUAL,
                RefutedWithWitness(
                    witness, "singular-term negativity points persist at every power"
                ),
            )
    return None


def _hat_refutation(T: RankK) -> Optional[PositivityVerdict]:
    """Refuted from the limit of the shrinking-hat family as its width goes
    to 0 (`hat_limit_witnesses`), with no horizon."""
    witnesses = hat_limit_witnesses(T)
    if witnesses is None:
        return None
    return PositivityVerdict(
        Notion.UNIFORM_EVENTUAL,
        RefutedWithWitness(
            witnesses, "shrinking-hat family keeps a negative value at every power"
        ),
    )


def classify_eventual(T: OperatorModel, limit: Optional[LimitStatus] = None) -> tuple:
    """(uniform, individual, weak) eventual verdicts, none with a horizon: a
    rank-k model's by witnesses and certificates read from its factors. A
    finite model's basis vectors generate the positive cone, and
    <e_i, T^n e_j> is the entry (T^n)_ij, so its notions coincide: one
    status, by exact rule. `limit` is the limit status that the asymptotic
    trio of the same classification reads; one is made when not given."""
    if limit is None:
        limit = LimitStatus(T)
    if isinstance(T, RankK):
        return _rank_k_eventual(T, limit)
    if isinstance(T, Diagonal):
        status = _diagonal_status(T)
    elif isinstance(T, WeightedShift):
        status = _shift_status(T)
    else:
        status = _dense_status(T, limit)
    return _one_status(_EVENTUAL_CHAIN, status)


def _one_status(chain, status) -> tuple:
    """A trio whose notions coincide: one status."""
    return tuple(PositivityVerdict(n, status) for n in chain)


def _dense_status(T: Dense, limit: LimitStatus) -> Status:
    """In this order, and with no horizon:
    1. An exactly nonnegative real matrix is confirmed at n0 = 0 with no
       spectrum, as products and sums of nonnegative floats stay
       nonnegative. (A test within tol is not enough: [[1, -1e-10], [0, 1]]
       and its first ten powers pass it, the 11th power does not.)
    2. At spr = 0, T is nilpotent, so T^dim = 0 and only the powers below
       it are tested (`_power_failure`).
    3. A refuted limit status refutes the trio with the same witness, as
       each eventual notion implies its asymptotic one.
    4. A confirmed one decides by `_tail_certificate`, when that applies.
    5. Anything else, a solver failure included, is undetermined, with
       horizon 0 as no power beyond the certificate's is read."""
    if limit.nonnegative:
        return Confirmed(0)
    try:
        status = limit.read()
    except NotClassifiableError:
        return Confirmed(_power_failure(T.matrix, T.dim))
    except spectral.SpectralError:
        return UndeterminedUpToHorizon(0)
    if isinstance(status, RefutedWithWitness):
        return status
    if isinstance(status, Confirmed):
        return _tail_certificate(T) or UndeterminedUpToHorizon(0)
    return UndeterminedUpToHorizon(0)


def _exactly_nonnegative(A: np.ndarray) -> bool:
    return bool(np.minimum.reduce(A.real, axis=None) >= 0) and _exactly_real(A)


def _exactly_real(A: np.ndarray) -> bool:
    """Every imaginary part of A is 0 (-0.0 too), read off the least and the
    largest, by reductions that the rules run anyway; entries are finite."""
    imag = A.imag
    return bool(np.minimum.reduce(imag, axis=None) == 0 == np.maximum.reduce(imag, axis=None))


def _inf_norm(N: np.ndarray) -> float:
    """||N||_inf, the largest absolute row sum, as `np.linalg.norm` forms it."""
    return float(np.maximum.reduce(np.add.reduce(np.abs(N), axis=1), initial=0.0))


def _tail_certificate(T: Dense) -> Optional[Confirmed]:
    """Confirmed(n0) from a bound on the decay of S^n = T^n/spr^n towards
    its limit, or None where the bound does not apply.

    The limit status is confirmed only for a real matrix
    (`_peripheral_status`), whose one peripheral eigenvalue is real, so it
    is spr itself. With spr a simple pole and the only
    peripheral eigenvalue (Perron's theorem makes it the only one whenever
    the limit point L_1 = P, the spectral projection at spr, is positive
    beyond a margin, as then a power of T is), S = L_1 + N with
    L_1 N = N L_1 = 0, so S^n = L_1 + N^n for n >= 1. Squaring N until
    theta = ||N^m||_inf <= 1/2 gives m = 2^i and
    C = prod over j < i of max(1, ||N^(2^j)||_inf), which bounds ||N^r||_inf
    for every r < m, so every entry of N^n is at most C theta^(n // m).
    Past n_t, the first n where that is below min L_1 - margin (the margin
    MARGIN_ROUNDINGS times the rounding of P), each S^n is positive. The
    powers below n_t are tested directly, as powers of T 2^-e (e the binary
    exponent of spr, so none overflows; `Spectrum.scaled`) by
    `_power_failure`. m and n_t are capped at MAX_TAIL."""
    spec = T.spectral_data()
    spr = spec.spectral_radius
    if len(spec.peripheral_indices) != 1 or spec.order != 1:
        return None
    L = spec.coefficient(0).real
    A = T.matrix.real
    # ||L||_F as `np.linalg.norm` forms it
    r = L.ravel(order="K")
    frobenius = float(np.sqrt(r.dot(r)))
    gap = float(np.minimum.reduce(L, axis=None)) - MARGIN_ROUNDINGS * T.dim * EPS * frobenius**2
    if not gap > 0:
        return None
    N = A / spr - L
    C, m, theta = 1.0, 1, _inf_norm(N)
    while theta > 0.5:
        if 2 * m > MAX_TAIL or theta > NORM_CEILING:
            return None
        C, m, N = C * max(1.0, theta), 2 * m, N @ N
        theta = _inf_norm(N)
    n_t, bound = 0, C
    while bound >= gap:
        n_t, bound = n_t + m, bound * theta
        if n_t > MAX_TAIL:
            return None
    # scalar first, as `_block_passes` multiplies
    return Confirmed(_power_failure(spec.scaled(A), n_t))


def _diagonal_status(T: Diagonal) -> Status:
    """Exact: T^n = diag(s^n). An entry s on the nonnegative reals stays on
    them at every power; any other entry, s = r e^(i phi) with r > 0 and
    phi not a multiple of 2 pi, has s^n off them for infinitely many n,
    however small phi or r is. So the trio is confirmed at n0 = 0 when every
    entry has a zero imaginary part and a nonnegative real part, compared
    exactly on the given floats, and otherwise refuted by the first entry
    that has not."""
    for k, s in enumerate(T.symbol):
        if not (s.imag == 0 and s.real >= 0):
            return RefutedWithWitness(
                (k, s), f"symbol entry {s} at index {k} is not a positive real"
            )
    return Confirmed(0)


def _shift_status(T: WeightedShift) -> Status:
    """Exact: (T^k)_{j+k,j} = w_j ... w_{j+k-1} and T^dim = 0, so T^k is
    positive iff each product of k consecutive weights is a positive real,
    and n0 is one past the last k < dim where one is not. A product's sign
    is the sign of its phase, the product of the unit phases w/|w|, so no
    magnitude is formed in floating point; a window with a zero weight has
    phase 0 and passes. A real weight's phase is exactly +-1, so products
    of real weights are decided exactly; a complex phase product passes
    within DEFAULT_TOL of the positive reals. The lengths are tested a tile
    at a time (`_shift_tiles`), a row of a tile holding one length's
    products."""
    mag = np.abs(T.weights)
    phase = np.divide(T.weights, mag, out=np.zeros_like(T.weights), where=mag > 0)
    n0 = 0
    for k, P in _shift_tiles(phase):
        passes = (P.real.min(axis=1) >= -DEFAULT_TOL) & (np.abs(P.imag).max(axis=1) <= DEFAULT_TOL)
        failed = np.flatnonzero(~passes)
        if failed.size:
            n0 = k + int(failed[-1]) + 1
    return Confirmed(n0)


def _shift_tiles(phase: np.ndarray):
    """(k, P) for tiles of the window lengths k, k + 1, ... < dim, where
    dim = len(phase) + 1: P[t, j] is the phase of w_j ... w_{j+k+t-1}, for
    every start j < dim - k. A window that runs past the last weight is
    dead, with phase 0. A tile holds at most SHIFT_TILE // (dim - k)
    lengths, and at least one, so it stays cache-sized. Row t + 1 is row t
    times the next weight's phase, formed by the same elementwise multiply
    at every length: a cumulative product (`np.cumprod`) rounds a complex
    product differently."""
    dim, k = len(phase) + 1, 1
    ph = phase
    while k < dim:
        starts = dim - k
        lengths = min(starts, max(1, SHIFT_TILE // starts))
        P = np.zeros((lengths, starts), dtype=complex)
        P[0] = ph
        for t in range(1, lengths):
            np.multiply(P[t - 1, : starts - t], phase[k + t - 1 :], out=P[t, : starts - t])
        # the first row of the next tile
        ph = P[-1, : starts - lengths] * phase[k + lengths - 1 :]
        yield k, P
        k += lengths


def _rank_k_eventual(T: RankK, limit: LimitStatus) -> tuple:
    """At spr = 0 every <phi_i, f_j> = lam_i delta_ij is 0, so T^2 = 0 and no
    witness applies: the trio takes the grid test of T itself. Otherwise the
    analytic refutations come first, each decided once: the singular term
    on the half-line indicators (individual notion, and so the uniform one,
    which implies it), a face bump (`face_witness`: all three notions), the
    shrinking hat (uniform). A uniform notion that they leave open is
    decided by `_rank_k_status` from the grid entries of T^n, tested in row
    blocks. An individual or weak notion left open is decided in this order,
    with no test set and no horizon:
    1. A refuted limit status refutes, as each eventual notion implies its
       asymptotic one.
    2. With a confirmed limit status, the Perron certificate
       (`_perron_certificate`) confirms it at n0 = 0, though each x >= 0
       has its own threshold, which no single n0 names.
    3. A confirmed uniform notion confirms it at the same n0, as the
       uniform notion implies it.
    4. Anything else is undetermined, at horizon 0."""
    if T.spectral_radius() == 0:
        passes = _grid_passes_in_blocks(T.samples, T.rows)
        return _one_status(_EVENTUAL_CHAIN, Confirmed(_last_failure([passes])))
    status = limit.read()
    individual = _singular_refutation(T, _half_lines(T))
    face = hat = None
    if individual is None:
        face, hat = face_witness(T), _hat_refutation(T)
        individual = None if face is None else _face_refutation(T, face)
    # the singular term refutes the uniform notion itself; a face bump only
    # where no shrinking hat does
    renamed = individual and individual.replace(notion=Notion.UNIFORM_EVENTUAL)
    uniform = hat or renamed or PositivityVerdict(Notion.UNIFORM_EVENTUAL, _rank_k_status(T, limit))
    if face is not None:
        return uniform, individual, individual.replace(notion=Notion.WEAK_EVENTUAL)
    certified = ()
    if isinstance(status, RefutedWithWitness):
        otherwise = status
    else:
        if isinstance(status, Confirmed):
            certified = _perron_certificate(T)
        confirmed = isinstance(uniform.status, Confirmed)
        otherwise = uniform.status if confirmed else UndeterminedUpToHorizon(0)

    def open_verdict(notion: Notion) -> PositivityVerdict:
        return PositivityVerdict(notion, Confirmed(0) if notion in certified else otherwise)

    return (
        uniform,
        individual or open_verdict(Notion.INDIVIDUAL_EVENTUAL),
        open_verdict(Notion.WEAK_EVENTUAL),
    )


def _half_lines(T: RankK):
    """The indicators of t > 0 and of t < 0 on the grid, in closed form,
    each made when it is read."""
    nodes = np.asarray(T.space.nodes)
    yield (nodes > 0).astype(float)
    yield (nodes < 0).astype(float)


def _face_refutation(T: RankK, face) -> PositivityVerdict:
    t = np.asarray(T.space.nodes)[[face.bump, face.node]]
    every = "every power" if face.period == 1 else "every other power"
    description = (
        f"a bump at t = {t[0]:.6g} meets one functional alone; its powers are "
        f"negative at t = {t[1]:.6g} at {every}"
    )
    return PositivityVerdict(Notion.INDIVIDUAL_EVENTUAL, RefutedWithWitness(face, description))


def _perron_certificate(T: RankK) -> tuple:
    """The notions, of individual and weak, that the Perron certificate
    confirms for a model whose limit status is confirmed. Suppose the
    eigen-parameters, samples and rows are real; lam_1 > 0, the
    eigen-parameter of largest modulus, lies strictly above every other
    |lam_i|; phi_1 is a weighted integral whose scaled weight is positive
    almost everywhere on the interval (`_positive_almost_everywhere`);
    and f_1 >= c > 0 there. Then <phi_1, x> > 0 for every x > 0, and
    T^n x / lam_1^(n-1) = <phi_1, x> f_1 + sum over i != 1 of
    (lam_i/lam_1)^(n-1) <phi_i, x> f_i, whose sum tends to 0 uniformly when
    every other f_i is bounded: the individual notion holds. Paired with any
    x' > 0, <x', f_1> >= c <x', 1> > 0, and the sum tends to 0 when every
    other f_i pairs boundedly, that is, lies in the space (`_in_space`): the
    weak notion holds. Each function's extremes are in closed form
    (`extremes`), a tabulated one's read at its nodes."""
    lam = T.eigen_parameters
    if lam.imag.any() or T.samples.imag.any() or T.rows.imag.any():
        return ()
    moduli = np.abs(lam.real)
    top = int(np.argmax(moduli))
    if not (lam[top].real > 0 and np.count_nonzero(moduli >= moduli[top]) == 1):
        return ()
    lo, hi = T.space.domain()
    ranges = [f.extremes(lo, hi) for f in T.functions]
    if None in ranges or not (
        ranges[top][0] > 0 and _positive_almost_everywhere(T.functionals[top], lo, hi)
    ):
        return ()
    others = [(f, r) for i, (f, r) in enumerate(zip(T.functions, ranges)) if i != top]
    if all(np.isfinite(r).all() for _, r in others):
        return (Notion.INDIVIDUAL_EVENTUAL, Notion.WEAK_EVENTUAL)
    return (Notion.WEAK_EVENTUAL,) if all(_in_space(f, r, T.space) for f, r in others) else ()


def _positive_almost_everywhere(phi, lo: float, hi: float) -> bool:
    """phi is a weighted integral with a real scale whose product with the
    weight is positive almost everywhere on [lo, hi]: a monomial or a signed
    power vanishes only at 0, so its least value may be 0 there."""
    if not isinstance(phi, WeightedIntegral):
        return False
    scale = complex(phi.scale)
    weight = phi.weight.extremes(lo, hi)
    if scale.imag or scale.real == 0 or weight is None:
        return False
    low = min(scale.real * weight[0], scale.real * weight[1])
    return low > 0 or (low == 0 and isinstance(phi.weight, (Monomial, SignedPower)))


def _in_space(f, extremes: tuple, space: NormKind) -> bool:
    """A real f with these extremes lies in the space: it is bounded, or the
    space is L^p and f is sgn(t)|t|^alpha with alpha p > -1, so p-integrable
    at 0."""
    if np.isfinite(extremes).all():
        return True
    singular = isinstance(f, SignedPower) and isinstance(space, LpQuadrature)
    return singular and np.real(f.exponent) * space.p > -1


def _rank_k_status(T: RankK, limit: LimitStatus) -> Status:
    """The status of the uniform notion, whose test reads the grid entries
    u_n = U W of S^n = T^n/spr^n, with U the samples, V the rows and
    W = diag(mu^(n-1)) V / spr for n >= 1 (mu = lam/spr, spr > 0), tested
    in row blocks (`_grid_passes_in_blocks`), in this order and with no
    horizon:
    1. A refuted limit status refutes, as each eventual notion implies its
       asymptotic one.
    2. A confirmed one with mu_i = 1 at every peripheral index i in I
       (`LimitStatus.peripheral`), and real U, V and lam, decides by a tail
       certificate: u_n = L + sum over i not in I of
       mu_i^(n-1) U[:, i] V[i] / spr, with L = U[:, I] V[I] / spr. An entry
       where no decaying term (i not in I) is nonzero equals L at every
       n >= 1; one below L's rounding (MARGIN_ROUNDINGS times
       `_term_rounding`, as the limit status allows) leaves the notion
       undetermined, and n = 1 is always tested directly. Over the other
       entries (`_least_entries`) the gap is min L less that margin. Past
       n_t, the first n where sum over i not in I of
       |mu_i|^(n-1) max|U[:, i]| max|V[i]| / spr is below the gap, those
       entries are real and positive, so the notion holds; the powers below
       n_t, and n = 1, take its test directly. n_t is capped at MAX_TAIL.
    3. Anything else is undetermined, at horizon 0."""
    U, V = T.samples, T.rows
    status = limit.read()
    if isinstance(status, RefutedWithWitness):
        return status
    mu, periph = limit.peripheral
    if (mu[periph] != 1).any() or any(a.imag.any() for a in (U, V, mu)):
        return UndeterminedUpToHorizon(0)
    U, V, mu = U.real, V.real / T.spectral_radius(), mu.real
    rest = np.ones(len(mu), dtype=bool)
    rest[periph] = False
    margin = MARGIN_ROUNDINGS * _term_rounding(U[:, periph], V[periph])
    decaying, constant = _least_entries(U, V, periph, rest)
    if not constant >= -margin:
        return UndeterminedUpToHorizon(0)
    gap = decaying - margin
    size = np.abs(U[:, rest]).max(axis=0) * np.abs(V[rest]).max(axis=1)
    # tail[n - 1] bounds every entry of u_n - L
    tail = np.abs(mu[rest]) ** np.arange(MAX_TAIL)[:, None] @ size
    below = np.flatnonzero(tail < gap)
    if not below.size:
        return UndeterminedUpToHorizon(0)
    powers = (mu[:, None] ** (n - 1) * V for n in range(1, max(int(below[0]), 1) + 1))
    return Confirmed(_last_failure(_grid_passes_in_blocks(U, W) for W in powers))


def _row_blocks(U: np.ndarray):
    """(first row, block) for the blocks of LIMIT_POINT_ROWS rows of U, so
    that a product U W with a row for each grid node is never formed whole."""
    starts = range(0, len(U), LIMIT_POINT_ROWS)
    return ((start, U[start : start + LIMIT_POINT_ROWS]) for start in starts)


def _least_entries(U: np.ndarray, V: np.ndarray, periph: np.ndarray, rest: np.ndarray) -> tuple:
    """The least entries of L = U[:, I] V[I] (I = periph): over the entries
    where some decaying term U[a, i] V[i, b] (i in rest) is nonzero, and
    over the others, each inf where there is none; formed in row blocks."""
    nonzero = (V[rest] != 0).astype(float)
    least = []
    for _, B in _row_blocks(U):
        L = B[:, periph] @ V[periph]
        live = (B[:, rest] != 0).astype(float) @ nonzero > 0
        least.append((L[live].min(initial=np.inf), L[~live].min(initial=np.inf)))
    decaying, constant = np.min(least, axis=0)
    return float(decaying), float(constant)


def _grid_passes_in_blocks(U: np.ndarray, W: np.ndarray) -> bool:
    """The grid test of `_power_failure` on P = U W, formed in row blocks:
    each block's largest modulus, most negative real part and largest
    imaginary modulus, then the sign test against DEFAULT_TOL times max|P|
    over every block."""
    extremes = np.array(
        [
            (np.abs(P).max(), -P.real.min(), np.abs(P.imag).max())
            for P in (B @ W for _, B in _row_blocks(U))
        ]
    )
    top, fall, side = extremes.max(axis=0)
    tol = DEFAULT_TOL * top
    return bool(fall <= tol and side <= tol)


def uniform_eventual(T: OperatorModel) -> PositivityVerdict:
    return classify_eventual(T)[0]


def individual_eventual(T: OperatorModel, vectors: Optional[tuple] = None) -> PositivityVerdict:
    """The individual notion alone, by brute force up to HORIZON_EVENTUAL
    powers: each `LatticeVector` x of `vectors`, by default the basis
    vectors, is stepped with power_apply, independently of
    classify_eventual, so the two paths check each other. Confirmed at one
    past the last power where some T^n x is off the cone beyond
    DEFAULT_TOL ||x||; undetermined when that power lies in the last
    quarter of the horizon."""
    horizon = HORIZON_EVENTUAL
    if vectors is None:
        vectors = tuple(_basis_vector(T, j) for j in range(T.dim))
    refuted = _singular_refutation(T, [x.entries for x in vectors])
    if refuted is not None:
        return refuted
    ok = np.ones(horizon, dtype=bool)
    for x in vectors:
        bound, y = DEFAULT_TOL * max(norm_value(x), 1e-300), x
        for n in range(horizon):
            y = power_apply(T, 1, y)
            ok[n] &= cone_distance(y) <= bound
    n0 = _last_failure(ok)
    settled = n0 == 0 or horizon - n0 + 1 >= max(1, horizon // 4)
    status = Confirmed(n0) if settled else UndeterminedUpToHorizon(horizon)
    return PositivityVerdict(Notion.INDIVIDUAL_EVENTUAL, status)


def weak_eventual(T: OperatorModel) -> PositivityVerdict:
    return classify_eventual(T)[2]


# ---------------------------------------------------------------------------
# asymptotic notions


def delta_n(T: OperatorModel, n: int) -> tuple:
    """(sup over the positive unit ball of d+((T/spr)^n x), a maximiser) for
    n >= 0 and an l1 norm, whose ball's extreme points are the basis vectors:
    the worst basis column. Any other norm raises ValueError."""
    if n < 0:
        raise ValueError(f"delta_n needs n >= 0, got {n}")
    if not isinstance(T.norm, Ell1):
        raise ValueError(f"no exact delta_n for norm {T.norm!r}: it needs l1")
    spr = T.spectral_radius()
    if spr <= 0:
        raise NotClassifiableError("spectral radius is zero; rescaling undefined")
    power = np.linalg.matrix_power(to_dense(T).matrix * (1.0 / spr), n)
    dists = cone_distances(power, T.norm)
    j = int(np.argmax(dists))
    return float(dists[j]), _basis_vector(T, j)


def classify_asymptotic(T: OperatorModel, limit: Optional[LimitStatus] = None) -> tuple:
    """(uniform, individual, weak) asymptotic verdicts, by exact rule and with
    no orbit. The three notions coincide: S = T/spr is the sum of its
    peripheral part, whose powers cycle through the limit points, and a part
    whose powers tend to 0 in operator norm. So each notion holds exactly
    when every limit point is positive, and the trio gets one status, the
    limit status (`LimitStatus`), which the eventual trio of the same
    classification may have read already."""
    if limit is None:
        limit = LimitStatus(T)
    return _one_status(_ASYMPTOTIC_CHAIN, limit.read())


class LimitStatus:
    """The limit status of T, decided on first read and kept, a failure
    too: NotClassifiableError at spr = 0, where the rescaling is undefined;
    Confirmed(0) for an exactly nonnegative `Dense`, as each eventual notion
    implies its asymptotic one; otherwise `_diagonal_limit_status` for a
    `Diagonal`, `_peripheral_status` for a `Dense`, `_rank_k_limit_status`
    for a rank-k model. One is shared by the two trios of a classification,
    so it is decided once, as is `nonnegative`, which both trios read."""

    def __init__(self, T: OperatorModel):
        self.T = T
        self.nonnegative = isinstance(T, Dense) and _exactly_nonnegative(T.matrix)
        self._outcome: Union[Status, Exception, None] = None

    @cached_property
    def peripheral(self) -> tuple:
        """(mu, I) of a rank-k model (`_peripheral_indices`), which the limit
        status and the eventual trio both read; not read at spr = 0."""
        return _peripheral_indices(self.T)

    def read(self) -> Status:
        if self._outcome is None:
            try:
                self._outcome = self._decide()
            except (NotClassifiableError, spectral.SpectralError) as exc:
                self._outcome = exc
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome

    def _decide(self) -> Status:
        T = self.T
        if T.spectral_radius() == 0:
            raise NotClassifiableError("spectral radius is zero; rescaling undefined")
        if isinstance(T, RankK):
            return _rank_k_limit_status(T, *self.peripheral)
        if isinstance(T, Diagonal):
            return _diagonal_limit_status(T)
        if self.nonnegative:
            return Confirmed(0)
        return _peripheral_status(T)


def _basis_vector(T: OperatorModel, j: int) -> LatticeVector:
    e = np.zeros(T.dim)
    e[j] = 1.0
    return LatticeVector(e, T.norm)


def _diagonal_limit_status(T: Diagonal) -> Status:
    """Exact: S^n = diag(mu^n), mu = s/spr. An entry with |mu| < 1 dies out;
    one with |mu| = 1 and mu != 1 stays at a fixed distance from the
    positive reals for infinitely many n. An entry of modulus spr refutes
    unless it is spr exactly; any other is tested within DEFAULT_TOL."""
    spr = T.spectral_radius()
    mu = _over_spr(T.symbol, spr)
    off = np.where(np.abs(T.symbol) == spr, T.symbol != spr, np.abs(mu - 1.0) > DEFAULT_TOL)
    off = (off & (np.abs(mu) >= 1.0 - DEFAULT_TOL)).nonzero()[0]
    if off.size:
        k = int(off[0])
        return RefutedWithWitness(
            _basis_vector(T, k),
            f"symbol entry {T.symbol[k]} at index {k} has modulus spr but is not spr",
        )
    return Confirmed(0)


def _root_of_unity_order(mu: complex, most: int, tol: float) -> Optional[int]:
    """The least q <= most with |mu^q - 1| <= q tol, or None."""
    return next((q for q in range(1, most + 1) if abs(mu**q - 1.0) <= q * tol), None)


def _not_cyclic(mu: np.ndarray, orders: list, count: int) -> RefutedWithWitness:
    """The refutation by the paper's cyclicity theorem: an asymptotically
    positive operator has a cyclic peripheral spectrum, so with `count`
    peripheral eigenvalues each mu = lam/spr is a root of unity of order at
    most `count`; orders[k] is None where mu[k] is not."""
    z = complex(mu[orders.index(None)])
    return RefutedWithWitness(
        z,
        f"peripheral eigenvalue / spr = {z} is no root of unity of order <= "
        f"{count}: the peripheral spectrum is not cyclic",
    )


def _worst_entry(blocks) -> tuple:
    """(residual, i, j): the entry of a matrix, given as (first row, row
    block) pairs, farthest from the positive reals, the first one of a tie;
    residual 0 when every entry is on them. A real block's residual is
    max(-L, 0) (`cone_residual`), largest at the first least entry."""
    worst = (0.0, 0, 0)
    for start, L in blocks:
        if L.dtype.kind == "c":
            R = cone_residual(L)
            k = int(R.argmax())
            residual = R.flat[k]
        else:
            k = int(L.argmin())
            residual = -L.flat[k]
        i, j = divmod(k, L.shape[1])
        if residual > worst[0]:
            worst = (float(residual), start + i, j)
    return worst


def _residual_bound(L: np.ndarray) -> float:
    """A bound on every entry's residual in `_worst_entry`, from reductions
    and no `np.hypot` pass: hypot(a, b) <= a + b, and the factor 2 covers
    the rounding of hypot and of the sum. It is NaN when L holds one."""
    bound = max(-float(np.minimum.reduce(L.real, axis=None)), 0.0)
    if L.dtype.kind == "c":
        imag = L.imag
        top, low = np.maximum.reduce(imag, axis=None), np.minimum.reduce(imag, axis=None)
        bound += max(float(top), -float(low))
    return 2.0 * bound


def _limit_point_refutation(T, worst, r: int, threshold: float) -> Optional[RefutedWithWitness]:
    """Refuted with witness e_j when the worst entry (i, j) of the limit
    point L_r lies farther than threshold from the positive reals: the
    powers S^n with n = r mod p approach L_r, so S^n e_j stays off the cone
    for infinitely many n."""
    residual, i, j = worst
    if residual <= threshold:
        return None
    return RefutedWithWitness(
        _basis_vector(T, j),
        f"limit point L_{r} has entry ({i}, {j}) at {residual:.6g} from the positive reals",
    )


def _peripheral_status(T: Dense) -> Status:
    """Exact, from the peripheral part of T's spectrum: m the top pole order,
    mu_k = lam_k/spr and C_k = (T - lam_k)^(m-1) P_k for each lam_k of
    order m. Asymptotic positivity with m = 1 makes the peripheral spectrum
    cyclic, so a mu_k that is no root of unity of order at most the number
    of peripheral eigenvalues refutes; the test is within the solver's
    tolerance, as the eigenvalues are. Otherwise, with p the lcm of the
    orders, S^n / binom(n, m-1) approaches L_((n - m + 1) mod p), where
    L_r = sum_k mu_k^r C_k / spr^(m-1). With m = 1 the trio holds iff every
    L_r is positive, and so iff L_1 is: the P_k are disjoint projections,
    so L_r = L_1^r, and L_0 = L_1^p. Only a real matrix is confirmed so: a
    complex one's mu_k may be e^(i phi) with phi below the solver's
    tolerance, whose powers turn through n phi away from L_1, so with L_1
    positive it is undetermined. With m > 1 an L_r off the cone
    refutes, as that part of S^n grows, and other ones leave the lower-order
    terms undecided; r is read upwards from 0, up to the first L_r that
    refutes and below min(p, MAX_PERIOD), since a refutation at any r is
    sound. Off the cone means beyond DEFAULT_TOL plus, at
    m = 1, the rounding of the computed projections, n eps sum_k ||P_k||_F^2
    to first order, and at m > 1 the error that merging a split eigenvalue
    puts into L_r (`Spectrum.coefficient_error`). At m = 1, L_1's entries
    are scanned only when `_residual_bound` does not already keep them
    within that. The rule steps no power, so an undetermined status has
    horizon 0."""
    spec = T.spectral_data()
    spr, m, top = spec.spectral_radius, spec.order, spec.top
    mu = _over_spr(spec.peripheral_eigenvalues[top], spr)
    count = len(spec.peripheral_indices)
    q = [_root_of_unity_order(z, count, spectral.DEFAULT_TOL) for z in mu]
    if None in q:
        return UndeterminedUpToHorizon(0) if m > 1 else _not_cyclic(mu, q, count)
    # the coefficients as the rows of the operand that `np.tensordot` passes
    # to `np.dot` (the array method `.dot`, with no Python dispatcher), so
    # each L_r rounds as the contraction does; one is a view
    rows = [spec.coefficient(k).reshape(1, -1) for k in top]
    C, shape = rows[0] if len(rows) == 1 else np.concatenate(rows), T.matrix.shape
    if m == 1:
        # to first order, rounding moves a computed projection P by its
        # condition number ||P|| times a backward error of n eps ||P||;
        # ||C_k||_F as `np.linalg.norm` forms it
        norms = np.sqrt(np.add.reduce((C.conj() * C).real, axis=1))
        slack = T.dim * EPS * float(np.add.reduce(norms * norms))
        L, threshold = mu.reshape(1, -1).dot(C).reshape(shape), DEFAULT_TOL + slack
        refuted = None
        if not _residual_bound(L) <= threshold:
            refuted = _limit_point_refutation(T, _worst_entry([(0, L)]), 1, threshold)
        return refuted or (Confirmed(0) if _exactly_real(T.matrix) else UndeterminedUpToHorizon(0))
    C = C / spec.scaled(spr) ** (m - 1)

    def worst(r):
        return _worst_entry([(0, (mu**r).reshape(1, -1).dot(C).reshape(shape))]), r

    threshold = DEFAULT_TOL + spec.coefficient_error / spec.scaled(spr) ** (m - 1)
    for r in range(min(math.lcm(*q), MAX_PERIOD)):
        refuted = _limit_point_refutation(T, *worst(r), threshold)
        if refuted is not None:
            return refuted
    return UndeterminedUpToHorizon(0)


def _rank_k_limit_status(T: RankK, mu: np.ndarray, periph: np.ndarray) -> Status:
    """Exact, from the eigen-parameters: T^n = sum_i lam_i^(n-1) f_i (x) phi_i
    with phi_i(f_j) = lam_i delta_ij, so each lam_i != 0 is semisimple with
    spectral projection P_i = f_i (x) phi_i / lam_i, the P_i are disjoint,
    and with mu = lam/spr, S^n = sum_i mu_i^n P_i. The peripheral indices
    are those with |mu_i| >= 1 - DEFAULT_TOL; the other terms tend to 0 in
    operator norm. As for a `Dense` with m = 1, a peripheral mu_i that is no
    root of unity of order q at most their number refutes, and otherwise
    the limit point L_1 = sum_i mu_i P_i over the peripheral i, the operator
    samples[:, I] rows[I] / spr (I those indices), refutes beyond
    DEFAULT_TOL plus the rounding of its entries (`_term_rounding`), and
    confirms only when each mu_i^q is exactly 1 (as for 1, -1 and +-i): a
    mu_i = e^(i phi), phi below the tolerance, turns away from L_1. No
    dim x dim matrix is formed: a single real peripheral term is read from
    its two factors (`_outer_worst_entry`), and any other L_1
    LIMIT_POINT_ROWS rows at a time, in real arithmetic when its factors
    have no imaginary part."""
    spr = T.spectral_radius()
    q = [_root_of_unity_order(z, len(periph), DEFAULT_TOL) for z in mu[periph]]
    if None in q:
        return _not_cyclic(mu[periph], q, len(periph))
    F, Phi = T.samples[:, periph], _over_spr(T.rows[periph], spr)
    if not (F.imag.any() or Phi.imag.any()):
        F, Phi = F.real.copy(), Phi.real.copy()
    if len(periph) == 1 and F.dtype.kind == "f" and np.isfinite(F).all() and np.isfinite(Phi).all():
        worst = _outer_worst_entry(F[:, 0], Phi[0])
    else:
        worst = _worst_entry((start, B @ Phi) for start, B in _row_blocks(F))
    slack = _term_rounding(F, Phi)
    refuted = _limit_point_refutation(T, worst, 1, DEFAULT_TOL + slack)
    exact = all(z**k == 1 for z, k in zip(mu[periph], q))
    return refuted or (Confirmed(0) if exact else UndeterminedUpToHorizon(0))


def _outer_worst_entry(f: np.ndarray, phi: np.ndarray) -> tuple:
    """`_worst_entry` of the real outer product f phi^T of finite factors,
    read from them. Each entry is one rounded product f_a phi_b, and
    rounding is monotone, so row a's least entry is f_a min(phi) when
    f_a >= 0 and f_a max(phi) when f_a < 0. The worst entry is in the first
    row that holds the least of these, at that row's first least entry."""
    least = f * np.where(f >= 0, phi.min(), phi.max())
    a = int(np.argmin(least))
    residual = -least[a]
    if not residual > 0:
        return (0.0, 0, 0)
    return (float(residual), a, int(np.argmin(f[a] * phi)))


def _peripheral_indices(T: RankK) -> tuple:
    """(mu, I): mu = lam/spr, and I the indices with |mu_i| >= 1 - DEFAULT_TOL."""
    mu = _over_spr(T.eigen_parameters, T.spectral_radius())
    return mu, np.flatnonzero(np.abs(mu) >= 1.0 - DEFAULT_TOL)


def _over_spr(values: np.ndarray, spr: float) -> np.ndarray:
    """values / spr, as numpy divides (by 1/spr); where 1/spr overflows
    (spr <= 2^-1024), of values and spr scaled by 2^1000 first, exactly."""
    if spr <= 2.0**-1024:
        values, spr = values * 2.0**1000, spr * 2.0**1000
    return values / spr


def _term_rounding(U: np.ndarray, V: np.ndarray) -> float:
    """The rounding of an entry of U V, a sum of k products U[a, i] V[i, b]:
    k eps sum over i of max|U[:, i]| max|V[i]|."""
    return U.shape[1] * EPS * float(np.abs(U).max(axis=0) @ np.abs(V).max(axis=1))


# ---------------------------------------------------------------------------
# hierarchy consistency


# (upper, lower): the upper notion implies the lower one when it is neither
# weaker in its chain nor asymptotic while the lower one is eventual
_IMPLICATIONS = tuple(
    (upper, lower)
    for i, upper in enumerate(Notion)
    for j, lower in enumerate(Notion)
    if i != j and i % 3 <= j % 3 and i // 3 <= j // 3
)


def hierarchy_violations(verdicts: Sequence[PositivityVerdict]) -> list:
    """A Confirmed verdict sitting above a Refuted one, in either chain or
    across the X-eventual => X-asymptotic edges, is a hard failure; returns
    the offending (upper, lower) pairs."""
    kinds = {v.notion: type(v.status) for v in verdicts}
    return [
        (upper.value, lower.value)
        for upper, lower in _IMPLICATIONS
        if kinds.get(upper) is Confirmed and kinds.get(lower) is RefutedWithWitness
    ]
