import tracemalloc
import warnings
from itertools import accumulate, repeat

import numpy as np
import pytest
import scipy.linalg

import evpos.classify
import evpos.operators
import evpos.spectral
import evpos.witnesses
from evpos.catalog import (
    averaging_plus_singular,
    averaging_plus_slope,
    diagonal_drift,
    get_example,
    nonreal_diagonal,
)
from evpos.classify import (
    DEFAULT_TOL,
    LIMIT_POINT_ROWS,
    MAX_PERIOD,
    MAX_TAIL,
    POWER_TILE,
    Confirmed,
    NotClassifiableError,
    Notion,
    RefutedWithWitness,
    UndeterminedUpToHorizon,
    _basis_vector,
    _block_passes,
    _outer_worst_entry,
    _power_failure,
    _row_blocks,
    _singular_refutation,
    _worst_entry,
    classify_asymptotic,
    classify_eventual,
    delta_n,
    hierarchy_violations,
    individual_eventual,
    uniform_eventual,
    weak_eventual,
)
from evpos.cli import run_classify
from evpos.generators import cyclic_block, make_eventually_positive
from evpos.lattice import (
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeVector,
    LpQuadrature,
    cone_residual,
    midpoint_rule,
)
from evpos.operators import (
    Constant,
    Dense,
    Diagonal,
    Monomial,
    PointCombination,
    RankK,
    SignedPower,
    Tabulated,
    WeightedIntegral,
    WeightedShift,
    to_dense,
)
from evpos.report import report_to_json, verdict_record
from evpos.rng import rng_for
from evpos.witnesses import hat_family_witness, hat_limit_witnesses

import exact


def entrywise_positive(a: np.ndarray, tol: float) -> bool:
    """Every entry of a lies within tol of the nonnegative reals: the
    entrywise sign test that the reductions of the eventual rules are held
    to."""
    return bool((a.real >= -tol).all() and (np.abs(a.imag) <= tol).all())


class TestEventualClassification:
    def test_positive_matrix_confirmed_at_zero(self):
        v = uniform_eventual(Dense(np.array([[0.5, 0.2], [0.1, 0.6]]), Ell1()))
        assert isinstance(v.status, Confirmed) and v.status.n0 == 0

    def test_eventually_positive_matrix_gets_finite_threshold(self):
        # strictly positive rank-1 projection plus a commuting contraction
        # that is large enough to push an entry of A itself negative
        vperp = np.array([1.0, 0.2]), np.array([0.2, -1.0])
        P = np.outer(vperp[0], vperp[0]) / (vperp[0] @ vperp[0])
        Q = -0.7 * np.outer(vperp[1], vperp[1]) / (vperp[1] @ vperp[1])
        A = P + Q
        assert np.min(A) < 0
        v = uniform_eventual(Dense(A, Ell1()))
        assert isinstance(v.status, Confirmed)
        assert v.status.n0 >= 1

    def test_vectors_turning_on_circles_refute_the_trio(self):
        # e_2 turns around the unit circle and is off the cone at n = 30, the
        # horizon of the vector-by-vector path; e_3 turns around a circle of
        # radius 2^n, so the peripheral eigenvalue / spr is i, which is not
        # cyclic: the trio inherits the asymptotic refutation
        T = Dense(np.diag([1.0, 1j, 2j]), Ell1())
        basis = tuple(LatticeVector(e, Ell1()) for e in np.eye(3))
        v = individual_eventual(T, basis)
        assert isinstance(v.status, UndeterminedUpToHorizon)
        refuted = classify_asymptotic(T)[0].status
        assert isinstance(refuted, RefutedWithWitness)
        for trio in classify_eventual(T):
            assert trio.status == refuted

    @pytest.mark.parametrize(
        "T",
        [
            make_eventually_positive(6, 0.5, 4).model,
            Dense(np.array([[0.0, 1.0], [1.0, 0.0]]), Ell1()),
            diagonal_drift(12),
            WeightedShift(np.array([-1.0, 2.0, 0.5]), Ell1()),
            averaging_plus_slope(41),
        ],
    )
    def test_shared_orbit_matches_the_vector_by_vector_path(self, T):
        shared = classify_eventual(T)[1]
        single = individual_eventual(T)
        if isinstance(T, Diagonal):  # the exact rule sees past the horizon
            assert isinstance(shared.status, RefutedWithWitness)
            assert isinstance(single.status, UndeterminedUpToHorizon)
        elif isinstance(T, RankK):
            # the Perron certificate gives each x >= 0 its own threshold and
            # names none (n0 = 0); the grid's basis vectors share the largest
            # of theirs: e_j at t = +-1 has T^n e_j < 0 at the other end for
            # n < 6
            assert shared.status == Confirmed(0) and single.status == Confirmed(6)
        else:
            assert shared.status == single.status

    @pytest.mark.parametrize(
        "T",
        [
            *(
                make_eventually_positive(5, 0.5, 2, norm=norm).model
                for norm in (Ell1(), Ell2(), EllInf())
            ),
            Diagonal(np.array([1.0, -0.5, 0.5j]), EllInf()),
        ],
        ids=["dense-l1", "dense-l2", "dense-linf", "diagonal-linf"],
    )
    def test_finite_classification_steps_no_orbit(self, T, monkeypatch):
        # a dense model's eventual trio tests the powers below its tail
        # certificate with its own products, and its asymptotic trio steps no
        # power; a diagonal's trios are decided from its symbol
        calls = []
        orbit = type(T).orbit

        def recording(self, Y, horizon):
            calls.append((Y, horizon))
            return orbit(self, Y, horizon)

        monkeypatch.setattr(type(T), "orbit", recording)
        report, failed = run_classify(T, "finite", 0)
        assert not failed
        assert len(report.classification) == 6
        assert calls == []

    def test_slope_model_uniform_refuted(self):
        v = uniform_eventual(averaging_plus_slope(201))
        assert isinstance(v.status, RefutedWithWitness)

    def test_slope_model_individual_confirmed(self):
        v = individual_eventual(averaging_plus_slope(201))
        assert isinstance(v.status, Confirmed)

    def test_singular_model_individual_refuted(self):
        v = individual_eventual(averaging_plus_singular(400))
        assert isinstance(v.status, RefutedWithWitness)

    def test_singular_model_weak_confirmed(self):
        v = weak_eventual(averaging_plus_singular(400))
        assert isinstance(v.status, Confirmed)

    def test_drift_diagonal_weak_refuted(self):
        v = weak_eventual(diagonal_drift(50))
        assert isinstance(v.status, RefutedWithWitness)
        assert v.status.witness == (1, -0.5)  # the first entry off the positive reals

    def test_nilpotent_shift_confirmed(self):
        T = WeightedShift(tuple(-1.0 for _ in range(9)), Ell1())
        v = uniform_eventual(T)
        assert isinstance(v.status, Confirmed)
        assert v.status.n0 == 10

    @pytest.mark.parametrize(
        "T, expected",
        [
            (diagonal_drift(50), RefutedWithWitness),
            (nonreal_diagonal(), RefutedWithWitness),
            (WeightedShift(tuple(-1.0 for _ in range(29)), Ell1()), Confirmed(30)),
            (Dense(-np.eye(3), Ell1()), RefutedWithWitness),
        ],
        ids=["ex3.5a", "rem3.2b", "ex3.5b", "minus-identity"],
    )
    def test_verdicts_do_not_move_with_the_horizon(self, T, expected):
        # even powers of a negative diagonal are positive, and (1/2)^n falls
        # below the tolerance; the shift's powers are negative up to its
        # dimension 30: each trio is decided by exact rule, with no horizon
        for v in classify_eventual(T):
            if expected is RefutedWithWitness:
                assert isinstance(v.status, RefutedWithWitness), v
            else:
                assert v.status == expected

    def test_minus_identity_is_refuted_at_every_horizon(self):
        # -I has positive even powers only: its limit point L_1 = -I refutes
        # the asymptotic trio, and so the eventual one, with no horizon
        T = Dense(-np.eye(2), Ell1())
        for v in classify_eventual(T):
            assert isinstance(v.status, RefutedWithWitness)


ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]])  # sqrt(2) times the 45-degree rotation


class TestScaleFreeEventualTest:
    """The finite sign test is relative to each power's largest entry and the
    powers are rescaled by a power of two, so no scale of T moves a verdict."""

    def _eventual(self, T):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return classify_eventual(T)

    @pytest.mark.parametrize("scale", [1e-6, 1e-12])
    def test_small_rotation_is_refuted(self, scale):
        # R^n is positive only when 8 | n: its eigenvalues / spr are
        # e^(+-i pi/4), no roots of unity of order <= 2, at any scale
        for v in self._eventual(Dense(scale * ROTATION, Ell1())):
            assert isinstance(v.status, RefutedWithWitness), v

    @pytest.mark.parametrize(
        "matrix",
        [1e10 * np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1e200, 1.0])],
        ids=["1e10-positive", "diag-1e200"],
    )
    def test_large_positive_matrix_confirmed_at_zero(self, matrix):
        for v in self._eventual(Dense(matrix, Ell1())):
            assert v.status == Confirmed(0)

    @pytest.mark.parametrize(
        "spr", [1e300, 1.0, 3e-300, 2.0**-1023, 1.5 * 2.0**-1024, 2.0**-1024, 1e-310, 5e-324]
    )
    def test_division_by_spr_is_numpys_or_exact(self, spr):
        # numpy divides by 1/spr: where that is finite, the plain quotient
        # bit for bit; where it overflows (spr <= 2^-1024), the quotient of
        # the values and spr both scaled by 2^1000, finite and within two
        # roundings
        rng = np.random.default_rng(102)
        values = (rng.normal(size=8) + 1j * rng.normal(size=8)) * spr
        values[:2] = [spr, complex(-0.0, spr)]
        mu = evpos.classify._over_spr(values, spr)
        if spr > 2.0**-1024:
            assert mu.tobytes() == (values / spr).tobytes()
        else:
            assert np.isfinite(mu).all() and mu[0] == 1.0 and mu[1] == 1j
            # each part divided alone, a correctly rounded real quotient
            exact = np.array([complex(z.real / spr, z.imag / spr) for z in values.tolist()])
            assert np.all(np.abs(mu - exact) <= 4 * np.finfo(float).eps * np.abs(exact))

    @pytest.mark.parametrize("factor", [1e-310, 5e-322])
    def test_subnormal_spectra_keep_the_limit_status(self, factor):
        # 1/spr overflows: no (inf+nanj) reaches a root-of-unity test, and
        # the coefficients and the tail certificate rescale in two exact steps
        symbol = np.array([4.0, 2.0, -1.0])
        diagonal = classify_asymptotic(Diagonal(symbol * factor, Ell1()))
        assert diagonal == classify_asymptotic(Diagonal(symbol, Ell1()))
        T = make_eventually_positive(3, 0.5, seed=1).model
        A = T.matrix * 1e-310
        spec = Dense(A, T.norm).spectral_data()
        assert spec.scale == np.inf and 0.5 <= spec.scaled(spec.spectral_radius) < 1.0
        exponent = -int(np.frexp(spec.spectral_radius)[1])
        scaled = spec.scaled(A)
        assert np.array_equal(scaled.real, np.ldexp(A.real, exponent))
        assert np.array_equal(scaled.imag, np.ldexp(A.imag, exponent))
        assert self._eventual(Dense(A, T.norm)) == self._eventual(T)

    def test_power_of_two_scaling_keeps_statuses(self):
        T = make_eventually_positive(6, 0.5, seed=3, norm=Ell1()).model
        base = self._eventual(T)
        for k in (-30, -3, 3, 30):
            scaled = self._eventual(Dense(T.matrix * 2.0**k, Ell1()))
            assert [v.status for v in scaled] == [v.status for v in base]

    @pytest.mark.parametrize(
        "weights, n0",
        [
            (np.full(4, 1e200), 0),
            (np.full(3, -1e-200), 4),
            (np.array([1e300, 0.0, 1e-300, 1e-300]), 0),
            (np.array([1e300, 0.0, 1e-300, -1e-300]), 3),
            (np.array([-1e-10, 0.0, 1e10]), 2),
        ],
        ids=[
            "1e200",
            "minus-1e-200",
            "dead-window-above",
            "dead-window-above-negative",
            "small-negative-beside-large",
        ],
    )
    def test_extreme_shift_weights_decided_exactly(self, weights, n0):
        # the products of consecutive weights overflow (positive) or
        # underflow (T and T^3 negative) in floating point, and a window's
        # sign is its phase product's, whatever its size beside the others:
        # T itself holds -1e-10 next to 1e10, and every longer window of the
        # last shift is dead (w_1 = 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            statuses = [v.status for v in self._eventual(WeightedShift(weights, Ell1()))]
        assert statuses == [Confirmed(n0)] * 3

    def test_small_diagonal_symbol_off_the_reals_refuted(self):
        for v in self._eventual(Diagonal(np.array([1e-12, 1e-12j]), Ell1())):
            assert isinstance(v.status, RefutedWithWitness)
            assert v.status.witness == (1, 1e-12j)


def _shift_status_loop(T: WeightedShift) -> Confirmed:
    """`_shift_status` as a loop over the window lengths: one pass over the
    phase products of each length k, formed from those of length k - 1."""
    mag = np.abs(T.weights)
    phase = np.divide(T.weights, mag, out=np.zeros_like(T.weights), where=mag > 0)
    n0 = 0
    ph = phase
    for k in range(1, T.dim):
        # ph[j]: the phase of w_j ... w_{j+k-1}, 0 when a weight is 0
        if not entrywise_positive(ph, DEFAULT_TOL):
            n0 = k + 1
        ph = ph[:-1] * phase[k:]
    return Confirmed(n0)


def _seeded_shift_weights(rng, dim: int, family: int) -> np.ndarray:
    """dim - 1 weights of one of four families: real with a few negative
    ones, real with zeros, complex with phases of modulus 1e-12 to 1 and
    some zeros, and +-1e200 or +-1e-200 times a factor in [0.5, 2] with
    some zeros."""
    size = dim - 1
    if family == 0:
        return rng.choice([-1.0, 1.0], size, p=[0.05, 0.95]) * rng.uniform(0.5, 2.0, size)
    if family == 1:
        return rng.choice([-1.0, 0.0, 1.0], size, p=[0.05, 0.1, 0.85]) * rng.uniform(0.5, 2.0, size)
    if family == 2:
        angle = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12.0, 0.0, size)
        alive = rng.choice([0.0, 1.0], size, p=[0.05, 0.95])
        return np.exp(1j * angle) * rng.uniform(0.5, 2.0, size) * alive
    scale = rng.choice([1e200, 1e-200, -1e200, -1e-200, 0.0], size, p=[0.4, 0.4, 0.07, 0.07, 0.06])
    return scale * rng.uniform(0.5, 2.0, size)


class TestShiftTiles:
    """The shift rule tests its window lengths a tile at a time, and decides
    each as the loop over the lengths did."""

    def test_tiled_rule_is_the_loop(self, monkeypatch):
        # 4 x 160 seeded shifts of dims 2 to 300, 160 for each tile size; a
        # tile of 1 or 7 entries puts a tile edge at nearly every length
        rng = np.random.default_rng(29)
        seen = set()
        with warnings.catch_warnings():
            # neither the loop nor the tiles form a magnitude, so none
            # overflows next to huge weights
            warnings.simplefilter("error", RuntimeWarning)
            for tile in (1, 7, 64, evpos.classify.SHIFT_TILE):
                monkeypatch.setattr(evpos.classify, "SHIFT_TILE", tile)
                for trial in range(160):
                    dim = 300 if trial == 0 else int(rng.integers(2, 301))
                    T = WeightedShift(_seeded_shift_weights(rng, dim, trial % 4), Ell1())
                    expected = _shift_status_loop(T)
                    assert evpos.classify._shift_status(T) == expected, (tile, trial, dim)
                    seen.add((trial % 4, expected.n0 in (0, dim)))
        # each family has shifts that are decided at 0 or dim and in between
        assert len(seen) == 8, seen

    @pytest.mark.parametrize("tile", [1, 7, 64, evpos.classify.SHIFT_TILE])
    def test_tile_products_are_the_loops(self, monkeypatch, tile):
        # each row of a tile holds the loop's products of its length bit for
        # bit, and every window past the last weight is dead
        monkeypatch.setattr(evpos.classify, "SHIFT_TILE", tile)
        rng = np.random.default_rng([29, tile])
        for trial in range(12):
            dim = int(rng.integers(2, 301))
            weights = WeightedShift(_seeded_shift_weights(rng, dim, trial % 4), Ell1()).weights
            mag = np.abs(weights)
            phase = np.divide(weights, mag, out=np.zeros_like(weights), where=mag > 0)
            ph, length = phase, 1
            for k, P in evpos.classify._shift_tiles(phase):
                for t in range(len(P)):
                    assert k + t == length
                    live = len(ph)
                    assert P[t, :live].tobytes() == ph.tobytes()
                    assert not P[t, live:].any()
                    ph = ph[:-1] * phase[length:]
                    length += 1
            assert length == len(weights) + 1

    @pytest.mark.parametrize("tile", [1, 3, 7, 64])
    def test_every_tile_edge(self, monkeypatch, tile):
        # -1 then +1 weights with a zero at index m - 1: a window of length
        # k < m from the first weight is negative and every longer one
        # is dead, so n0 = m wherever m falls in a tile
        monkeypatch.setattr(evpos.classify, "SHIFT_TILE", tile)
        for dim in range(3, 25):
            for m in range(2, dim):
                weights = np.ones(dim - 1)
                weights[0], weights[m - 1] = -1.0, 0.0
                T = WeightedShift(weights, Ell1())
                assert evpos.classify._shift_status(T) == _shift_status_loop(T) == Confirmed(m)

    def test_peak_memory_at_dim_4000(self):
        # a tile holds at most SHIFT_TILE (window start, length) pairs, at
        # 16 bytes a phase: about 1.1 MB in all, where 64 lengths of all
        # 3,999 starts at a time peaked at 17 MB
        T = WeightedShift(-np.ones(3_999), Ell1())
        tracemalloc.start()
        try:
            status = evpos.classify._shift_status(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == Confirmed(4_000)
        assert peak <= 2e6, peak


def _seeded_symbol(rng, family: int) -> np.ndarray:
    """2 to 6 diagonal entries of one of four families: positive reals and
    zeros; positive reals, one of them turned off the reals by a phase of
    1e-15 to 1e-3; reals with a few negative ones; and positive multiples of
    roots of unity of order at most 6. The moduli range over 1e-5 to 1e5."""
    dim = int(rng.integers(2, 7))
    moduli = 10.0 ** rng.uniform(-5.0, 5.0, dim)
    if family == 0:
        return moduli * rng.choice([0.0, 1.0], dim, p=[0.2, 0.8])
    if family == 1:
        symbol = moduli.astype(complex)
        k = int(rng.integers(dim))
        symbol[k] *= np.exp(1j * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -3.0))
        return symbol
    if family == 2:
        return moduli * rng.choice([-1.0, 1.0], dim, p=[0.3, 0.7])
    q = rng.integers(1, 7, dim)
    return moduli * np.exp(2j * np.pi * rng.integers(0, 6, dim) / q)


def _seeded_real_weights(rng) -> np.ndarray:
    """1 to 29 real shift weights of sign -1, 0 or 1 and moduli from
    1e-300 to 1e300."""
    size = int(rng.integers(1, 30))
    signs = rng.choice([-1.0, 0.0, 1.0], size, p=[0.1, 0.1, 0.8])
    return signs * 10.0 ** rng.uniform(-300.0, 300.0, size)


LAST_POWER = 40


class TestExactOracle:
    """The eventual trio of a diagonal, of a real-weight shift and of a
    real dense matrix agrees with the exact powers (`exact.diagonal_powers`,
    `exact.shift_window_signs`, `exact.dense_powers`): a Confirmed(n0)
    holds at every n from max(n0, 1) to LAST_POWER (for a dense matrix, to
    max(2 n0, n0 + 6)) and fails at n0 - 1, and a refuted diagonal's
    witness entry is off the nonnegative reals at n = 1."""

    def test_diagonals_agree_with_their_exact_powers(self):
        rng = np.random.default_rng(32)
        symbols = [np.array([2.0, 1.0 + 1e-12j])]
        symbols += [_seeded_symbol(rng, trial % 4) for trial in range(199)]
        kinds = set()
        for symbol in symbols:
            T = Diagonal(symbol, Ell1())
            status = classify_eventual(T)[0].status
            assert {v.status for v in classify_eventual(T)} == {status}
            kinds.add(type(status))
            powers = list(exact.diagonal_powers(T.symbol, LAST_POWER))
            if isinstance(status, Confirmed):
                assert status == Confirmed(0), symbol
                assert all(exact.nonnegative(z) for p in powers for z in p), symbol
            else:
                assert isinstance(status, RefutedWithWitness), (symbol, status)
                k, s = status.witness
                assert s == T.symbol[k] and not exact.nonnegative(powers[0][k]), symbol
        assert kinds == {Confirmed, RefutedWithWitness}

    def test_real_shifts_agree_with_their_exact_window_signs(self):
        rng = np.random.default_rng(32)
        weights = [np.array([-1e-10, 0.0, 1e10])]
        weights += [_seeded_real_weights(rng) for _ in range(199)]
        thresholds = set()
        for w in weights:
            T = WeightedShift(w, Ell1())
            statuses = {v.status for v in classify_eventual(T)}
            assert len(statuses) == 1, statuses
            (status,) = statuses
            assert isinstance(status, Confirmed), (w, status)

            def holds(n):
                # T^n = 0 from n = dim on
                return n >= T.dim or min(exact.shift_window_signs(w, n)) >= 0

            n0 = status.n0
            assert all(holds(n) for n in range(max(n0, 1), LAST_POWER + 1)), (w, n0)
            if n0 > 0:
                assert not holds(n0 - 1), (w, n0)
            thresholds.add(min(n0, 2))
        assert thresholds == {0, 2}

    def test_dense_thresholds_agree_with_their_exact_powers(self):
        # generator instances at seeds that no workload uses: each n0 holds
        # from max(n0, 1) on, over max(n0, 6) more powers, and the power
        # before it has a negative entry
        rng = np.random.default_rng(33)
        thresholds = set()
        for t in range(40):
            dim = int(rng.integers(2, 13))
            T = make_eventually_positive(dim, 0.5, seed=7_000 + t).model
            statuses = {v.status for v in classify_eventual(T)}
            assert len(statuses) == 1, statuses
            (status,) = statuses
            assert isinstance(status, Confirmed), (t, status)
            n0 = status.n0
            last = max(2 * n0, n0 + 6)
            powers = list(exact.dense_powers(T.matrix, last))

            def holds(n):
                return all(v >= 0 for row in powers[n - 1] for v in row)

            assert all(holds(n) for n in range(max(n0, 1), last + 1)), (t, n0)
            if n0 >= 2:
                assert not holds(n0 - 1), (t, n0)
            thresholds.add(n0)
        assert thresholds == {0, 2, 3}


# a positive rank-1 projection plus a rotation of modulus 0.876 by 0.259 rad,
# spr about 1.000006: its powers are negative for n = 34 ... 38 only
STRADDLING = np.array(
    [[0.8596, 0.2173, 0.0274], [-0.2111, 0.8471, 0.0759], [0.0584, -0.0557, 0.9861]]
)


def _passes(P, tol) -> bool:
    """The sign test of the dense eventual trio on one power."""
    return entrywise_positive(P, tol * float(np.abs(P).max()))


def _power_failure_by_power(B: np.ndarray, n_t: int) -> int:
    """`_power_failure` one power at a time, as it was before the blocks:
    P_n = P_(n-1) @ B for n < n_t, a complex power tested entrywise and a
    real one from its least and largest entries; one past the last n that
    fails, or 0."""
    n0 = 0
    for n, P in enumerate(accumulate(repeat(B, n_t - 1), lambda P, _: P @ B), 1):
        if P.dtype.kind == "c":
            passes = _passes(P, DEFAULT_TOL)
        else:
            passes = float(P.min()) >= -DEFAULT_TOL * float(P.max())
        if not passes:
            n0 = n + 1
    return n0


class TestTailCertificate:
    """A dense eventual trio is decided with no horizon: exact nonnegativity,
    then the limit status, then a bound on the decay of S^n - L_1 that
    fixes how many powers are tested directly."""

    def test_straddling_matrix_does_not_move_with_the_horizon(self):
        for v in classify_eventual(Dense(STRADDLING, Ell1())):
            assert v.status == Confirmed(39)

    @pytest.mark.parametrize("norm", [Ell1, Ell2])
    def test_gaussian_inherits_the_asymptotic_refutation(self, norm):
        # dense-sweep's not-positive Gaussian at dim 96, seed 0
        rng = np.random.default_rng([0, 96])
        z = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        T = Dense(z / np.sqrt(2 * 96), norm())
        refuted = classify_asymptotic(T)[0].status
        assert isinstance(refuted, RefutedWithWitness)
        for v in classify_eventual(T):
            assert v.status == refuted

    def test_random_small_thresholds_agree_with_brute_force_powers(self):
        # the models of perfbench's random-small workload at seed 0: with S =
        # T/spr, S^(n0 - 1) fails the sign test, and S^n passes it for every
        # n from n0 to n0 + 200 and at n = 10^4
        dims = np.random.default_rng(0).permutation(np.repeat(np.arange(2, 13), 3))
        for t, dim in enumerate(dims):
            T = make_eventually_positive(int(dim), 0.5, seed=1000 + t).model
            status = uniform_eventual(T).status
            assert isinstance(status, Confirmed), (t, status)
            n0, tol = status.n0, DEFAULT_TOL
            S = T.matrix / T.spectral_radius()
            if n0 > 0:
                assert not _passes(np.linalg.matrix_power(S, n0 - 1), tol), t
            power = np.linalg.matrix_power(S, n0)
            for n in range(n0, n0 + 201):
                assert _passes(power, tol), (t, n)
                power = power @ S
            assert _passes(np.linalg.matrix_power(S, 10_000), tol), t

    def test_tolerance_is_no_proof_of_nonnegativity(self):
        # within tol of the cone up to the 10th power, not at the 11th
        T = Dense(np.array([[1.0, -1e-10], [0.0, 1.0]]), Ell1())
        assert not _passes(np.linalg.matrix_power(T.matrix, 11), DEFAULT_TOL)
        for v in classify_eventual(T):
            assert not isinstance(v.status, Confirmed), v

    @pytest.mark.parametrize(
        "T",
        [cyclic_block(3, 2), Dense(np.array([[1.0, 0.3], [0.0, 0.5]]), Ell1())],
        ids=["cyclic-block", "upper-triangular"],
    )
    def test_nonnegative_matrix_confirmed_with_no_eigen_solve(self, T, monkeypatch):
        def refuse(A):
            raise AssertionError("the spectrum was solved")

        monkeypatch.setattr(evpos.spectral, "eigenvalues", refuse)
        monkeypatch.setattr(evpos.operators, "eigenvalues", refuse)
        fresh = Dense(T.matrix, T.norm)
        for v in classify_eventual(fresh):
            assert v.status == Confirmed(0)

    def test_complex_phase_below_the_solver_tolerance_is_not_confirmed(self):
        # the peripheral eigenvalue / spr is e^(5e-10 i), within the solver's
        # tolerance of 1, so the limit status is confirmed; yet S^n turns
        # through 5e-10 n, and every power from n = 3 on fails the sign test
        T = Dense(np.exp(5e-10j) * np.array([[2.0, 1.0], [1.0, 2.0]]), Ell1())
        S = T.matrix / T.spectral_radius()
        assert not _passes(np.linalg.matrix_power(S, 21), DEFAULT_TOL)
        for v in classify_eventual(T):
            assert v.status == UndeterminedUpToHorizon(0), v

    def test_nilpotent_matrix_tests_the_powers_below_its_dimension(self):
        # spr = 0 leaves no limit status; T^2 = 0, and T fails the sign test
        T = Dense(np.array([[0.0, -1.0], [0.0, 0.0]]), Ell1())
        with pytest.raises(NotClassifiableError):
            classify_asymptotic(T)
        for v in classify_eventual(T):
            assert v.status == Confirmed(2)
        report, failed = run_classify(T, "nilpotent", 0)
        assert not failed
        assert [r["notion"] for r in report.classification] == [
            n.value for n in Notion if "eventual" in n.value
        ]

    def test_zero_matrix_gets_no_asymptotic_trio(self):
        # exactly nonnegative, so every power is; the rescaling is undefined
        report, failed = run_classify(Dense(np.zeros((3, 3)), Ell1()), "zero", 0)
        assert not failed
        assert {r["notion"]: r["status"] for r in report.classification} == dict.fromkeys(
            ("uniform-eventual", "individual-eventual", "weak-eventual"),
            {"kind": "confirmed", "n0": 0},
        )

    def test_nonnegative_confirmation_does_not_depend_on_call_order(self):
        # J's powers are nonnegative: both trios are confirmed, alone or in
        # one classification
        T = Dense(JORDAN, Ell1())
        assert all(v.status == Confirmed(0) for v in classify_asymptotic(T))
        report, failed = run_classify(Dense(JORDAN, Ell1()), "jordan", 0)
        assert not failed and len(report.classification) == 6
        assert all(r["status"] == {"kind": "confirmed", "n0": 0} for r in report.classification)

    def test_tail_beyond_the_cap_is_undetermined(self):
        # P + Q as above with Q of eigenvalue -0.999: the odd powers have
        # 0.04 + (-0.999)^n < 0 at (1, 1) up to n of about 3,200, beyond
        # MAX_TAIL, so the certificate does not apply
        u = np.array([1.0, 0.2]), np.array([0.2, -1.0])
        P = np.outer(u[0], u[0]) / (u[0] @ u[0])
        Q = -0.999 * np.outer(u[1], u[1]) / (u[1] @ u[1])
        T = Dense(P + Q, Ell1())
        assert not _passes(np.linalg.matrix_power(T.matrix, 2 * MAX_TAIL + 1), DEFAULT_TOL)
        for v in classify_eventual(T):
            assert v.status == UndeterminedUpToHorizon(0)

    def test_two_peripheral_eigenvalues_take_no_certificate(self):
        # a 2-cycle beside -0.5: the limit status is confirmed, as the limit
        # points are the two permutations, but the peripheral eigenvalues
        # are 1 and -1, so the tail certificate does not apply; (-0.5)^n is
        # negative at every odd power, so the eventual trio is not confirmed
        T = Dense(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.5]]), Ell1())
        assert [v.status for v in classify_asymptotic(T)] == [Confirmed(0)] * 3
        for v in classify_eventual(T):
            assert not isinstance(v.status, Confirmed), v

    def test_tail_needing_more_than_the_cap_is_not_confirmed(self):
        # L - 0.998 (I - L), L the projection onto v = (1, 0.2): S^n = L +
        # (-0.998)^n (I - L), whose (2, 2) entry is negative at every odd n
        # up to 1,607 and whose powers from 1,608 on are nonnegative; the
        # tail bound passes below the gap only past MAX_TAIL powers, so the
        # certificate does not apply
        v = np.array([1.0, 0.2])
        L = np.outer(v, v) / (v @ v)
        T = Dense(L - 0.998 * (np.eye(2) - L), Ell1())
        assert not _passes(np.linalg.matrix_power(T.matrix, 1607), DEFAULT_TOL)
        assert _passes(np.linalg.matrix_power(T.matrix, 1608), DEFAULT_TOL)
        assert _passes(np.linalg.matrix_power(T.matrix, 1609), DEFAULT_TOL)
        assert [v.status for v in classify_asymptotic(T)] == [Confirmed(0)] * 3
        for v in classify_eventual(T):
            assert not isinstance(v.status, Confirmed), v


class TestDeltaN:
    def test_ell1_extreme_points_exact(self):
        T = nonreal_diagonal()
        for n in range(1, 12):
            val, witness = delta_n(T, n)
            # d_+((i/2)^n e_2): 0 when (i/2)^n is positive real, else the
            # distance of the single complex entry to the half-line
            z = (0.5j) ** n
            expected = np.hypot(max(-z.real, 0.0), z.imag)
            assert val == pytest.approx(expected, abs=1e-12)
            if n % 4:
                assert np.array_equal(witness.entries, [0, 1])

    @pytest.mark.parametrize("dim", [2, 25])
    def test_sup_norm_rejected_at_any_size(self, dim):
        T = Dense(np.eye(dim, dtype=complex), EllInf())
        with pytest.raises(ValueError, match="no exact delta_n"):
            delta_n(T, 1)

    def test_norm_without_exact_rule_rejected(self):
        with pytest.raises(ValueError, match="no exact delta_n"):
            delta_n(Dense(np.eye(2, dtype=complex), Ell2()), 1)

    def test_negative_power_rejected(self):
        T = Diagonal(np.array([2.0, -1.0]), Ell1())
        with pytest.raises(ValueError, match="n >= 0"):
            delta_n(T, -1)

    def test_zero_spectral_radius_rejected(self):
        T = WeightedShift(np.array([-1.0]), Ell1())
        with pytest.raises(NotClassifiableError):
            delta_n(T, 1)


class TestAsymptotic:
    def test_nonreal_diagonal_all_confirmed(self):
        u, i, w = classify_asymptotic(nonreal_diagonal())
        assert isinstance(u.status, Confirmed)
        assert isinstance(i.status, Confirmed)
        assert isinstance(w.status, Confirmed)

    def test_drift_diagonal_all_refuted(self):
        u, i, w = classify_asymptotic(diagonal_drift(50))
        assert isinstance(u.status, RefutedWithWitness)
        assert isinstance(i.status, RefutedWithWitness)
        assert isinstance(w.status, RefutedWithWitness)

    def test_drift_uniform_witness_is_last_basis_vector(self):
        u, _, _ = classify_asymptotic(diagonal_drift(50))
        witness = u.status.witness
        assert isinstance(witness, LatticeVector)
        # the worst direction is the symbol entry closest to -1
        assert witness.entries[-1] == pytest.approx(1.0)
        assert np.sum(np.abs(witness.entries)) == pytest.approx(1.0)

    def test_positive_matrix_confirmed(self):
        A = Dense(np.array([[0.6, 0.4], [0.3, 0.7]]), Ell1())
        u, i, w = classify_asymptotic(A)
        assert isinstance(u.status, Confirmed)

    def test_rotation_refuted(self):
        # the rescaling by 1/spr is defined at every spr > 0, however small
        theta = 2 * np.pi / 5
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        for scale in (1.0, 1e-12):
            u, i, w = classify_asymptotic(Dense(scale * R, Ell2()))
            assert isinstance(w.status, RefutedWithWitness)
        # so the peripheral checks keep their refuted hypotheses
        report, failed = run_classify(Dense(1e-12 * ROTATION, Ell1()), "rotation", 0)
        assert not failed
        assert report.contradiction_count == 0


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
THREE_CYCLE = np.roll(np.eye(3), 1, axis=0)
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
JORDAN_MINUS = np.array([[1.0, -1.0], [0.0, 1.0]])
ROTATION_BY_ONE_RADIAN = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])


class TestPeripheralRule:
    """A finite model's asymptotic trio is decided from its peripheral
    spectral decomposition, with no horizon, and agrees with the exact
    delta_n over p consecutive powers, p the lcm of the peripheral root
    orders (any p for the irrational rotation).
    The powers are taken near 30,000: (-0.999)^n needs n >= 20,713 to fall
    below the tolerance."""

    @pytest.mark.parametrize(
        "matrix, kind, p",
        [
            *((cyclic_block(k, 2, norm=Ell1()).matrix, Confirmed, k) for k in (2, 3, 6)),
            (SWAP, Confirmed, 2),
            (-SWAP, RefutedWithWitness, 2),
            (THREE_CYCLE, Confirmed, 3),
            (-THREE_CYCLE, RefutedWithWitness, 6),
            (ROTATION_BY_ONE_RADIAN, RefutedWithWitness, 2),
            (np.diag([1.0, -0.999]), Confirmed, 1),
            # a peripheral Jordan block: S^n = I + n (S - I), whose leading
            # part is negative for J with -1, which refutes; J is exactly
            # nonnegative, as is every power, so it is confirmed before the
            # rule is read (the rule alone leaves it undetermined, see
            # test_limit_point_scan_is_bounded)
            (JORDAN, Confirmed, 1),
            (JORDAN_MINUS, RefutedWithWitness, 1),
        ],
        ids=[
            "cyclic-2", "cyclic-3", "cyclic-6", "swap", "minus-swap", "3-cycle",
            "minus-3-cycle", "irrational-rotation", "diag-1-minus-0.999", "jordan",
            "jordan-minus-1",
        ],
    )
    def test_rule_agrees_with_delta_n(self, matrix, kind, p):
        T = Dense(matrix, Ell1())
        trio = classify_asymptotic(T)
        # one verdict for the three notions, as its report record shows it
        records = {str(verdict_record(v)["status"]) for v in trio}
        assert len(records) == 1
        status = trio[0].status
        assert type(status) is kind, status
        # refuted exactly when some power in the window stays off the cone
        tol = DEFAULT_TOL
        deltas = [delta_n(T, n)[0] for n in range(30_000, 30_000 + p)]
        assert (max(deltas) > tol) == (kind is RefutedWithWitness), deltas

    @pytest.mark.parametrize(
        "sign, kind", [(1.0, UndeterminedUpToHorizon), (-1.0, RefutedWithWitness)]
    )
    def test_limit_point_scan_is_bounded(self, sign, kind, monkeypatch):
        # a peripheral Jordan block on each point of a permutation with
        # cycles 5, 7, 8, 9 and 11: m = 2 and p = 27,720 limit points, of
        # which at most MAX_PERIOD are formed. With J, every L_r is positive,
        # so the rule leaves the status undetermined (the trio is confirmed,
        # as the matrix is nonnegative); with -J, L_0 is negative
        P = scipy.linalg.block_diag(*(np.roll(np.eye(k), 1, axis=0) for k in (5, 7, 8, 9, 11)))
        T = Dense(np.kron(P, sign * np.array([[1.0, 1.0], [0.0, 1.0]])), Ell1())
        assert T.spectral_data().order == 2
        # each limit point formed is scanned once by `_worst_entry`
        formed = []
        scan = evpos.classify._worst_entry

        def counting(*args, **kwargs):
            formed.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(evpos.classify, "_worst_entry", counting)
        status = evpos.classify._peripheral_status(T)
        assert type(status) is kind, status
        if kind is UndeterminedUpToHorizon:
            assert status == UndeterminedUpToHorizon(0)
            assert 0 < len(formed) <= MAX_PERIOD
        else:
            # the scan stops at the first limit point that refutes, and names it
            assert len(formed) == 1
            assert status.description.startswith("limit point L_0 has entry")

    def test_limit_point_witness_is_a_basis_vector(self):
        # the powers of -S alternate between I and -S, which has -1 at (0, 1)
        # and at (1, 0): L_1 refutes, with either column as witness
        status = classify_asymptotic(Dense(-SWAP, Ell1()))[0].status
        j = int(np.flatnonzero(status.witness.entries)[0])
        assert np.array_equal(status.witness.entries, np.eye(2)[j])
        assert status.description == (
            f"limit point L_1 has entry ({1 - j}, {j}) at 1 from the positive reals"
        )

    def test_power_bounded_rule_reads_one_limit_point(self):
        # cycles of lengths 5, 7, 8, 9, 11 and 13 give p = 360,360 limit points;
        # as L_r = L_1^r, L_1 alone decides
        cycles = (np.roll(np.eye(n), 1, axis=0) for n in (5, 7, 8, 9, 11, 13))
        P = scipy.linalg.block_diag(*cycles)
        assert classify_asymptotic(Dense(P, Ell1()))[0].status == Confirmed(0)
        refuted = classify_asymptotic(Dense(-P, Ell1()))[0].status
        assert refuted.description.startswith("limit point L_1 has entry")

    @pytest.mark.parametrize(
        "matrix",
        [
            np.exp(5e-10j) * np.array([[2.0, 1.0], [1.0, 2.0]]),
            np.array([[2.0, 1.0 + 1e-12j], [1.0, 2.0]]),
            np.diag([1.0, 0.5j]),
        ],
        ids=["phase-5e-10", "entry-1e-12i", "diag(1, 0.5i)"],
    )
    def test_complex_matrix_is_not_confirmed_by_its_limit_point(self, matrix):
        # each L_1 is positive, but a complex matrix's mu may be e^(i phi)
        # with phi below the solver's tolerance: S^n of the first one turns
        # through 5e-10 n, and every power from the 3rd on fails the sign test
        T = Dense(matrix, Ell1())
        for v in classify_asymptotic(T):
            assert v.status == UndeterminedUpToHorizon(0), v
        # so the check that a confirmed uniform trio gates does not run
        report, failed = run_classify(T, "complex", 0)
        assert not failed
        assert "positive-eigenvector" not in {c["name"] for c in report.checks}

    def test_split_jordan_block_is_one_eigenvalue_of_order_two(self):
        # similar to J; the solver splits its eigenvalue into 1 +- 3e-8, and
        # the merged pair has pole order 2. The powers are I + n (A - I), so
        # the limit point L_0 is the nilpotent part A - I, with -1 at (0, 0)
        A = np.array([[0.0, 2.0], [-0.5, 2.0]])
        T = Dense(A, Ell1())
        spec = T.spectral_data()
        assert len(spec.peripheral_eigenvalues) == 1
        assert abs(spec.peripheral_eigenvalues[0] - 1.0) < 1e-12
        assert spec.pole_orders == (2,)
        report, failed = run_classify(T, "split-jordan", 0)
        assert not failed
        cyclicity = next(c for c in report.checks if c["name"] == "peripheral-cyclicity")
        assert cyclicity["hypotheses"]["power-bounded"] is False
        status = classify_asymptotic(T)[0].status
        assert isinstance(status, RefutedWithWitness)
        assert np.array_equal(status.witness.entries, [1.0, 0.0])
        assert status.description == (
            "limit point L_0 has entry (0, 0) at 1 from the positive reals"
        )

    @pytest.mark.parametrize(
        "matrix, kind",
        [
            (np.diag([1.0, 1.0 - 5e-6, 0.3]), Confirmed),
            # S^-1 diag(1, 1 - d) S: the projection at 1 has a negative
            # entry, which the projection of the merged pair (I) would hide;
            # at d = 5e-9 both eigenvalues lie within tol * spr of spr, and
            # only the larger is peripheral
            *(
                (
                    np.linalg.solve([[2.0, 1.0], [1.0, 3.0]], np.diag([1.0, 1.0 - d]))
                    @ np.array([[2.0, 1.0], [1.0, 3.0]]),
                    RefutedWithWitness,
                )
                for d in (5e-8, 5e-9)
            ),
        ],
        ids=["diag-near-spr", "similar-diag-near-spr", "similar-diag-within-tol"],
    )
    def test_semisimple_eigenvalues_near_spr_stay_apart(self, matrix, kind):
        T = Dense(matrix, Ell1())
        spec = T.spectral_data()
        assert spec.pole_orders == (1,)
        assert spec.multiplicities == (1,)
        assert len(set(spec.eigenvalues)) == len(matrix)
        status = classify_asymptotic(T)[0].status
        assert type(status) is kind
        if kind is RefutedWithWitness:
            assert status.description == (
                "limit point L_1 has entry (1, 0) at 0.4 from the positive reals"
            )

    @pytest.mark.parametrize(
        "matrix",
        [[[1.0, 100.0], [0.0, 0.99]], [[1.0, 1e4], [0.0, 0.0]]],
        ids=["gap-0.01", "idempotent"],
    )
    def test_distinct_eigenvalues_of_a_non_normal_matrix_stay_apart(self, matrix):
        # lam - A at the mean of the pair has one tiny singular value, but
        # (lam - A)^2 is (gap/2)^2 I, far above rounding, so no merge: A^n
        # tends to the nonnegative projection [[1, 1e4], [0, 0]] at spr 1
        T = Dense(np.array(matrix), Ell1())
        assert T.spectral_data().clusters == ()
        assert T.spectral_radius() == 1.0
        assert T.spectral_data().pole_orders == (1,)
        assert all(isinstance(v.status, Confirmed) for v in classify_asymptotic(T))
        report, failed = run_classify(T, "non-normal", 0)
        assert not failed and report.contradiction_count == 0

    @pytest.mark.parametrize("seed", [3, 5, 28])
    def test_nonnegative_jordan_block_is_merged_without_contradiction(self, seed):
        # a permuted M (x) J_2(1), M positive with spr 1: the powers are
        # nonnegative and grow like n, the solver splits the double
        # eigenvalue 1, and before merging the split read pole order 1 or
        # refuted from an L_0 entry of the size of the split. The trio is
        # confirmed from the nonnegative entries; the rule alone is undecided
        rng = rng_for(seed, 0)
        M = rng.uniform(0.1, 1.0, (3, 3))
        M /= np.max(np.abs(np.linalg.eigvals(M)))
        p = rng.permutation(6)
        T = Dense(np.kron(M, [[1.0, 1.0], [0.0, 1.0]])[p][:, p], Ell1())
        assert T.spectral_data().pole_orders == (2,)
        assert T.spectral_data().multiplicities == (2,)
        report, failed = run_classify(T, "jordan", 0)
        assert not failed and report.contradiction_count == 0
        assert all(v.status == Confirmed(0) for v in classify_asymptotic(T))
        status = evpos.classify._peripheral_status(T)
        assert isinstance(status, UndeterminedUpToHorizon)

    def test_merge_error_keeps_a_refutation_off(self):
        # 1 and 1 - 1e-6 with coupling 100 lie within rounding of a double
        # eigenvalue and merge at their mean; L_0 = (A - lam) P then has
        # -5e-7 at (1, 1), no more than the merge's own error, so the rule
        # leaves it undetermined rather than refuted (the trio is confirmed,
        # as the matrix is nonnegative)
        T = Dense(np.array([[1.0, 100.0], [0.0, 1.0 - 1e-6]]), Ell1())
        spec = T.spectral_data()
        assert spec.pole_orders == (2,)
        assert spec.spreads[0] == pytest.approx(5e-7)
        assert spec.coefficient_error >= 5e-7 * spec.scale
        report, failed = run_classify(T, "near-double", 0)
        assert not failed and report.contradiction_count == 0
        status = evpos.classify._peripheral_status(T)
        assert isinstance(status, UndeterminedUpToHorizon)

    @pytest.mark.parametrize("seed", range(8))
    def test_rounding_of_a_large_projection_does_not_refute(self, seed):
        # a permuted D B D^-1, B block diagonal with two or three positive
        # blocks of spectral radius 1 and D = diag(10^u), u uniform in
        # (-3, 3): nonnegative, with a semisimple multiple eigenvalue 1 whose
        # projection has entries up to about 1e5, and whose computed L_1 has
        # entries down to about -3e-9 by rounding alone (seed 0)
        rng = rng_for(seed, 36)
        blocks = []
        for _ in range(int(rng.integers(2, 4))):
            M = rng.uniform(0.1, 1.0, size=(int(rng.integers(2, 4)),) * 2)
            blocks.append(M / np.max(np.abs(np.linalg.eigvals(M))))
        B = scipy.linalg.block_diag(*blocks)
        d = 10.0 ** rng.uniform(-3.0, 3.0, size=len(B))
        p = rng.permutation(len(B))
        T = Dense((d[:, None] * B / d[None, :])[p][:, p], Ell1())
        report, failed = run_classify(T, "scaled-blocks", 0)
        assert not failed and report.contradiction_count == 0
        assert all(isinstance(v.status, Confirmed) for v in classify_asymptotic(T))

    def test_diagonal_decided_from_its_symbol_at_any_size(self):
        symbol = np.concatenate([np.linspace(0.0, 0.5, 998), [-1.0, 1.0]])
        u, i, w = classify_asymptotic(Diagonal(symbol, Ell1()))
        assert u.status is i.status is w.status
        assert np.flatnonzero(u.status.witness.entries).tolist() == [998]
        squared = classify_asymptotic(Diagonal(symbol[1:] ** 2, Ell1()))[0]
        assert squared.status == Confirmed(0)


def _slope_model(c, nodes=41) -> RankK:
    """g -> (1/2) int g + c (g(1) - g(-1)) x on a sup-norm grid over [-1, 1],
    with eigen-parameters 1 and 2c. The trapezoid rows integrate 1 and x
    exactly, so the dense view has the same powers as the model's orbit."""
    return RankK(
        (Constant(1.0), Monomial(1)),
        (WeightedIntegral(Constant(1.0), 0.5), PointCombination((1.0, -1.0), (c, -c))),
        GridSup(tuple(np.linspace(-1.0, 1.0, nodes))),
    )


SLOPES = [0.25, 0.75, 0.5, -0.5, 0.5j]
SLOPE_IDS = ["c=0.25", "c=0.75", "c=0.5", "c=-0.5", "c=0.5j"]


class TestExactPeripheralEntries:
    """A peripheral entry of an exact input counts as spr only when it is
    spr exactly: mu = e^(i eps) with eps below the tolerance still turns
    round to -1 near n = pi/eps, however small eps is."""

    @pytest.mark.parametrize("eps", [1e-12, 1e-9])
    def test_tiny_phase_diagonal_is_refuted(self, eps):
        assert np.exp(1j * eps * round(np.pi / eps)).real < -0.99
        T = Diagonal(np.array([np.exp(1j * eps), 0.5]), Ell1())
        assert abs(T.symbol[0]) == T.spectral_radius()
        report, failed = run_classify(T, "tiny-phase", 0)
        assert not failed and report.contradiction_count == 0
        assert {r["status"]["kind"] for r in report.classification} == {"refuted"}
        for trio in (classify_eventual(T), classify_asymptotic(T)):
            assert "at index 0" in trio[0].status.description

    @pytest.mark.parametrize("eps", [1e-12, 1e-9])
    def test_tiny_phase_rank_k_is_not_confirmed(self, eps):
        # g -> (1/2) e^(i eps) (int g) 1 has lam = e^(i eps), a root of
        # unity of order 1 only within the tolerance, and L_1 within it of
        # the positive reals
        grid = GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
        phi = WeightedIntegral(Constant(1.0), 0.5 * np.exp(1j * eps))
        T = RankK((Constant(1.0),), (phi,), grid)
        assert T.eigen_parameters[0] != 1
        assert abs(T.eigen_parameters[0] - np.exp(1j * eps)) < 1e-15
        for trio in (classify_asymptotic(T), classify_eventual(T)):
            assert {v.status for v in trio} == {UndeterminedUpToHorizon(0)}

    @pytest.mark.parametrize(
        "symbol, eventual, asymptotic",
        [
            ([2.0, 1.0, 0.0], Confirmed, Confirmed),
            ([2.0, -2.0], RefutedWithWitness, RefutedWithWitness),
            ([2.0, 2j], RefutedWithWitness, RefutedWithWitness),
            # (1 + 1e-12 i)^n is non-real at every n; relative to spr^n it
            # dies out, so the limit is positive
            ([2.0, 1.0 + 1e-12j], RefutedWithWitness, Confirmed),
            # 0.999 e^(1e-10 i) is non-real at n = 1 already, and its powers
            # turn round to the negative reals near n = pi 1e10
            ([1.0, 0.999 * np.exp(1e-10j)], RefutedWithWitness, Confirmed),
        ],
        ids=["positive", "minus-spr", "i-spr", "tiny-phase-inside", "slow-turn-inside"],
    )
    def test_only_entries_of_modulus_spr_are_exact(self, symbol, eventual, asymptotic):
        # the eventual trio reads every entry's sign exactly, however small
        # its phase or modulus; the limit keeps only the entries of modulus
        # spr, which are exact
        T = Diagonal(np.array(symbol, dtype=complex), Ell1())
        assert {type(v.status) for v in classify_eventual(T)} == {eventual}
        assert {type(v.status) for v in classify_asymptotic(T)} == {asymptotic}
        if eventual is RefutedWithWitness:
            k, s = classify_eventual(T)[0].status.witness
            assert s == T.symbol[k] and not (s.imag == 0 and s.real >= 0)


class TestRankKLimitRule:
    """A rank-k model's asymptotic trio is decided from its eigen-parameters,
    with one status and no orbit, and agrees with brute-force powers of its
    dense view over p consecutive powers near n = 1,000, p the lcm of the
    peripheral root orders."""

    @pytest.mark.parametrize(
        "c, kind, p",
        [
            # lam = (1, 0.5): S^n tends to the averaging projection
            (0.25, Confirmed, 1),
            # lam = (1, 1.5): S^n tends to the slope projection
            (0.75, RefutedWithWitness, 1),
            # lam = (1, 1): S^n = T, which maps a hat at 1 negative
            (0.5, RefutedWithWitness, 1),
            # lam = (1, -1): the odd powers are P_1 - P_2
            (-0.5, RefutedWithWitness, 2),
            # lam = (1, i): i^2 = -1 is no eigenvalue, so not cyclic
            (0.5j, RefutedWithWitness, 4),
        ],
        ids=SLOPE_IDS,
    )
    def test_rule_agrees_with_brute_force_powers(self, c, kind, p):
        T = _slope_model(c)
        trio = classify_asymptotic(T)
        assert all(v.status is trio[0].status for v in trio)
        assert type(trio[0].status) is kind, trio[0].status
        A = to_dense(T).matrix / T.spectral_radius()
        S = np.linalg.matrix_power(A, 1_000)
        residuals = []
        for _ in range(p):
            residuals.append(float(cone_residual(S).max()))
            S = S @ A
        assert (max(residuals) > DEFAULT_TOL) == (kind is RefutedWithWitness), residuals

    @pytest.mark.parametrize("c", [0.75, 0.5, -0.5])
    def test_limit_point_witness_is_a_basis_vector(self, c):
        T = _slope_model(c)
        status = classify_asymptotic(T)[0].status
        j = int(np.flatnonzero(status.witness.entries)[0])
        e = np.eye(T.dim)[j]
        assert np.array_equal(status.witness.entries, e)
        assert status.description.startswith("limit point L_1 has entry")
        # S^n e_j stays off the cone along n = 1 mod 2
        A = to_dense(T).matrix / T.spectral_radius()
        assert cone_residual(np.linalg.matrix_power(A, 1_001) @ e).max() > 0.4

    @pytest.mark.parametrize("c", SLOPES, ids=SLOPE_IDS)
    def test_refuted_limit_refutes_the_eventual_trio(self, c):
        # each eventual notion implies its asymptotic one, so no eventual
        # verdict may be confirmed above the refuted trio
        report, failed = run_classify(_slope_model(c), "slope", 0)
        assert not failed and report.contradiction_count == 0
        kinds = {r["notion"]: r["status"]["kind"] for r in report.classification}
        refuted = {notion for notion, kind in kinds.items() if kind == "refuted"}
        if c == 0.25:
            assert refuted == {"uniform-eventual"}
        else:
            assert refuted == set(kinds)

    @pytest.mark.parametrize("c, kind", [(0.25, Confirmed), (0.5, RefutedWithWitness)])
    def test_large_grid_never_densifies(self, c, kind, monkeypatch):
        def refuse(self):
            raise AssertionError("a rank-k model was densified")

        monkeypatch.setattr(RankK, "dense", refuse)
        T = _slope_model(c, nodes=1_001)
        tracemalloc.start()
        try:
            trio = classify_asymptotic(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(trio[0].status) is kind
        # one dim x dim array of floats alone would take dim^2 * 8 bytes
        assert peak < T.dim**2 * 8

    def test_single_real_term_is_read_from_its_factors(self):
        # lam = (1, 0.2): L_1 = 1 (x) (1/2) int is one real outer product,
        # whose worst entry is found from its two factors; one block of
        # LIMIT_POINT_ROWS rows of L_1 alone would take 64 x 2,001 x 8 bytes,
        # and the block scan's peak was 2.08 MB
        T = _slope_model(0.1, nodes=2_001)
        tracemalloc.start()
        try:
            trio = classify_asymptotic(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trio[0].status == Confirmed(0)
        assert peak < LIMIT_POINT_ROWS * T.dim * 8 / 4

    def test_outer_worst_entry_is_the_block_scan(self):
        # (residual, i, j) of the outer product f phi^T equals the block
        # scan's bit for bit, types too, over mixed signs, ties at
        # half-integers, exact and signed zeros, and products that underflow
        rng = rng_for(0, 27)
        draws = [
            lambda n: rng.normal(size=n),
            lambda n: rng.integers(-3, 4, size=n) / 2.0,
            lambda n: rng.normal(size=n) * (rng.random(n) < 0.5),
            lambda n: rng.normal(size=n) * 1e-170,
            lambda n: np.abs(rng.normal(size=n)),
            lambda n: rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300, 3.0], size=n),
        ]
        for _ in range(1_500):
            n = int(rng.integers(1, 301))
            f, phi = (draws[k](n) for k in rng.integers(len(draws), size=2))
            F, Phi = f[:, None].copy(), phi[None, :].copy()
            scanned = _worst_entry((start, B @ Phi) for start, B in _row_blocks(F))
            closed = _outer_worst_entry(f, phi)
            assert closed == scanned and list(map(type, closed)) == list(map(type, scanned))
            assert np.signbit(closed[0]) == np.signbit(scanned[0])

    def test_one_limit_status_per_classification(self, monkeypatch):
        # both trios of ex2.2b read one decision of the limit-point rule
        calls = []
        rule = evpos.classify._rank_k_limit_status

        def counting(T, *peripheral):
            calls.append(T)
            return rule(T, *peripheral)

        monkeypatch.setattr(evpos.classify, "_rank_k_limit_status", counting)
        entry = get_example("ex2.2b")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed and len(report.classification) == 6
        assert len(calls) == 1


def _peripheral_status_scanned(T: Dense):
    """`_peripheral_status` as it was before `_residual_bound`: L_1 formed
    from the coefficients divided by (scale spr)^0, and the whole
    `_worst_entry` scan on every call."""
    C_ = evpos.classify
    spec = T.spectral_data()
    spr, m, top = spec.spectral_radius, spec.order, spec.top
    mu = spec.peripheral_eigenvalues[top] / spr
    count = len(spec.peripheral_indices)
    q = [C_._root_of_unity_order(z, count, evpos.spectral.DEFAULT_TOL) for z in mu]
    if None in q:
        return UndeterminedUpToHorizon(0) if m > 1 else C_._not_cyclic(mu, q, count)
    C = np.stack([spec.coefficient(k) for k in top]) / (spec.scale * spr) ** (m - 1)
    assert m == 1, "the rule at m > 1 is unchanged"
    slack = T.dim * C_.EPS * float(np.sum(np.linalg.norm(C, axis=(1, 2)) ** 2))
    worst = _worst_entry([(0, np.tensordot(mu**1, C, axes=1))])
    refuted = C_._limit_point_refutation(T, worst, 1, DEFAULT_TOL + slack)
    return refuted or (UndeterminedUpToHorizon(0) if T.matrix.imag.any() else Confirmed(0))


def _with_projection(v, w, rest) -> np.ndarray:
    """The matrix v w^T / (w^T v) + (I - P) rest (I - P), whose eigenvalue 1
    has that projection P, with rest scaled well inside the unit disc."""
    P = np.outer(v, w) / (w @ v)
    Q = np.eye(len(v)) - P
    B = Q @ rest @ Q
    return P + 0.4 * B / max(np.abs(np.linalg.eigvals(B)).max(), 1e-300)


def _same_status(a, b) -> bool:
    """Equal statuses, a witness basis vector compared entry by entry."""
    if type(a) is not type(b):
        return False
    if isinstance(a, RefutedWithWitness):
        wa, wb = (getattr(s.witness, "entries", s.witness) for s in (a, b))
        return a.description == b.description and np.array_equal(wa, wb)
    return a == b


class TestReductionKernels:
    """The sign test of a dense power and the m = 1 limit-point rule decide
    from reductions what the full entrywise passes decided."""

    def test_block_test_is_the_entrywise_test(self):
        # a real power is decided from its least and largest entries, a
        # complex one from its least real part and largest imaginary
        # modulus; each row of a block is one power
        rng = rng_for(0, 28)
        draws = [
            lambda s: rng.normal(size=s),
            lambda s: rng.integers(-2, 3, size=s) / 2.0,
            lambda s: np.abs(rng.normal(size=s)) - 1e-9 * rng.random(s),
            lambda s: rng.choice([0.0, -0.0], size=s),
            lambda s: -np.abs(rng.normal(size=s)),
            lambda s: rng.choice([1.0, -1e-9, -1.0000001e-9, -0.0, 2.0], size=s),
        ]
        for k in range(1_200):
            n = int(rng.integers(1, 20))
            P = draws[k % len(draws)]((n, n))
            if k % 7 == 0:
                P[rng.integers(n), rng.integers(n)] = np.nan
            if k % 3 == 1:
                P = P + 1e-9 * draws[(k + 1) % len(draws)]((n, n)) * 1j
            block = np.stack([P, -P, P * 1e-300, P * 1e300])
            flags = _block_passes(block.reshape(len(block), -1))
            assert flags.tolist() == [_passes(Q, DEFAULT_TOL) for Q in block], k
        for Q in (np.zeros((3, 3)), -np.zeros((3, 3)), -np.ones((2, 2)), np.full((2, 2), np.nan)):
            assert _block_passes(Q.reshape(1, -1)).tolist() == [_passes(Q, DEFAULT_TOL)]

    @pytest.mark.parametrize("tile", [1, 40, POWER_TILE])
    def test_block_powers_are_the_per_power_test(self, tile, monkeypatch):
        # blocks of one power, of a few, and of every power a small matrix
        # has below MAX_TAIL; the powers are P_n = P_(n-1) @ B either way, so
        # they are the same bit for bit, and NaN, inf and 0 entries take the
        # same branch of the test
        monkeypatch.setattr(evpos.classify, "POWER_TILE", tile)
        rng = rng_for(0, 28)
        thresholds = set()
        for k in range(240):
            n = int(rng.integers(1, 9))
            family = k % 4
            if family == 0:
                # a positive rank-1 part and a smaller signed one: the powers
                # turn positive after a few
                B = np.outer(rng.random(n) + 0.5, rng.random(n) + 0.5) / n
                B = B + 0.3 * rng.normal(size=(n, n)) / n
            elif family == 1:
                B = np.triu(rng.choice([-1.0, 0.0, 2.0], size=(n, n)), 1)
            elif family == 2:
                B = rng.normal(size=(n, n))
            else:
                B = rng.choice([1.0, -1e-9, -1.0000001e-9, -0.0, 0.0, 2.0], size=(n, n))
            if k % 3 == 1:
                B = B + 1e-11j * rng.normal(size=(n, n))
            elif k % 3 == 2:
                B = B * np.exp(1j * rng.choice([0.0, 1e-10, 0.3]))
            if k % 11 == 0:
                B[rng.integers(n), rng.integers(n)] = np.nan
            for scale in (1.0, 1e200, 1e-300):
                n_t = int(rng.integers(0, 40))
                with np.errstate(all="ignore"):
                    n0 = _power_failure(B * scale, n_t)
                    assert n0 == _power_failure_by_power(B * scale, n_t), (k, scale)
                thresholds.add(min(n0, 3))
        assert thresholds == {0, 2, 3}

    def test_nilpotent_powers_stay_in_a_few_blocks_of_memory(self):
        # the -1 shift as a Dense: spr is exactly 0, so every power below
        # dim is tested, and the odd ones are negative. All 199 powers at
        # once would take 127 MB; one block, the power it is formed from and
        # the moduli of one power took 1.3 MB
        dim = 200
        T = Dense(np.diag(-np.ones(dim - 1), 1), Ell1())
        assert T.spectral_radius() == 0.0
        tracemalloc.start()
        try:
            statuses = {v.status for v in classify_eventual(T)}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, peak
        assert statuses == {Confirmed(dim)}
        shift = WeightedShift(-np.ones(dim - 1), Ell1())
        assert classify_eventual(shift)[0].status == Confirmed(dim)

    def test_peripheral_status_is_the_full_scan(self):
        rng = rng_for(0, 29)
        models = [make_eventually_positive(d, 0.5, s, norm=Ell1()).model
                  for d in (3, 8, 17) for s in range(3)]
        models += [cyclic_block(k, 2, norm=Ell1()) for k in (2, 3)]
        for _ in range(40):
            n = int(rng.integers(2, 9))
            v, w = np.abs(rng.normal(size=n)) + 0.1, np.abs(rng.normal(size=n)) + 0.1
            rest = rng.normal(size=(n, n))
            # a Perron projection with a negative entry at about the
            # threshold (factor near 1), or far beyond it: a refutation
            for factor in (0.3, 0.9, 1.0, 1.1, 3.0, 1e6):
                v2 = v.copy()
                v2[0] = -factor * DEFAULT_TOL * (w @ v) / w.max()
                models.append(Dense(_with_projection(v2, w, rest), Ell1()))
            # a complex projection whose imaginary part is about the
            # threshold: undetermined or refuted, each side of the bound
            u = rng.normal(size=n)
            for factor in (0.2, 0.45, 0.55, 0.9, 1.0, 1.1, 2.0):
                eps = factor * DEFAULT_TOL / np.abs(np.outer(u, w)).max()
                models.append(Dense(_with_projection(v + 1j * eps * u, w, rest), Ell1()))
        decided = set()
        for T in models:
            try:
                expected = _peripheral_status_scanned(T)
            except evpos.spectral.SpectralError:
                continue
            got = evpos.classify._peripheral_status(T)
            assert _same_status(got, expected), (T.matrix, got, expected)
            decided.add(type(got))
        assert decided == {Confirmed, RefutedWithWitness, UndeterminedUpToHorizon}

    @pytest.mark.parametrize(
        "imag, eventual, asymptotic",
        [
            (-0.0, Confirmed(2), Confirmed(0)),
            (5e-324, UndeterminedUpToHorizon(0), UndeterminedUpToHorizon(0)),
            (-5e-324, UndeterminedUpToHorizon(0), UndeterminedUpToHorizon(0)),
        ],
    )
    def test_exact_realness_reads_signed_zeros_and_subnormals(self, imag, eventual, asymptotic):
        # the real matrix's verdicts stand with an imaginary part of -0.0,
        # which is 0; the least subnormal one makes the matrix complex, and
        # a complex matrix with a positive limit point is undetermined
        model = make_eventually_positive(3, 0.5, seed=1).model
        A = model.matrix.copy()
        A[0, 0] = complex(A[0, 0].real, imag)
        T = Dense(A, model.norm)
        limit = evpos.classify.LimitStatus(T)
        assert {v.status for v in classify_eventual(T, limit=limit)} == {eventual}
        assert {v.status for v in classify_asymptotic(T, limit=limit)} == {asymptotic}

    def test_exact_nonnegativity_reads_signed_zeros_and_subnormals(self):
        nonnegative = evpos.classify._exactly_nonnegative
        for rows in ([[-0.0, 1], [1, 0.5]], [[complex(1, -0.0), 1], [1, 0.5]]):
            assert nonnegative(np.array(rows)) and nonnegative(np.array(rows, dtype=complex))
        for rows in ([[1 + 5e-324j, 1], [1, 0.5]], [[-5e-324, 1], [1, 0.5]]):
            assert not nonnegative(np.array(rows, dtype=complex))


class TestAnalyticRefutations:
    """The singular-term and shrinking-hat refutations of a rank-k model are
    decided once each, from the limit that the witness family tends to, and
    read no horizon."""

    @pytest.mark.parametrize("c", [0.1, -0.1, 0.2])
    def test_slope_below_a_quarter_is_not_uniformly_eventually_positive(self, c):
        # lam_2 = 2c decays faster than 2^-(n+1), so hats of that width show
        # no violation past a few powers; as the width goes to 0, T^n of a
        # hat at 1 tends to c lam_2^(n-1) x, which is negative at an end of
        # [-1, 1] at every power
        T = _slope_model(c)
        report, failed = run_classify(T, "slope", 0)
        assert not failed and report.contradiction_count == 0
        kinds = {r["notion"]: r["status"]["kind"] for r in report.classification}
        assert kinds.pop("uniform-eventual") == "refuted"
        assert set(kinds.values()) == {"confirmed"}, kinds
        # a finite width that shrinks with the power agrees with the limit
        for n in (3, 10, 30):
            w = hat_family_witness(T, n, 1e-3 * abs(2 * c) ** n)
            assert w is not None and w.value < 0, n

    def test_rounding_residue_is_no_singular_term(self):
        # <phi_2, 1> of ex2.2b is 0 by symmetry and -6.9e-18 in floating
        # point, within its rounding; a random positive test vector refutes
        entry = get_example("ex2.2b")
        T = entry.model
        ones = np.ones(T.dim, dtype=complex)
        assert _singular_refutation(T, (ones,)) is None
        report, failed = run_classify(T, entry.name, 0)
        assert not failed
        kinds = {r["notion"]: r["status"]["kind"] for r in report.classification}
        assert kinds["uniform-eventual"] == kinds["individual-eventual"] == "refuted"
        for v in classify_eventual(T)[:2]:
            assert abs(v.status.witness.point) > 1e-30, v.status.witness

    @pytest.mark.parametrize("c, witness", [(0.1, (1, -1.0)), (0.1j, (2, 1.0))])
    def test_hat_limit_is_decided_per_peak(self, c, witness):
        # g -> g(0) 1 + c (g(1) - g(-1)) x has two point functionals, but a
        # hat at 1 meets only the second: T^n of it tends to c (2c)^(n-1) x,
        # negative at -1 at every power for c = 0.1; for c = 0.1i it is
        # non-real at odd n and negative at 1 at even n
        T = RankK(
            (Constant(1.0), Monomial(1)),
            (PointCombination((0.0,), (1.0,)), PointCombination((1.0, -1.0), (c, -c))),
            GridSup(tuple(np.linspace(-1.0, 1.0, 41))),
        )
        assert [(w.n, w.point) for w in hat_limit_witnesses(T)] == [witness]
        assert isinstance(uniform_eventual(T).status, RefutedWithWitness)

    def test_hat_limit_passes_an_integrable_weight(self):
        # g -> 1.5 (int t^2 g) 1 + 0.1 (g(1) - g(-1)) t, lam = (1, 0.2): the
        # integral of t^2 against a hat vanishes as its width goes to 0, so a
        # hat at 1 meets the point functional alone and T^n of it tends to
        # 0.1 0.2^(n-1) t, negative at -1 at every power
        T = RankK(
            (Constant(1.0), Monomial(1)),
            (WeightedIntegral(Monomial(2), 1.5), PointCombination((1.0, -1.0), (0.1, -0.1))),
            GridSup(tuple(np.linspace(-1.0, 1.0, 41))),
        )
        assert np.allclose(T.eigen_parameters, [1.0, 0.2])
        assert [(w.n, w.point) for w in hat_limit_witnesses(T)] == [(1, -1.0)]
        uniform, individual, weak = classify_eventual(T)
        assert isinstance(uniform.status, RefutedWithWitness)
        # the Perron certificate confirms the other two
        assert individual.status == weak.status == Confirmed(0)
        report, failed = run_classify(T, "weighted-hat", 0)
        assert not failed and report.contradiction_count == 0

    @pytest.mark.parametrize(
        "weight, width, pairing",
        [
            (Constant(2.0), 0.1, 0.05),
            (Constant(2.0), 0.0, 0.0),
            (Monomial(2), 0.0, 0.0),
            (SignedPower(-0.5), 0.0, 0.0),
            (Monomial(2), 0.1, None),
            (Monomial(-1), 0.0, None),
            (SignedPower(-1.0), 0.0, None),
            (Tabulated((1.0, 2.0, 3.0)), 0.0, None),
        ],
        ids=[
            "constant",
            "constant-limit",
            "square-limit",
            "inverse-root-limit",
            "square-wide",
            "inverse-limit",
            "signed-inverse-limit",
            "tabulated-limit",
        ],
    )
    def test_hat_pairing_of_an_integral(self, weight, width, pairing):
        # a constant weight pairs in closed form at any width; another
        # analytic weight only in the width-0 limit, where it pairs to 0 when
        # it is integrable at the peak; a tabulated weight has no limit
        phi = WeightedIntegral(weight, 0.5)
        if pairing is None:
            with pytest.raises(evpos.operators.OperatorError):
                phi.hat_pairing(0.0, width)
        else:
            assert phi.hat_pairing(0.0, width) == pairing

    def test_hat_limit_skips_a_peak_that_meets_two_functionals(self):
        # a hat at 1 meets the functional with eigenvalue 1.2 and the one with
        # 1: T^n of it tends to 0.1 1.2^(n-1) + 0.5 x, negative at -1 only up
        # to n = 9
        T = RankK(
            (Constant(1.0), Monomial(1)),
            (
                PointCombination((1.0, -1.0, 0.0), (0.1, 0.1, 1.0)),
                PointCombination((1.0, -1.0), (0.5, -0.5)),
            ),
            GridSup(tuple(np.linspace(-1.0, 1.0, 41))),
        )
        assert hat_family_witness(T, 9, 0.0) is not None
        assert hat_family_witness(T, 10, 0.0) is None
        assert hat_limit_witnesses(T) is None

    def test_complex_singular_eigenvalue_refutes_from_one_power(self):
        # phi_2 = (1 + si) d_t + (1 - si) d_-t - d_u - d_-u pairs to 0.5i with
        # f_2 = sgn|x|^(-1/4), and to a real b with a test vector even about
        # 0: T^n x = a + (0.5i)^(n-1) b f_2 is non-real near 0 at even n and
        # negative on one side at odd n
        nodes, weights = midpoint_rule(-1.0, 1.0, 8)
        t, u = 0.125, 0.875
        s = 0.25 * t**0.25
        T = RankK(
            (Constant(1.0), SignedPower(-0.25)),
            (
                WeightedIntegral(Constant(1.0), 0.5),
                PointCombination((t, -t, u, -u), (1 + s * 1j, 1 - s * 1j, -1.0, -1.0)),
            ),
            LpQuadrature(2.0, tuple(nodes), tuple(weights)),
        )
        lam2 = T.eigen_parameters[1]
        assert lam2.real == 0 and np.isclose(lam2, 0.5j)
        x = np.ones(8, dtype=complex)
        x[np.isin(nodes, (t, -t))] = 2.0
        v = individual_eventual(T, (LatticeVector(x, T.norm),))
        assert isinstance(v.status, RefutedWithWitness) and v.status.witness.n == 1

    @pytest.mark.parametrize("name", ["ex2.2a", "ex2.2b"])
    def test_each_refutation_calls_its_witness_once_per_vector(self, name, monkeypatch):
        calls = {"hat_witness": 0, "signed_power_witness": 0}
        for module, witness in ((evpos.witnesses, "hat_witness"), (evpos.classify, "signed_power_witness")):
            original = getattr(module, witness)

            def counting(*args, _name=witness, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, witness, counting)
        entry = get_example(name)
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        # at most two powers of the hat limit; a singular witness only for a
        # second function sgn(t)|t|^alpha with alpha < 0: none for ex2.2a's x,
        # and for ex2.2b the indicator of t > 0, which pairs with phi_2, refutes
        assert calls["hat_witness"] <= 2, calls
        assert calls["signed_power_witness"] == {"ex2.2a": 0, "ex2.2b": 1}[name], calls


POINT_AT_0 = PointCombination((0.0,), (1.0,))
END_MEAN = PointCombination((1.0, -1.0), (0.5, 0.5))


def _point_slope_model(first, c, nodes=41) -> RankK:
    """g -> first(g) 1 + c (g(1) - g(-1)) x on a sup-norm grid over [-1, 1],
    first = g(0) or (g(1) + g(-1))/2, with eigen-parameters 1 and 2c."""
    return RankK(
        (Constant(1.0), Monomial(1)),
        (first, PointCombination((1.0, -1.0), (c, -c))),
        GridSup(tuple(np.linspace(-1.0, 1.0, nodes))),
    )


def _eventual_kinds(T) -> dict:
    report, failed = run_classify(T, "rank-k", 0)
    assert not failed and report.contradiction_count == 0
    return {r["notion"]: r["status"] for r in report.classification if "eventual" in r["notion"]}


class TestRankKTailCertificate:
    """A rank-k eventual trio is decided with no horizon: each notion tests
    a quantity U diag(mu^(n-1)) V, certified past the power where its
    non-peripheral terms fall below the gap of its limit, and tested
    directly below it."""

    @pytest.mark.parametrize("nodes", [41, 201])
    @pytest.mark.parametrize(
        "first, open_notions",
        [
            (None, ("individual", "weak")),
            (POINT_AT_0, ("individual", "weak")),
            (END_MEAN, ("uniform", "individual", "weak")),
        ],
        ids=["slope", "point", "end-mean"],
    )
    def test_complex_slope_is_not_confirmed(self, first, open_notions, nodes):
        # lam_2 = 0.2i: for any g with g(1) != g(-1) the powers are non-real
        # at odd n and of both signs at even n, by 0.2^(n-1) times a
        # constant, which falls below the tolerance but never vanishes
        if first is None:
            T = _slope_model(0.1j, nodes)
        else:
            T = _point_slope_model(first, 0.1j, nodes)
        kinds = _eventual_kinds(T)
        for notion in open_notions:
            assert kinds[f"{notion}-eventual"]["kind"] != "confirmed", kinds

    @pytest.mark.parametrize("nodes", [41, 201])
    @pytest.mark.parametrize("c", [0.05, 0.1, 0.25, 0.4])
    def test_entries_that_stay_zero_do_not_block_the_certificate(self, c, nodes):
        # g -> (g(1) + g(-1))/2 + c (g(1) - g(-1)) x is a positive operator:
        # its grid powers are 0 off the columns at -1 and 1 at every power
        for status in _eventual_kinds(_point_slope_model(END_MEAN, c, nodes)).values():
            assert status == {"kind": "confirmed", "n0": 0}

    @pytest.mark.parametrize("nodes", [41, 201])
    def test_every_term_peripheral_is_tested_at_one_power(self, nodes):
        # g -> (g(1) + g(-1))/2 + 0.5 (g(1) - g(-1)) x has lam = (1, 1), so
        # T^n = T; its limit point cancels to an exact 0 at the entry (-1, 1),
        # which no decaying term moves, and T itself is positive
        T = _point_slope_model(END_MEAN, 0.5, nodes)
        assert (T.eigen_parameters == 1.0).all()
        for status in _eventual_kinds(T).values():
            assert status == {"kind": "confirmed", "n0": 0}

    def test_negative_entry_that_no_decaying_term_moves_is_not_confirmed(self):
        # f_1 = (1 - d, 1 + d, 1, 1) and f_2 = (1, 1, -1, -1) at t = -0.5,
        # -0.25, 0.25, 0.5, paired with 4 int g (1, 1, 1, 1) and
        # 4 int g (1, 1, -1, -1) on a 33-node grid: lam = (1, 1) exactly, so
        # T^n = T, whose entry at (-0.5, 0.25) is -d/4 = -7e-10 at every
        # power. That is within the limit rule's tolerance, but fails the
        # grid test against max|T| = 0.5 at n = 1 and so at every n, which
        # no Confirmed(2) may hide
        nodes = np.linspace(-1.0, 1.0, 33)
        at = [8, 12, 20, 24]
        d = 1.5 * 2.0**-29
        f1, f2, g1, g2 = (np.zeros(33) for _ in range(4))
        f1[at] = (1 - d, 1 + d, 1, 1)
        f2[at] = g2[at] = (1, 1, -1, -1)
        g1[at] = 1
        T = RankK(
            (Tabulated(tuple(f1)), Tabulated(tuple(f2))),
            (WeightedIntegral(Tabulated(tuple(g1)), 4.0), WeightedIntegral(Tabulated(tuple(g2)), 4.0)),
            GridSup(tuple(nodes)),
        )
        assert (T.eigen_parameters == 1.0).all()
        oracle = exact.RankKPowers(T.eigen_parameters, T.rows, T.samples)
        assert all(y[8] == -exact.rational(d) / 4 for y in oracle.powers(np.eye(33)[20], 3))
        assert {v.status for v in classify_asymptotic(T)} == {Confirmed(0)}
        assert {v.status for v in classify_eventual(T)} == {UndeterminedUpToHorizon(0)}

    def test_two_peripheral_projections_are_certified(self):
        # f_1, f_2 the indicators of x < 0 and x > 0, each paired with its
        # own integral: T = T^2 is positive, with eigen-parameters 1 and 1
        nodes = np.linspace(-1.0, 1.0, 40)
        space = GridSup(tuple(nodes))
        halves = [Tabulated(tuple((side * nodes > 0).astype(float))) for side in (-1, 1)]
        scales = [1.0 / WeightedIntegral(h, 1.0).apply(h, space).real for h in halves]
        T = RankK(tuple(halves), tuple(map(WeightedIntegral, halves, scales)), space)
        assert (T.eigen_parameters == 1.0).all()
        for status in _eventual_kinds(T).values():
            assert status == {"kind": "confirmed", "n0": 0}

    def test_nilpotent_trio_takes_the_test_of_t_itself(self):
        # g -> (int g) x has lam = int x = 0, so T^2 = 0: T is negative at
        # x < 0, so each notion holds from n0 = 2, and with no rescaling
        # there is no asymptotic trio
        grid = GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
        T = RankK((Monomial(1),), (WeightedIntegral(Constant(1.0), 1.0),), grid)
        assert T.spectral_radius() == 0
        assert [v.status for v in classify_eventual(T)] == [Confirmed(2)] * 3
        with pytest.raises(NotClassifiableError):
            classify_asymptotic(T)
        report, failed = run_classify(T, "nilpotent", 0)
        assert not failed
        assert [r["notion"] for r in report.classification] == [
            "uniform-eventual",
            "individual-eventual",
            "weak-eventual",
        ]
        for r in report.classification:
            assert r["status"] == {"kind": "confirmed", "n0": 2}

    def test_refuted_limit_status_refutes_the_uniform_notion(self):
        # g -> (1/2)(int g) 1 - 1.5 (int x g) x on an L^1 midpoint grid has
        # lam = (1, -1), so L_1 = P_1 - P_2 is negative at the ends of its
        # diagonal; no witness refutes, and the uniform notion takes the
        # refuted limit status, as the other five notions do
        T = RankK(
            (Constant(1.0), Monomial(1)),
            (WeightedIntegral(Constant(1.0), 0.5), WeightedIntegral(Monomial(1), -1.5)),
            LpQuadrature(1, *midpoint_rule(-1, 1, 40)),
        )
        assert T.eigen_parameters.tolist() == [1, -1]
        report, failed = run_classify(T, "alternating", 0)
        assert not failed and len(report.classification) == 6
        witness = "limit point L_1 has entry (39, 39) at 0.0462969 from the positive reals"
        for r in report.classification:
            assert r["status"] == {"kind": "refuted", "witness": witness}, r["notion"]

    def test_rank_k_classification_steps_no_orbit(self, monkeypatch):
        def refuse(self, Y, horizon):
            raise AssertionError("a rank-k orbit was stepped")

        monkeypatch.setattr(RankK, "orbit", refuse)
        grid = GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
        averaging = RankK((Constant(1.0),), (WeightedIntegral(Constant(1.0), 0.5),), grid)
        for T in (
            get_example("ex2.2a").model,
            get_example("ex2.2b").model,
            averaging,
            _point_slope_model(END_MEAN, 0.25),
        ):
            report, failed = run_classify(T, "rank-k", 0)
            assert not failed and len(report.classification) == 6

    def test_uniform_notion_is_formed_in_row_blocks(self):
        # the nonzero-term mask, the limit point and the tested power of the
        # uniform notion are formed LIMIT_POINT_ROWS rows at a time: on 2,001
        # nodes a dim x dim array of floats alone would take 32 MB, and whole
        # ones took a 70.2 MB peak
        grid = GridSup(tuple(np.linspace(-1.0, 1.0, 2_001)))
        T = RankK((Constant(1.0),), (WeightedIntegral(Constant(1.0), 0.5),), grid)
        tracemalloc.start()
        try:
            trio = classify_eventual(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [v.status for v in trio] == [Confirmed(0)] * 3
        assert peak <= 70.2e6 / 4

    def test_gap_that_no_power_below_the_cap_clears_is_undetermined(self):
        # g -> (1/2)(int g) 1 + 1.4985 (int t g) t on a 40-node midpoint rule
        # has lam = (1, 0.999): the entries of T^n are multiples of 1/2 +
        # 1.4985 0.999^(n-1) t_i t_j, negative where t_i t_j < 0 up to n =
        # 1,047, and no power below MAX_TAIL brings the decaying term under
        # the limit point's gap, so the uniform notion is undetermined; on
        # a positive vector the limit (1/2)(int g) 1 is positive, and the
        # individual and weak notions are confirmed
        T = RankK(
            (Constant(1.0), Monomial(1)),
            (WeightedIntegral(Constant(1.0), 0.5), WeightedIntegral(Monomial(1), 1.4985)),
            LpQuadrature(1, *midpoint_rule(-1.0, 1.0, 40)),
        )
        assert np.allclose(T.eigen_parameters, [1.0, 0.999], rtol=0, atol=1e-15)
        assert _eventual_kinds(T) == {
            "uniform-eventual": {"kind": "undetermined", "horizon": 0},
            "individual-eventual": {"kind": "confirmed", "n0": 0},
            "weak-eventual": {"kind": "confirmed", "n0": 0},
        }
        assert [v.status for v in classify_asymptotic(T)] == [Confirmed(0)] * 3


def _sign_slope_model(c, nodes=41) -> RankK:
    """g -> g(0) 1 + c (int sgn g) x on a sup-norm grid over [-1, 1], with
    eigen-parameters 1 and c."""
    return RankK(
        (Constant(1.0), Monomial(1)),
        (POINT_AT_0, WeightedIntegral(SignedPower(0.0), c)),
        GridSup(tuple(np.linspace(-1.0, 1.0, nodes))),
    )


class TestFaceWitness:
    """A bump on which every functional but one vanishes sees a single power
    term lam^(n-1) b f; where that term is negative somewhere at every power
    it refutes all three eventual notions, and the witness replays exactly
    in rational arithmetic (`exact.RankKPowers`)."""

    @pytest.mark.parametrize(
        "T",
        [
            # g -> g(0) 1 + c (int sgn g) x with c = 0.3 and 0.022: the limit point
            # 1 (x) delta_0 is positive, and every x >= 0 with x(0) = 0 has
            # T^n x = c^(n-1) <phi_2, x> x, of both signs
            _sign_slope_model(0.3),
            _sign_slope_model(0.022),
            # g -> g(0) 1 + c (g(1) - g(-1)) x: a bump at -1 has
            # T^n of it = -c (2c)^(n-1) x, negative at 1
            _point_slope_model(POINT_AT_0, 0.05, 201),
            _point_slope_model(POINT_AT_0, 0.4, 41),
        ],
        ids=["sign-slope-0.3", "sign-slope-0.022", "point-slope-0.05", "point-slope-0.4"],
    )
    def test_face_bump_refutes_the_eventual_trio(self, T):
        eventual, asymptotic = classify_eventual(T), classify_asymptotic(T)
        assert {v.status for v in asymptotic} == {Confirmed(0)}
        # the uniform notion keeps a shrinking-hat witness where it has one
        witness = eventual[1].status.witness
        assert all(isinstance(v.status, RefutedWithWitness) for v in eventual)
        assert eventual[2].status.witness == witness
        assert witness.n == witness.period == 1
        report, failed = run_classify(T, "face", 0)
        assert not failed and report.contradiction_count == 0
        # x = e_bump >= 0; T^n x, and its pairing with the point mass at the
        # witness node, are negative at every power
        x = np.eye(T.dim)[witness.bump]
        oracle = exact.RankKPowers(T.eigen_parameters, T.rows, T.samples)
        for n, y in enumerate(oracle.powers(x, 60), 1):
            assert y[witness.node] < 0, n
        first = next(oracle.powers(x, 1))
        assert float(first[witness.node]) == witness.value

    def test_bump_meeting_two_functionals_is_no_witness(self):
        # g -> (1/2) int g + c (g(1) - g(-1)) x: the integral meets every
        # bump, so no face is open and ex2.2a's certificate stands
        assert evpos.witnesses.face_witness(_slope_model(0.25)) is None

def _certificate_model(first=None, weight=None, space=None, second=None) -> RankK:
    """g -> phi_1(g) f_1 + phi_2(g) f_2, by default the slope model with
    c = 0.1 on 41 nodes."""
    space = space or GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
    first = first or Constant(1.0)
    weight = weight or WeightedIntegral(Constant(1.0), 0.5)
    f_2, phi_2 = second or (Monomial(1), PointCombination((1.0, -1.0), (0.1, -0.1)))
    return RankK((first, f_2), (weight, phi_2), space)


_L2, _L4 = (
    LpQuadrature(p, *map(tuple, midpoint_rule(-1.0, 1.0, 40))) for p in (2.0, 4.0)
)
_SINGULAR = (SignedPower(-0.3), WeightedIntegral(SignedPower(0.0), 0.1))


class TestPerronCertificate:
    """The individual and weak notions that a shrinking hat or singular
    term leaves open are confirmed at n0 = 0 by the Perron certificate,
    read from closed-form extremes, and otherwise left undetermined."""

    @pytest.mark.parametrize(
        "T, individual, weak",
        [
            (_certificate_model(), Confirmed(0), Confirmed(0)),
            # t^2 vanishes only at 0, and -1 times -1/2 is positive
            (_certificate_model(weight=WeightedIntegral(Monomial(2), 1.5)), Confirmed(0), Confirmed(0)),
            (_certificate_model(weight=WeightedIntegral(Constant(-1.0), -0.5)), Confirmed(0), Confirmed(0)),
            # f_1 = t^2 is not bounded below by a positive constant
            (
                _certificate_model(first=Monomial(2), weight=WeightedIntegral(Constant(1.0), 1.5)),
                UndeterminedUpToHorizon(0),
                UndeterminedUpToHorizon(0),
            ),
            # sgn(t)|t|^-0.3 is in L^2, not in L^4 or bounded
            (_certificate_model(space=_L2, second=_SINGULAR), RefutedWithWitness, Confirmed(0)),
            (_certificate_model(space=_L4, second=_SINGULAR), RefutedWithWitness, UndeterminedUpToHorizon(0)),
            (
                _certificate_model(space=GridSup(tuple(np.linspace(-1.0, 1.0, 40))), second=_SINGULAR),
                RefutedWithWitness,
                UndeterminedUpToHorizon(0),
            ),
        ],
        ids=[
            "slope",
            "square-weight",
            "negative-scale",
            "vanishing-f1",
            "singular-L2",
            "singular-L4",
            "singular-sup",
        ],
    )
    def test_certificate_conditions(self, T, individual, weak):
        _, *open_notions = classify_eventual(T)
        for verdict, expected in zip(open_notions, (individual, weak)):
            if expected is RefutedWithWitness:
                assert isinstance(verdict.status, RefutedWithWitness)
            else:
                assert verdict.status == expected
        assert {v.status for v in classify_asymptotic(T)} == {Confirmed(0)}

def _eventually_positive(dim, norm):
    return make_eventually_positive(dim, 0.5, 5, norm=norm).model


def _gaussian(dim, norm):
    rng = rng_for(dim, 7)
    return Dense(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), norm)


def _contradicts(a, b) -> bool:
    """One status confirms what the other refutes."""
    kinds = {type(a), type(b)}
    return kinds == {Confirmed, RefutedWithWitness}


class TestCoordinatePairings:
    """A finite model's trio is read off its powers, where the pairings with
    the coordinate functionals are the entries (T^n)_ij. The vector-by-vector
    path steps each test vector with its own products, on the basis and on
    seeded positive vectors, and may be less sure, but never contradict."""

    @pytest.mark.parametrize(
        "T",
        [
            *(
                make(dim, norm)
                for make in (_eventually_positive, _gaussian)
                for norm in (Ell1(), Ell2(), EllInf())
                for dim in (5, 24)
            ),
            Diagonal(np.array([1.0, 0.5j, 0.7 * np.exp(2j), 0.3, 0.9 * np.exp(-1j)]), Ell1()),
            WeightedShift(np.array([1.0, -2.0, 0.5j, 3.0]), Ell2()),
        ],
    )
    def test_read_off_matches_the_product(self, T):
        rng = rng_for(T.dim, 3)
        seeded = tuple(
            LatticeVector(rng.uniform(0.0, 1.0, size=T.dim), T.norm) for _ in range(8)
        )
        basis = tuple(_basis_vector(T, j) for j in range(T.dim))
        assert np.array_equal(np.stack([x.entries for x in basis], axis=1), np.eye(T.dim))
        single = individual_eventual(T, basis + seeded)
        trio = classify_eventual(T)
        assert all(v.status is trio[0].status for v in trio)
        assert not _contradicts(trio[0].status, single.status)
        if not isinstance(T, WeightedShift):  # nilpotent: no rescaling
            asymptotic = classify_asymptotic(T)
            assert all(v.status is asymptotic[0].status for v in asymptotic)


class _CountingRows(np.ndarray):
    """The quadrature rows of a rank-k model, counting the products
    rows @ X with a matrix X, such as the individual notion's factor."""

    products = 0

    def __matmul__(self, other):
        if np.ndim(other) == 2:
            _CountingRows.products += 1
        return np.asarray(self) @ other


class TestRankKInputs:
    """A rank-k classification reads the arrays that the model built once,
    and forms no factor of a test set."""

    @pytest.mark.parametrize("name", ["ex2.2a", "ex2.2b"])
    def test_no_test_set_factor(self, monkeypatch, name):
        # the individual and weak notions are decided by the closed-form
        # certificate or refuted by a witness: no product rows @ X with a
        # matrix of test vectors is formed, and the report is unchanged
        T = get_example(name).model
        expected = report_to_json(run_classify(T, name, 0)[0])
        object.__setattr__(T, "rows", T.rows.view(_CountingRows))
        monkeypatch.setattr(_CountingRows, "products", 0)
        report, failed = run_classify(T, name, 0)
        assert _CountingRows.products == 0
        assert not failed and report_to_json(report) == expected

    @pytest.mark.parametrize("name", ["ex2.2a", "ex2.2b"])
    def test_peripheral_indices_once_per_classification(self, monkeypatch, name):
        calls = []
        rule = evpos.classify._peripheral_indices

        def counting(T):
            calls.append(T)
            return rule(T)

        monkeypatch.setattr(evpos.classify, "_peripheral_indices", counting)
        run_classify(get_example(name).model, name, 0)
        assert len(calls) == 1


class TestHierarchy:
    def test_no_violation_in_consistent_verdicts(self):
        T = averaging_plus_slope(101)
        verdicts = [
            uniform_eventual(T),
            individual_eventual(T),
            weak_eventual(T),
        ]
        assert hierarchy_violations(verdicts) == []

    def test_detects_inverted_pair(self):
        from evpos.classify import PositivityVerdict

        upper = PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(0))
        refuted = RefutedWithWitness(None, "synthetic")
        lower = PositivityVerdict(Notion.WEAK_EVENTUAL, refuted)
        bad = hierarchy_violations([upper, lower])
        assert len(bad) == 1

    def test_detects_eventual_above_asymptotic(self):
        from evpos.classify import PositivityVerdict

        refuted = RefutedWithWitness(None, "synthetic")
        verdicts = [
            PositivityVerdict(Notion.INDIVIDUAL_EVENTUAL, Confirmed(0)),
            PositivityVerdict(Notion.UNIFORM_ASYMPTOTIC, refuted),
            PositivityVerdict(Notion.INDIVIDUAL_ASYMPTOTIC, refuted),
            PositivityVerdict(Notion.WEAK_ASYMPTOTIC, refuted),
        ]
        # individual-eventual implies individual- and weak-asymptotic, not
        # uniform-asymptotic
        assert hierarchy_violations(verdicts) == [
            ("individual-eventual", "individual-asymptotic"),
            ("individual-eventual", "weak-asymptotic"),
        ]

    def test_catalog_examples_respect_hierarchy(self):
        for T in (averaging_plus_slope(101), averaging_plus_singular(200)):
            verdicts = [
                uniform_eventual(T),
                individual_eventual(T),
                weak_eventual(T),
            ]
            assert hierarchy_violations(verdicts) == []
