import numpy as np
import pytest

from evpos.catalog import (
    averaging_plus_singular,
    averaging_plus_slope,
    diagonal_drift,
    nonreal_diagonal,
)
from evpos.classify import (
    ConeTestSet,
    Confirmed,
    ExtremePoints,
    MonteCarlo,
    NotClassifiableError,
    Notion,
    RefutedWithWitness,
    StrategyUnavailableError,
    UndeterminedUpToHorizon,
    _pairings,
    classify_asymptotic,
    classify_eventual,
    default_test_set,
    delta_n,
    hierarchy_violations,
    individual_eventual,
    is_positive_operator,
    uniform_eventual,
    weak_eventual,
)
from evpos.generators import make_eventually_positive
from evpos.lattice import Ell1, Ell2, EllInf, LatticeVector
from evpos.operators import Dense, Diagonal, WeightedShift
from evpos.rng import rng_for


def _orbit_widths(monkeypatch, classify, T):
    """(widths of the Dense orbits, trio with the canonical test set, trio
    with its basis vectors moved to the end)."""
    widths = []
    orbit = Dense.orbit

    def recording(self, Y, horizon):
        widths.append(Y.shape[1])
        return orbit(self, Y, horizon)

    monkeypatch.setattr(Dense, "orbit", recording)
    canonical = default_test_set(T)
    k = T.dim
    moved = ConeTestSet(canonical.vectors[k:] + canonical.vectors[:k], canonical.functionals)
    return widths, classify(T), classify(T, tests=moved)


class TestPositiveOperator:
    def test_positive_matrix(self):
        assert is_positive_operator(Dense(np.array([[1.0, 2.0], [0.0, 1.0]]), Ell1()))

    def test_negative_entry(self):
        assert not is_positive_operator(Dense(np.array([[1.0, -0.1], [0.0, 1.0]]), Ell1()))

    def test_complex_entry(self):
        assert not is_positive_operator(Diagonal(np.array([1.0, 0.5j]), Ell1()))


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

    def test_undetermined_individual_decay_stops_at_first_stuck_vector(self):
        # e_2 turns around the unit circle and is off the cone at n = 30, the
        # horizon; e_3 grows like 2^n and comes later, so its decay is left out
        T = Dense(np.diag([1.0, 1j, 2j]), Ell1())
        basis = tuple(LatticeVector(e, Ell1()) for e in np.eye(3))
        tests = ConeTestSet(basis, basis)
        expected = [0.0 if n % 4 == 0 else 1.0 for n in range(1, 31)]
        for v in (individual_eventual(T, tests), classify_eventual(T, tests=tests)[1]):
            assert isinstance(v.status, UndeterminedUpToHorizon)
            assert v.decay == pytest.approx(expected, abs=1e-12)

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
        assert shared.status == single.status
        assert shared.decay == pytest.approx(single.decay, rel=1e-10, abs=1e-12)

    def test_canonical_basis_vectors_give_the_powers(self, monkeypatch):
        # the canonical test set starts with the basis vectors, so the orbit
        # needs no identity block in front; a test set that does not start
        # with them gets one
        T = make_eventually_positive(5, 0.5, 2).model
        widths, shared, prepended = _orbit_widths(monkeypatch, classify_eventual, T)
        assert widths == [22, 27]
        for a, b in zip(shared, prepended):
            assert a.status == b.status
            assert a.decay == pytest.approx(b.decay, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("norm", [Ell1(), EllInf()])
    def test_asymptotic_orbit_carries_one_identity_block(self, norm, monkeypatch):
        # l1 and a small sup norm read the powers from the orbit, under the
        # same rule as the eventual trio
        T = make_eventually_positive(5, 0.5, 2, norm=norm).model
        widths, shared, prepended = _orbit_widths(monkeypatch, classify_asymptotic, T)
        assert widths == [22, 27]
        for a, b in zip(shared, prepended):
            assert a.status == b.status
            assert a.decay == pytest.approx(b.decay, rel=1e-12, abs=1e-15)

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

    def test_nilpotent_shift_confirmed(self):
        T = WeightedShift(tuple(-1.0 for _ in range(9)), Ell1())
        v = uniform_eventual(T, horizon=15)
        assert isinstance(v.status, Confirmed)
        assert v.status.n0 == 10


class TestDeltaN:
    def test_ell1_extreme_points_exact(self):
        T = nonreal_diagonal()
        for n in range(1, 12):
            val, witness, exact = delta_n(T, n, ExtremePoints())
            assert exact
            expected = abs((0.5j) ** n - np.real((0.5j) ** n) * 0) if n % 4 else 0.0
            # d_+((i/2)^n e_2): 0 when (i/2)^n is positive real, else the
            # distance of the single complex entry to the half-line
            z = (0.5j) ** n
            expected = np.hypot(max(-z.real, 0.0), z.imag)
            assert val == pytest.approx(expected, abs=1e-12)

    def test_monte_carlo_is_lower_bound(self):
        T = nonreal_diagonal()
        exact, _, _ = delta_n(T, 3, ExtremePoints())
        mc, _, flag = delta_n(T, 3, MonteCarlo(samples=200, seed=1))
        assert not flag
        assert mc <= exact + 1e-12

    def test_sup_norm_enumeration_cap(self):
        T = Dense(np.eye(25, dtype=complex), EllInf())
        with pytest.raises(StrategyUnavailableError):
            delta_n(T, 1, ExtremePoints())

    def test_zero_spectral_radius_rejected(self):
        T = WeightedShift(np.array([-1.0]), Ell1())
        with pytest.raises(NotClassifiableError):
            delta_n(T, 1, ExtremePoints())


class TestAsymptotic:
    def test_nonreal_diagonal_all_confirmed(self):
        u, i, w = classify_asymptotic(nonreal_diagonal(), horizon=80)
        assert isinstance(u.status, Confirmed)
        assert isinstance(i.status, Confirmed)
        assert isinstance(w.status, Confirmed)

    def test_drift_diagonal_all_refuted(self):
        u, i, w = classify_asymptotic(diagonal_drift(50), horizon=120)
        assert isinstance(u.status, RefutedWithWitness)
        assert isinstance(i.status, RefutedWithWitness)
        assert isinstance(w.status, RefutedWithWitness)

    def test_drift_uniform_witness_is_last_basis_vector(self):
        u, _, _ = classify_asymptotic(diagonal_drift(50), horizon=120)
        witness = u.status.witness
        assert isinstance(witness, LatticeVector)
        # the worst direction is the symbol entry closest to -1
        assert witness.entries[-1] == pytest.approx(1.0)
        assert np.sum(np.abs(witness.entries)) == pytest.approx(1.0)

    def test_positive_matrix_confirmed(self):
        A = Dense(np.array([[0.6, 0.4], [0.3, 0.7]]), Ell1())
        u, i, w = classify_asymptotic(A, horizon=60)
        assert isinstance(u.status, Confirmed)

    def test_rotation_refuted(self):
        theta = 2 * np.pi / 5
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        u, i, w = classify_asymptotic(Dense(R, Ell2()), horizon=120)
        assert isinstance(w.status, RefutedWithWitness)


def _eventually_positive(dim, norm):
    return make_eventually_positive(dim, 0.5, 5, norm=norm).model


def _gaussian(dim, norm):
    rng = rng_for(dim, 7)
    return Dense(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), norm)


class TestCoordinatePairings:
    """The pairings with the leading coordinate functionals are read from the
    orbit's cone residual; rotating the functionals so that none of them
    leads sends every pairing through a product instead."""

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
        canonical = default_test_set(T)
        fs = canonical.functionals
        rotated = ConeTestSet(canonical.vectors, fs[T.dim :] + fs[: T.dim])
        assert (_pairings(T, canonical)[0], _pairings(T, rotated)[0]) == (T.dim, 0)
        trios = [classify_eventual]
        if not isinstance(T, WeightedShift):  # nilpotent: no rescaling
            trios.append(classify_asymptotic)
        for classify in trios:
            read_off = classify(T, tests=canonical)[2]
            product = classify(T, tests=rotated)[2]
            assert read_off.status == product.status
            assert read_off.decay == pytest.approx(product.decay, rel=0, abs=1e-12)

    def test_rank_k_pairs_in_closed_form(self):
        T = averaging_plus_slope(41)
        assert _pairings(T, default_test_set(T))[0] == 0


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

        upper = PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(0), (), 1e-9)
        lower = PositivityVerdict(
            Notion.WEAK_EVENTUAL,
            RefutedWithWitness(None, "synthetic"),
            (),
            1e-9,
        )
        bad = hierarchy_violations([upper, lower])
        assert len(bad) == 1

    def test_catalog_examples_respect_hierarchy(self):
        for T in (averaging_plus_slope(101), averaging_plus_singular(200)):
            verdicts = [
                uniform_eventual(T),
                individual_eventual(T),
                weak_eventual(T),
            ]
            assert hierarchy_violations(verdicts) == []
