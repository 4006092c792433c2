import os
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest

import evpos.verify
from evpos.catalog import averaging_plus_singular, averaging_plus_slope
from evpos.classify import (
    Confirmed,
    Notion,
    PositivityVerdict,
    UndeterminedUpToHorizon,
    classify_asymptotic,
)
from evpos.lattice import Ell1, Ell2, EllInf, cone_distances
from evpos.operators import Dense, Diagonal, to_dense
from evpos.rng import rng_for
from evpos.spectral import eigenvalues
from evpos.verify import (
    ANNIHILATED,
    CYCLICITY_POWERS,
    DEFAULT_TOL,
    MONOTONICITY_POWERS,
    CheckResult,
    VerificationError,
    EIGENVECTOR_TOL,
    multiplicity_monotonicity_check,
    perron_frobenius_checks,
    peripheral_cyclicity_check,
    peripheral_table,
    phase_aligned_cone_distance,
    positive_eigenvector,
    power_bounded_estimate,
    verify_spr_in_spectrum,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402

NONREAL = np.diag([1.0, 0.5j])
DRIFT = np.diag([-1.0 + 1.0 / j for j in range(1, 51)])


class TestSprInSpectrum:
    def test_nonreal_diagonal_passes(self):
        assert verify_spr_in_spectrum(eigenvalues(NONREAL)).pass_

    def test_positive_matrix_passes(self):
        rng = rng_for(1, 0)
        A = rng.uniform(0.1, 1.0, size=(6, 6))
        assert verify_spr_in_spectrum(eigenvalues(A)).pass_

    def test_drift_truncation_fails_without_contradiction(self):
        result = verify_spr_in_spectrum(eigenvalues(DRIFT))
        assert not result.pass_
        assert result.payload["distance"] == pytest.approx(49.0 / 50.0, abs=1e-8)
        # the hypothesis of the spectral-radius theorem fails too, so this is
        # no contradiction; record the verdict and check the gating
        from evpos.operators import Diagonal
        from evpos.classify import Confirmed

        u, _, _ = classify_asymptotic(Diagonal(np.diag(DRIFT), Ell1()))
        gated = CheckResult(
            result.name,
            result.pass_,
            result.margin,
            result.tolerance,
            result.payload,
            {"uniform-asymptotic-positive": isinstance(u.status, Confirmed)},
        )
        assert not gated.contradiction

    def test_zero_matrix_vacuous(self):
        result = verify_spr_in_spectrum(eigenvalues(np.zeros((2, 2))))
        assert result.pass_
        assert "vacuous" in result.payload["note"]


class TestPositiveEigenvector:
    def test_symmetric_positive(self):
        result = positive_eigenvector(eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), Ell2())
        assert result.value == pytest.approx(3.0, abs=1e-9)
        v = result.primal.entries
        assert abs(v[0]) == pytest.approx(abs(v[1]), abs=1e-8)
        assert result.primal_cone_distance <= 1e-6

    def test_nonreal_diagonal(self):
        result = positive_eigenvector(eigenvalues(NONREAL), Ell2())
        assert result.pole_order == 1
        assert result.value == pytest.approx(1.0)
        assert abs(result.primal.entries[0]) == pytest.approx(1.0)
        assert abs(result.primal.entries[1]) < 1e-9
        assert result.adjoint_cone_distance <= 1e-6

    def test_residuals_small(self):
        rng = rng_for(10, 0)
        A = rng.uniform(0.1, 1.0, size=(6, 6))
        result = positive_eigenvector(eigenvalues(A), Ell2())
        assert result.primal_residual <= 1e-6
        assert result.adjoint_residual <= 1e-6

    def test_phase_alignment_handles_rotated_vector(self):
        x = np.exp(0.7j) * np.array([[1.0, 2.0]], dtype=complex)
        assert phase_aligned_cone_distance(x, Ell2())[0] <= 1e-6

    @pytest.mark.parametrize(
        "phi", [-np.pi, -2.5, -np.pi / 2, 0.0, 0.7, np.pi / 2, 3.0, np.pi]
    )
    @pytest.mark.parametrize("norm", [Ell1(), Ell2(), EllInf()], ids=["l1", "l2", "linf"])
    def test_phase_of_the_largest_entry_aligns_a_rotated_positive_vector(self, phi, norm):
        # the rotation that makes the largest entry positive undoes e^{i phi}
        # up to rounding, also when the largest modulus is attained twice
        p = rng_for(15, 0).uniform(0.1, 1.0, size=7)
        for q in (p, np.append(p, p.max())):
            x = np.exp(1j * phi) * q[None]
            assert phase_aligned_cone_distance(x, norm)[0] <= len(q) * np.finfo(float).eps

    def test_phase_is_fixed_by_the_first_largest_entry(self):
        # -1 comes first among the entries of modulus 1, so the vector is
        # turned by pi: 0.5 and 1 land at -0.5 and -1, and d_+ is 1.5 / ||x||_1
        x = np.array([[0.5, -1.0, 1.0]], dtype=complex)
        assert phase_aligned_cone_distance(x, Ell1())[0] == pytest.approx(1.5 / 2.5)


def _positive_eigenvector_loop(spec, norm) -> tuple:
    """`positive_eigenvector` vector by vector, each from its own matrix
    products, the adjoint from the conjugate matrices, and each cone
    distance from its own phase: (primal, adjoint, their cone distances,
    their residuals)."""
    A, spr = spec.matrix, spec.spectral_radius
    Q = spec.coefficient(int(np.abs(spec.peripheral_eigenvalues - spr).argmin()))

    def size(y):
        return float(norm.of_moduli(np.abs(y)))

    def pick(Qm):
        for y in chain([Qm @ np.ones(len(Qm))], Qm.T):
            nv = size(y)
            if nv > ANNIHILATED:
                return y / nv
        raise VerificationError("every canonical positive vector is annihilated")

    def distance(x):
        moduli = np.abs(x)
        top = x[int(moduli.argmax())]
        return float(cone_distances(x * (abs(top) / top), norm) / float(norm.of_moduli(moduli)))

    x, y = pick(Q), pick(Q.conj().T)
    return x, y, distance(x), distance(y), size(spr * x - A @ x), size(spr * y - A.conj().T @ y)


class TestEigenvectorBlock:
    """`positive_eigenvector` forms the primal and the adjoint as the rows of
    one block, the adjoint conjugated, from Q^T and A^T: it finds the
    vectors of the vector-by-vector reference, their cone distances bit for
    bit, and residuals on the same side of the bound."""

    @staticmethod
    def assert_as_loop(spec, norm):
        x, y, dx, dy, rx, ry = _positive_eigenvector_loop(spec, norm)
        found = positive_eigenvector(spec, norm)
        assert np.array_equal(found.primal.entries, x)
        assert np.array_equal(found.adjoint.entries, y)
        bits = [np.float64(d).tobytes() for d in (dx, dy)]
        assert [np.float64(found.primal_cone_distance).tobytes(),
                np.float64(found.adjoint_cone_distance).tobytes()] == bits
        bound = EIGENVECTOR_TOL * spec.spectral_radius
        assert (found.primal_residual <= bound) == (rx <= bound)
        assert (found.adjoint_residual <= bound) == (ry <= bound)

    @pytest.mark.parametrize("seed", [0, 7, 111])
    def test_every_workload_dense(self, seed):
        dense = [c.model for make in (workloads.catalog, workloads.dense_sweep, workloads.random_small)
                 for c in make(seed) if isinstance(c.model, Dense)]
        assert len(dense) == 47
        for T in dense:
            self.assert_as_loop(T.spectral_data(), T.norm)

    @pytest.mark.parametrize("norm", [Ell1(), Ell2(), EllInf()], ids=["l1", "l2", "linf"])
    def test_complex_matrices(self, norm):
        rng = rng_for(34, 0)
        for dim in range(2, 14):
            A = rng.uniform(0.05, 1.0, (dim, dim)) + 0.2j * rng.normal(size=(dim, dim))
            self.assert_as_loop(eigenvalues(A), norm)
            self.assert_as_loop(eigenvalues(np.exp(0.7j) * A), norm)

    @pytest.mark.parametrize("model", [averaging_plus_slope(11), averaging_plus_singular(8)],
                             ids=["grid-sup", "lp-quadrature"])
    def test_grid_norms(self, model):
        T = to_dense(model)
        self.assert_as_loop(T.spectral_data(), T.norm)

    @pytest.mark.parametrize(
        "A",
        [np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([[1.0, -1.0], [0.0, 2.0]])],
        ids=["both", "adjoint"],
    )
    def test_annihilated_ones_read_the_columns(self, A):
        # the eigenvector at spr is (1, -1) for both; the first is symmetric,
        # and the second has the left eigenvector (0, 1), so Q annihilates
        # the all-ones vector in both rows of the first, and in the adjoint
        # row alone of the second
        self.assert_as_loop(eigenvalues(A), Ell2())

    def test_every_vector_annihilated(self, monkeypatch):
        spec = eigenvalues(np.eye(2))
        monkeypatch.setattr(type(spec), "coefficient", lambda self, k: np.zeros((2, 2), complex))
        with pytest.raises(VerificationError):
            positive_eigenvector(spec, Ell1())


class TestPeripheralChecks:
    def test_three_cycle_cyclic(self):
        C = np.roll(np.eye(3), 1, axis=0)
        assert peripheral_cyclicity_check(eigenvalues(C)).pass_

    def test_nonreal_diagonal_cyclic(self):
        assert peripheral_cyclicity_check(eigenvalues(NONREAL)).pass_

    def test_non_cyclic_spectrum_fails_with_hypothesis_note(self):
        A = np.diag([1.0, -1.0, 1j])
        from evpos.classify import Confirmed
        from evpos.operators import Diagonal

        u, _, w = classify_asymptotic(Diagonal(np.diag(A), Ell1()))
        result = peripheral_cyclicity_check(eigenvalues(A), asymptotic_verdict=u)
        assert not result.pass_
        assert result.hypotheses["uniform-asymptotic-positive"] is False
        assert not result.contradiction

    def test_double_cycle_multiplicities(self):
        C = np.roll(np.eye(3), 1, axis=0)
        A = np.kron(np.eye(2), C)
        result = multiplicity_monotonicity_check(eigenvalues(A))
        assert result.pass_
        mults = [
            r["base_multiplicity"]
            for r in result.payload["rows"]
            if "base_multiplicity" in r
        ]
        assert set(mults) == {2}

    def test_nonreal_diagonal_multiplicities(self):
        assert multiplicity_monotonicity_check(eigenvalues(NONREAL)).pass_

    def test_missing_power_recorded(self):
        A = np.diag([1.0, -1.0, 1j])
        result = multiplicity_monotonicity_check(eigenvalues(A))
        assert not result.pass_
        assert any("missing_power" in r for r in result.payload["rows"])


class TestPeripheralTargetArrays:
    """Both peripheral checks find every power of a peripheral eigenvalue in
    one broadcast against the spectrum, one eigenvalue at a time, and give
    the pass and margin of the power-by-power loop."""

    CYCLE = np.roll(np.eye(256), 1, axis=0)
    # a dim x P x 25 complex broadcast of the 256-cycle would take 26 MB, and
    # a dim x P x 7 one 7 MB
    PEAK_BYTES = 4_000_000

    @staticmethod
    def scalar_checks(spec, mults):
        """(cyclicity margin, monotonicity pass), target by target."""
        spr, periph = spec.spectral_radius, spec.peripheral_eigenvalues
        worst, ok = 0.0, True
        for lam in periph:
            theta = np.angle(lam)
            for k in range(-CYCLICITY_POWERS, CYCLICITY_POWERS + 1):
                target = spr * np.exp(1j * k * theta)
                worst = max(worst, float(np.min(np.abs(spec.eigenvalues - target))))
        for lam, base in zip(periph, mults):
            theta = np.angle(lam)
            for n in MONOTONICITY_POWERS:
                target = spr * np.exp(1j * n * theta)
                if float(np.min(np.abs(spec.eigenvalues - target))) > DEFAULT_TOL * spr:
                    ok = False
                elif mults[int(np.argmin(np.abs(periph - target)))] < base:
                    ok = False
        return DEFAULT_TOL * spr - worst, ok

    @pytest.mark.parametrize(
        "A",
        [np.roll(np.eye(3), 1, axis=0), NONREAL, np.diag([1.0, -1.0, 1j])],
        ids=["three-cycle", "nonreal", "non-cyclic"],
    )
    def test_distances_give_the_margin(self, A):
        spec = eigenvalues(A)
        result = peripheral_cyclicity_check(spec)
        distances = result.payload["distances"]
        assert distances.shape == (len(spec.peripheral_eigenvalues), 25)
        assert result.margin == DEFAULT_TOL * spec.spectral_radius - distances.max()

    @pytest.mark.parametrize(
        "A",
        [
            np.roll(np.eye(3), 1, axis=0),
            NONREAL,
            np.diag([1.0, -1.0, 1j]),
            np.diag([1.0, 1.0, -1.0]),
            np.kron(np.roll(np.eye(2), 1, axis=0), np.array([[1.0, 1.0], [0.0, 1.0]])),
        ],
        ids=["three-cycle", "nonreal", "non-cyclic", "double-one", "jordan-pair"],
    )
    def test_checks_read_one_table(self, A, monkeypatch):
        # a check given the table gives what it gives from the spectrum, and
        # `perron_frobenius_checks` decides power boundedness once for both
        spec = eigenvalues(A)
        table = peripheral_table(spec)
        for check in (peripheral_cyclicity_check, multiplicity_monotonicity_check):
            alone, shared = check(spec), check(table)
            assert (alone.pass_, alone.margin) == (shared.pass_, shared.margin)
            assert alone.payload.get("rows") == shared.payload.get("rows")
        assert np.array_equal(
            peripheral_cyclicity_check(spec).payload["distances"], table.distances
        )
        estimate, calls = evpos.verify.power_bounded_estimate, []

        def counting(spec):
            calls.append(spec)
            return estimate(spec)

        monkeypatch.setattr(evpos.verify, "power_bounded_estimate", counting)
        names = [c.name for c in perron_frobenius_checks(spec, None, None, Ell1())]
        assert names[1:3] == ["peripheral-cyclicity", "multiplicity-monotonicity"]
        assert len(calls) == 1

    def test_long_cycle_matches_the_scalar_loop_in_bounded_memory(self):
        # each eigenvalue of the cycle is simple, so its multiplicity is the
        # algebraic one, 1, and the monotonicity check runs no SVD
        spec = eigenvalues(self.CYCLE)
        periph = spec.peripheral_eigenvalues
        assert len(periph) == 256
        margin, ok = self.scalar_checks(spec, spec.multiplicities)
        for check in (peripheral_cyclicity_check, multiplicity_monotonicity_check):
            tracemalloc.start()
            try:
                result = check(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < self.PEAK_BYTES, (check.__name__, peak)
            assert result.pass_
        cyclicity = peripheral_cyclicity_check(spec)
        assert (cyclicity.pass_, cyclicity.margin) == (margin >= 0.0, margin)
        assert multiplicity_monotonicity_check(spec).pass_ is ok is True

    def test_only_a_multiple_eigenvalue_that_meets_another_takes_an_svd(self, monkeypatch):
        # the powers of 1 are 1, those of -1 are 1 and -1: only -1 meets
        # another peripheral eigenvalue, and 1 is met by -1. A simple
        # eigenvalue has multiplicity 1 with no SVD, so of diag(1, -1) none
        # takes one, and of diag(1, 1, -1) only the double 1
        calls = []
        original = evpos.verify.geometric_multiplicity

        def counting(spec, lam):
            calls.append(complex(lam))
            return original(spec, lam)

        monkeypatch.setattr(evpos.verify, "geometric_multiplicity", counting)
        assert multiplicity_monotonicity_check(eigenvalues(np.diag([1.0, 0.5]))).pass_
        result = multiplicity_monotonicity_check(eigenvalues(np.diag([1.0, -1.0])))
        assert result.pass_ and calls == []
        assert {(r["n"], r["base_multiplicity"]) for r in result.payload["rows"]} == {
            (n, 1) for n in (-2, 0, 2)
        }
        result = multiplicity_monotonicity_check(eigenvalues(np.diag([1.0, 1.0, -1.0])))
        assert result.pass_ and calls == [1.0]
        rows = result.payload["rows"]
        assert {(r["n"], r["base_multiplicity"], r["power_multiplicity"]) for r in rows} == {
            (n, 1, 2) for n in (-2, 0, 2)
        }


class TestPowerBounds:
    """A/spr is power bounded exactly when every peripheral eigenvalue is a
    pole of order 1; both peripheral checks record that rule."""

    JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
    INNER_JORDAN = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    THREE_CYCLE = np.roll(np.eye(3), 1, axis=0)

    @pytest.mark.parametrize(
        "A, bounded, orders",
        [(JORDAN, False, [2]), (INNER_JORDAN, True, [1]), (THREE_CYCLE, True, [1, 1, 1])],
        ids=["jordan", "inner-jordan", "three-cycle"],
    )
    def test_peripheral_pole_orders_decide(self, A, bounded, orders):
        spec = eigenvalues(A)
        est = power_bounded_estimate(spec)
        assert est == {"power_bounded": bounded, "peripheral_pole_orders": orders}
        for check in (peripheral_cyclicity_check, multiplicity_monotonicity_check):
            assert check(spec).hypotheses["power-bounded"] is bounded

    def test_zero_spectral_radius_rejected(self):
        with pytest.raises(VerificationError):
            power_bounded_estimate(eigenvalues(np.zeros((2, 2))))


class TestSharedSpectrum:
    """The spr check reads the spectrum alone and records the verdict it is
    given as its hypothesis, also at spr = 0."""

    def test_spr_check_records_its_hypothesis(self):
        u, _, _ = classify_asymptotic(Diagonal(np.diag(DRIFT), Ell1()))
        for A in (DRIFT, np.zeros((2, 2))):
            result = verify_spr_in_spectrum(eigenvalues(A), asymptotic_verdict=u)
            assert result.hypotheses == {"uniform-asymptotic-positive": False}
        assert verify_spr_in_spectrum(eigenvalues(DRIFT)).hypotheses == {}


class TestCheckSequence:
    """`perron_frobenius_checks` yields the checks in report order and
    gates the ones whose inputs or hypotheses are missing."""

    PERRON = np.array([[2.0, 1.0], [1.0, 2.0]])
    WEAK = PositivityVerdict(Notion.WEAK_ASYMPTOTIC, Confirmed(0))

    @staticmethod
    def names(A, weak):
        return [c.name for c in perron_frobenius_checks(eigenvalues(A), None, weak, Ell1())]

    def test_confirmed_weak_asymptotic_adds_the_eigenvector(self):
        checks = list(perron_frobenius_checks(eigenvalues(self.PERRON), None, self.WEAK, Ell1()))
        assert [c.name for c in checks] == [
            "spr-in-spectrum",
            "peripheral-cyclicity",
            "multiplicity-monotonicity",
            "positive-eigenvector",
        ]
        eigen = checks[-1]
        assert eigen.pass_ and eigen.tolerance == EIGENVECTOR_TOL
        assert eigen.hypotheses == {"weak-asymptotic-positive": True, "spr-in-spectrum": True}

    def test_zero_spectral_radius_yields_the_spr_check_only(self):
        assert self.names(np.zeros((3, 3)), self.WEAK) == ["spr-in-spectrum"]

    @pytest.mark.parametrize(
        "weak",
        [None, PositivityVerdict(Notion.WEAK_ASYMPTOTIC, UndeterminedUpToHorizon(40))],
        ids=["none", "undetermined"],
    )
    def test_unconfirmed_weak_asymptotic_skips_the_eigenvector(self, weak):
        assert self.names(self.PERRON, weak) == [
            "spr-in-spectrum",
            "peripheral-cyclicity",
            "multiplicity-monotonicity",
        ]

    def test_failed_spr_check_skips_the_eigenvector(self):
        assert self.names(DRIFT, self.WEAK)[-1] == "multiplicity-monotonicity"

    @pytest.mark.parametrize(
        "which, ratio, passes",
        [
            ("adjoint_residual", 0.5, True),
            ("adjoint_residual", 2.0, False),
            ("adjoint_residual", float("nan"), False),
            ("primal_residual", 2.0, False),
        ],
        ids=["adjoint-within", "adjoint-beyond", "adjoint-nan", "primal-beyond"],
    )
    def test_eigenvector_check_reads_both_residuals(self, monkeypatch, which, ratio, passes):
        # each residual, relative to spr, must be within EIGENVECTOR_TOL;
        # the cone distances stay as the solver gave them
        found = positive_eigenvector(eigenvalues(self.PERRON), Ell1())
        assert max(found.primal_residual, found.adjoint_residual) <= 1e-14 * found.value
        edited = found.replace(**{which: ratio * EIGENVECTOR_TOL * found.value})
        monkeypatch.setattr(evpos.verify, "positive_eigenvector", lambda spec, norm: edited)
        checks = list(perron_frobenius_checks(eigenvalues(self.PERRON), None, self.WEAK, Ell1()))
        assert checks[-1].name == "positive-eigenvector" and checks[-1].pass_ is passes
