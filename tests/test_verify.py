import numpy as np
import pytest

from evpos.classify import classify_asymptotic
from evpos.lattice import Ell1, Ell2, LatticeVector
from evpos.operators import Diagonal
from evpos.rng import rng_for
from evpos.spectral import eigenvalues
from evpos.verify import (
    CheckResult,
    VerificationError,
    multiplicity_monotonicity_check,
    peripheral_cyclicity_check,
    phase_aligned_cone_distance,
    positive_eigenvector,
    power_bounded_estimate,
    verify_spr_in_spectrum,
)

NONREAL = np.diag([1.0, 0.5j])
DRIFT = np.diag([-1.0 + 1.0 / j for j in range(1, 51)])


def solved(A):
    """The spectrum of A and the power bounds that the checks read with it."""
    spec = eigenvalues(A)
    return spec, power_bounded_estimate(spec)


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
        result = positive_eigenvector(*solved(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert result.value == pytest.approx(3.0, abs=1e-9)
        v = result.primal.entries
        assert abs(v[0]) == pytest.approx(abs(v[1]), abs=1e-8)
        assert result.primal_cone_distance <= 1e-6

    def test_nonreal_diagonal(self):
        result = positive_eigenvector(*solved(NONREAL))
        assert result.pole_order == 1
        assert result.value == pytest.approx(1.0)
        assert abs(result.primal.entries[0]) == pytest.approx(1.0)
        assert abs(result.primal.entries[1]) < 1e-9
        assert result.adjoint_cone_distance <= 1e-6

    def test_residuals_small(self):
        rng = rng_for(10, 0)
        A = rng.uniform(0.1, 1.0, size=(6, 6))
        result = positive_eigenvector(*solved(A))
        assert result.primal_residual <= 1e-6
        assert result.adjoint_residual <= 1e-6

    def test_phase_alignment_handles_rotated_vector(self):
        x = LatticeVector(np.exp(0.7j) * np.array([1.0, 2.0], dtype=complex), Ell2())
        assert phase_aligned_cone_distance(x) <= 1e-6


class TestPeripheralChecks:
    def test_three_cycle_cyclic(self):
        C = np.roll(np.eye(3), 1, axis=0)
        assert peripheral_cyclicity_check(*solved(C), K=6).pass_

    def test_nonreal_diagonal_cyclic(self):
        assert peripheral_cyclicity_check(*solved(NONREAL)).pass_

    def test_non_cyclic_spectrum_fails_with_hypothesis_note(self):
        A = np.diag([1.0, -1.0, 1j])
        from evpos.classify import Confirmed
        from evpos.operators import Diagonal

        u, _, w = classify_asymptotic(Diagonal(np.diag(A), Ell1()))
        result = peripheral_cyclicity_check(*solved(A), asymptotic_verdict=u)
        assert not result.pass_
        assert result.hypotheses["uniform-asymptotic-positive"] is False
        assert not result.contradiction

    def test_double_cycle_multiplicities(self):
        C = np.roll(np.eye(3), 1, axis=0)
        A = np.kron(np.eye(2), C)
        result = multiplicity_monotonicity_check(*solved(A))
        assert result.pass_
        mults = [
            r["base_multiplicity"]
            for r in result.payload["rows"]
            if "base_multiplicity" in r
        ]
        assert set(mults) == {2}

    def test_nonreal_diagonal_multiplicities(self):
        assert multiplicity_monotonicity_check(*solved(NONREAL)).pass_

    def test_missing_power_recorded(self):
        A = np.diag([1.0, -1.0, 1j])
        result = multiplicity_monotonicity_check(*solved(A), n_list=[3])
        assert not result.pass_
        assert any("missing_power" in r for r in result.payload["rows"])


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
        spec, est = solved(A)
        assert est == {"power_bounded": bounded, "peripheral_pole_orders": orders}
        for check in (peripheral_cyclicity_check, multiplicity_monotonicity_check):
            assert check(spec, est).hypotheses["power-bounded"] is bounded

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
