"""Acceptance suite: one test per criterion, each printing a single
pass/fail line (run with -s to see them on success)."""

import time

import numpy as np
import pytest

from evpos.catalog import (
    averaging_plus_singular,
    averaging_plus_slope,
    diagonal_drift,
    nonreal_diagonal,
)
from evpos.classify import (
    Confirmed,
    RefutedWithWitness,
    classify_asymptotic,
    delta_n,
    hierarchy_violations,
    individual_eventual,
    uniform_eventual,
    weak_eventual,
)
from evpos.cli import run_classify, run_suite
from evpos.generators import cyclic_block, make_eventually_positive
from evpos.lattice import (
    Ell1,
    Ell2,
    EllInf,
    LatticeVector,
    cone_distance,
    cone_distance_oracle,
)
from evpos.operators import power_apply
from evpos.report import verdict_from_record
from evpos.rng import rng_for
from evpos.spectral import eigenvalues, peripheral_spectrum
from evpos.verify import (
    multiplicity_monotonicity_check,
    peripheral_cyclicity_check,
    positive_eigenvector,
    verify_spr_in_spectrum,
    CheckResult,
)
from evpos.witnesses import hat_family_witness, signed_power_witness

# verdict sets registered by criteria 1-7; criterion 8 checks the hierarchy
# invariant across all of them
_REGISTERED: list = []


class _criterion:
    def __init__(self, number: int, description: str, limit_s: float | None = None):
        self.number = number
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and (self.limit is None or elapsed <= self.limit)
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} - {self.description} "
              f"({elapsed:.2f}s)")
        if exc_type is None and self.limit is not None and elapsed > self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded the {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _seeded_positive_vectors(space, count, seed):
    rng = rng_for(seed, 10)
    dim = len(space.nodes)
    out = []
    for _ in range(count):
        v = rng.uniform(0.05, 1.0, size=dim).astype(complex)
        out.append(LatticeVector(v, space))
    return out


def test_criterion_1_grid_slope_model():
    with _criterion(1, "grid slope model: individual yes, uniform no", 1.0):
        T = averaging_plus_slope(201)

        # individual-eventual Confirmed with a finite threshold for each of
        # 20 seeded positive grid functions
        for g in _seeded_positive_vectors(T.space, 20, 1):
            v = individual_eventual(T, vectors=(g,), horizon=30)
            assert isinstance(v.status, Confirmed)
            assert v.status.n0 <= 30

        uni = uniform_eventual(T)
        assert isinstance(uni.status, RefutedWithWitness)

        # exact hat-family arithmetic: with eps = 2^{-(n+1)} the value of
        # T^n g_eps at -1 is eps/4 - 2^{-(n+1)}, below the bound
        # eps/2 - 2^{-(n+1)} < 0
        for n in range(1, 31):
            eps = 2.0 ** -(n + 1)
            w = hat_family_witness(T, n, eps)
            assert w is not None
            assert w.point == -1.0
            bound = eps / 2.0 - 2.0 ** -(n + 1)
            assert bound < 0
            assert w.value <= bound + 1e-12
            assert w.value == pytest.approx(eps / 4.0 - 2.0 ** -(n + 1), abs=1e-15)

        _REGISTERED.append(
            ("ex2.2a", [uni, individual_eventual(T, horizon=30), weak_eventual(T)])
        )


def test_criterion_2_singular_model():
    with _criterion(2, "singular quadrature model: weak yes, individual no", 1.0):
        T = averaging_plus_singular(400, p=2.0)

        # the coupling constant c = 3/16 makes <phi_2, f_2> = 1/2 exactly
        D = T.duality
        assert abs(D[1, 1] - 0.5) <= 1e-10
        assert abs(D[0, 0] - 1.0) <= 1e-10

        weak = weak_eventual(T)
        assert isinstance(weak.status, Confirmed)

        # analytic negativity points for the half-line indicator input (the
        # constant-one input pairs to zero against phi_2 and is degenerate)
        nodes = np.asarray(T.space.nodes)
        g = LatticeVector(np.where(nodes > 0, 1.0, 0.0).astype(complex), T.space)
        for n in range(1, 31):
            w = signed_power_witness(T, g, n)
            assert w is not None
            assert w.value < 0

        # while the pointwise negativity persists, the quadrature cone
        # distance dies: the asymptotic/eventual split
        ind = individual_eventual(T, vectors=(g,), horizon=30)
        assert isinstance(ind.status, RefutedWithWitness)
        assert cone_distance(power_apply(T, 40, g)) < 1e-6

        _REGISTERED.append(
            ("ex2.2b", [uniform_eventual(T), individual_eventual(T, horizon=30), weak])
        )


def test_criterion_3_drift_truncation():
    with _criterion(3, "diagonal drift truncation: spr not in spectrum", 2.0):
        T = diagonal_drift(50)
        report, failed = run_classify(T, "ex5.1", 0)
        assert not failed

        spec = eigenvalues(np.diag(T.symbol))
        assert spec.spectral_radius == pytest.approx(49.0 / 50.0, abs=1e-10)

        spr_check = [c for c in report.checks if c["name"] == "spr-in-spectrum"][0]
        assert not spr_check["pass"]

        from evpos.verify import verify_spr_in_spectrum as direct

        assert direct(eigenvalues(np.diag(T.symbol))).payload["distance"] == pytest.approx(
            49.0 / 50.0, abs=1e-8
        )

        u, i, w = classify_asymptotic(T)
        assert isinstance(u.status, RefutedWithWitness)
        assert isinstance(i.status, RefutedWithWitness)
        assert isinstance(w.status, RefutedWithWitness)
        witness = u.status.witness
        assert witness.entries[-1] == pytest.approx(1.0)  # e_N
        assert np.sum(np.abs(witness.entries[:-1])) == pytest.approx(0.0)

        # hypotheses unmet, so the failed conclusion is no contradiction
        assert spr_check["hypotheses"]["uniform-asymptotic-positive"] is False
        assert not spr_check["contradiction"]
        assert report.contradiction_count == 0

        _REGISTERED.append(("ex5.1", [u, i, w]))


def test_criterion_4_nonreal_diagonal():
    with _criterion(4, "diag(1, i/2): exact deltas and Perron pair", 5.0):
        T = nonreal_diagonal()

        # delta_n by l^1 extreme points: the worst direction is e_2 with
        # d_+((i/2)^n) = 2^{-n}, except that (i/2)^n is positive real when
        # 4 | n, where the distance vanishes
        for n in range(1, 41):
            val, _ = delta_n(T, n)
            expected = 0.0 if n % 4 == 0 else 2.0**-n
            assert val == pytest.approx(expected, abs=1e-12)

        u, i, w = classify_asymptotic(T)
        assert isinstance(u.status, Confirmed)
        assert isinstance(i.status, Confirmed)
        assert isinstance(w.status, Confirmed)

        spec = eigenvalues(np.diag(T.symbol))
        assert verify_spr_in_spectrum(spec).pass_

        result = positive_eigenvector(spec, Ell1())
        assert result.pole_order == 1
        assert result.value == pytest.approx(1.0)
        for vec in (result.primal, result.adjoint):
            assert abs(vec.entries[0]) == pytest.approx(1.0, abs=1e-9)
            assert abs(vec.entries[1]) <= 1e-9
        assert result.primal_cone_distance <= 1e-6
        assert result.adjoint_cone_distance <= 1e-6

        _REGISTERED.append(("rem3.2b", [u, i, w]))


def test_criterion_5_random_suite():
    with _criterion(5, "100 seeded eventually-positive instances", 10.0):
        contradictions = 0
        for t in range(100):
            rng = rng_for(5, t)
            dim = int(rng.integers(2, 13))
            inst = make_eventually_positive(dim, 0.5, seed=900 + t, norm=Ell1())
            spec = eigenvalues(inst.model.matrix)

            uni = uniform_eventual(inst.model)
            assert isinstance(uni.status, Confirmed)
            assert uni.status.n0 <= inst.n0_bound

            spr_check = verify_spr_in_spectrum(spec)
            assert spr_check.pass_

            ev = positive_eigenvector(spec, Ell1())
            assert ev.primal_cone_distance <= 1e-6
            assert ev.adjoint_cone_distance <= 1e-6

            cyc = peripheral_cyclicity_check(spec)
            assert cyc.pass_
            periph = peripheral_spectrum(spec)
            assert len(periph) == 1

            gated = CheckResult(
                spr_check.name,
                spr_check.pass_,
                spr_check.margin,
                spr_check.tolerance,
                spr_check.payload,
                {"uniform-eventually-positive": True},
            )
            contradictions += int(gated.contradiction) + int(cyc.contradiction)

            if t % 10 == 0:
                trio = [
                    uni,
                    individual_eventual(inst.model, horizon=30),
                    weak_eventual(inst.model),
                ]
                _REGISTERED.append((f"random-{t}", trio))
        assert contradictions == 0


def test_criterion_6_cyclicity_suite():
    with _criterion(6, "cyclic blocks: peripheral roots of unity", 5.0):
        for k, inner in ((2, 3), (3, 3), (4, 3), (6, 4)):
            T = cyclic_block(k, inner, seed=k)
            A = T.matrix
            assert A.shape[0] <= 24
            spec = eigenvalues(A)
            periph = peripheral_spectrum(spec)
            roots = spec.spectral_radius * np.exp(2j * np.pi * np.arange(k) / k)
            assert len(periph) == k
            for r in roots:
                assert np.min(np.abs(periph - r)) < 1e-8
            assert peripheral_cyclicity_check(spec).pass_
            assert multiplicity_monotonicity_check(spec).pass_


def test_criterion_7_property_sweeps():
    with _criterion(7, "cone-distance formula vs brute-force oracle", 60.0):
        rng = rng_for(7, 0)

        # cone-distance formula vs brute-force oracle on the small dims of
        # 10^4 random complex vectors
        norms = (Ell1(), Ell2(), EllInf())
        resolution = 1e-3
        for _ in range(10_000):
            dim = int(rng.integers(1, 17))
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            norm = norms[int(rng.integers(0, 3))]
            x = LatticeVector(z, norm)
            if dim <= 4:
                d = cone_distance(x)
                d_oracle = cone_distance_oracle(x, resolution)
                assert d <= d_oracle + 1e-12
                assert d_oracle - d <= dim * resolution


def test_criterion_8_hierarchy_invariant():
    with _criterion(8, "no Confirmed sits above a Refuted in the hierarchy"):
        assert _REGISTERED, "earlier criteria must register verdicts"
        reports, _ = run_suite("paper", 0)
        for report in reports:
            verdicts = [verdict_from_record(r) for r in report.classification]
            nilpotent = report.operator_id == "ex3.5b"  # no asymptotic rescaling
            assert len(verdicts) == (3 if nilpotent else 6), report.operator_id
            _REGISTERED.append((report.operator_id, verdicts))
        for label, verdicts in _REGISTERED:
            assert hierarchy_violations(verdicts) == [], label

