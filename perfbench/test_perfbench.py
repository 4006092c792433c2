"""Tests of the benchmark's own code: self-time arithmetic, the binding
sweep of the span recorder, the output checks that count failures, and the
repeated, reference-scaled runs of a pass."""

import dataclasses
import hashlib
import statistics
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from evpos.lattice import Ell1
from evpos.operators import Dense


def test_self_time_subtracts_union_of_children():
    synthetic = [
        ("root", 0.0, 10.0, -1, "m", 0),
        ("a", 1.0, 4.0, 0, "m", 0),
        ("b", 3.0, 6.0, 0, "m", 0),  # overlaps a: the union [1, 6] counts once
        ("a.child", 2.0, 3.0, 1, "m", 0),
        ("late", 9.0, 12.0, 0, "m", 0),  # clipped to the parent's end
        ("other-root", 20.0, 21.0, -1, "n", 0),
    ]
    assert spans.self_times(synthetic) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.0]
    totals = spans.layer_totals(synthetic, 1, 4)
    assert totals == {"a": (1, 2.0, 0), "b": (1, 3.0, 0), "a.child": (1, 1.0, 0)}


def test_binding_sweep_wraps_every_evpos_binding():
    originals = {
        (module, fn): getattr(sys.modules[f"evpos.{module}"], fn)
        for module, fn in spans.TRACED
    }
    model = workloads.random_small(0)[0].model
    recorder = spans.Recorder()
    recorder.install()
    try:
        for m in spans.evpos_modules():
            for attr, value in vars(m).items():
                assert all(value is not orig for orig in originals.values()), (
                    f"{m.__name__}.{attr} still bound to the unwrapped function")
        import evpos.classify
        import evpos.operators

        assert evpos.classify.power_apply is evpos.operators.power_apply
        evpos.classify.individual_eventual(model)
        names = [s[0] for s in recorder.spans]
        parents = {recorder.spans[s[3]][0] for s in recorder.spans
                   if s[0] == "operators.power_apply"}
        assert names[0] == "classify.individual_eventual"
        assert parents == {"classify.individual_eventual"}
    finally:
        recorder.uninstall()
    for (module, fn), orig in originals.items():
        assert getattr(sys.modules[f"evpos.{module}"], fn) is orig


def test_failure_counter_flags_wrong_catalog_expectation():
    case = next(c for c in workloads.catalog(0) if c.name == "rem3.2b")
    report, solver_failure, _ = workloads.classify(case, 0)
    assert workloads.check(case, report, solver_failure) == []
    wrong = dataclasses.replace(
        case, expected={**case.expected, "uniform-asymptotic": "refuted"})
    problems = workloads.check(wrong, report, solver_failure)
    assert problems == ["uniform-asymptotic: expected refuted, got confirmed"]


def test_failure_counter_flags_missed_generator_bound():
    case = workloads.Case(
        "positive", Dense(np.full((3, 3), 0.5 + 0j), Ell1()), n0_bound=0)
    report, solver_failure, _ = workloads.classify(case, 0)
    assert workloads.check(case, report, solver_failure) == []
    late = dataclasses.replace(case, model=Dense(
        np.array([[1.0, -0.2], [0.1, 0.5]], dtype=complex), Ell1()))
    report, solver_failure, _ = workloads.classify(late, 0)
    assert any("uniform-eventual" in p for p in workloads.check(late, report, solver_failure))


def test_repeated_runs_are_scaled_and_must_repeat_the_report():
    case = workloads.Case(
        "positive", Dense(np.full((3, 3), 0.5 + 0j), Ell1()), n0_bound=0)
    texts = iter(["a", "a", "a", "b"])

    class Program:
        check = staticmethod(workloads.check)

        @staticmethod
        def classify(c, seed):
            report, solver_failure, _ = workloads.classify(c, seed)
            return report, solver_failure, next(texts)

    steady = run.run_pass(Program, [case], 0, reps=[2], ref_calls=[2])
    row = steady[0]
    assert row.problems == []
    assert len(row.seconds) == len(row.scaled) == 2
    assert len(steady.refs) == 8  # two reference calls on each side of each run
    assert steady.digest == hashlib.sha256(b"a").hexdigest()  # first round only
    assert row.scaled[0] == pytest.approx(
        row.seconds[0] * run.REF_S / statistics.mean(steady.refs[:4]))

    changed = run.run_pass(Program, [case], 0, reps=[2])
    assert changed[0].problems == ["report differs from the model's first run in the pass"]
