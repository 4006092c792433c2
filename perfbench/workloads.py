"""Workload inputs and output checks for the evpos benchmark.

Each workload is a tuple of `Case`s built from the seed alone. A model is
one `evpos.cli.run_classify` plus `evpos.report.report_to_json`; both, and the
input builders, are looked up on their modules at call time so that the
traced run sees them through the span recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import evpos.catalog
import evpos.cli
import evpos.generators
import evpos.report
from evpos.classify import (
    Confirmed,
    Notion,
    PositivityVerdict,
    RefutedWithWitness,
    UndeterminedUpToHorizon,
    hierarchy_violations,
)
from evpos.lattice import Ell1, Ell2, EllInf
from evpos.operators import Dense


@dataclass(frozen=True)
class Case:
    """One model and what its report must show: `expected` maps notions to
    status kinds (catalog), `n0_bound` is a generator's certified threshold
    for uniform-eventual positivity."""

    name: str
    model: object
    expected: dict = field(default_factory=dict)
    spr_in_spectrum: Optional[bool] = None
    n0_bound: Optional[int] = None


def catalog(seed: int) -> tuple:
    """Every paper catalog entry; ex5.1 is the alias of ex3.5a and runs once,
    as in `evpos suite paper`."""
    return tuple(
        Case(e.name, e.model, dict(e.expected), e.spr_in_spectrum)
        for e in evpos.catalog.build_catalog(seed)
        if e.name != "ex5.1"
    )


# Dense eventually-positive instances per norm. The l-inf entries stay at
# dims 8 and 9, where the 2^dim enumeration in delta_n is about a quarter of
# a pass; dim 32 takes the sampled path instead. One dim-64 instance keeps
# the pass short.
DENSE_SWEEP = (
    (Ell1, (8, 16, 32, 64)),
    (Ell2, (8, 16, 32)),
    (EllInf, (8, 9, 32)),
)
# Not-positive complex Gaussian matrices near the spectral dimension cap. They
# stay at dim 96: at 128 one model took a quarter of a pass, and a model that
# long gets too few runs in a timed run for its median time to repeat.
GAUSSIAN_SWEEP = ((Ell1, 96), (Ell2, 96))


def dense_sweep(seed: int) -> tuple:
    cases = []
    for norm, dims in DENSE_SWEEP:
        for dim in dims:
            inst = evpos.generators.make_eventually_positive(
                dim, 0.5, seed=seed * 1000 + dim, norm=norm()
            )
            name = f"ep-{norm.__name__}-{dim}"
            cases.append(Case(name, inst.model, n0_bound=inst.n0_bound))
    for norm, dim in GAUSSIAN_SWEEP:
        rng = np.random.default_rng([seed, dim])
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        cases.append(Case(f"gauss-{norm.__name__}-{dim}", Dense(z / np.sqrt(2 * dim), norm())))
    return tuple(cases)


RANDOM_SMALL_DIMS = tuple(range(2, 13))
RANDOM_SMALL_REPEATS = 3


def random_small(seed: int) -> tuple:
    """The `evpos suite random` distribution (dims uniform on 2..12, gap 0.5,
    instance seed seed + 1000 + t), stratified: each dim appears the same
    number of times in a seeded order, so the mix of sizes is equal on every
    seed."""
    dims = np.random.default_rng(seed).permutation(
        np.repeat(RANDOM_SMALL_DIMS, RANDOM_SMALL_REPEATS)
    )
    cases = []
    for t, dim in enumerate(dims):
        inst = evpos.generators.make_eventually_positive(int(dim), 0.5, seed=seed + 1000 + t)
        cases.append(Case(f"random-{t}-dim{dim}", inst.model, n0_bound=inst.n0_bound))
    return tuple(cases)


WORKLOADS = {
    "catalog": catalog,
    "dense-sweep": dense_sweep,
    "random-small": random_small,
}


def classify(case: Case, seed: int) -> tuple:
    """(report, solver failure flag, report text) for one model."""
    report, solver_failure = evpos.cli.run_classify(case.model, case.name, seed)
    return report, solver_failure, evpos.report.report_to_json(report)


_STATUS = {
    "confirmed": lambda s: Confirmed(s["n0"]),
    "refuted": lambda s: RefutedWithWitness(None, s["witness"]),
    "undetermined": lambda s: UndeterminedUpToHorizon(s["horizon"]),
}


def verdicts(report) -> list:
    """The report's classification records as verdicts."""
    return [
        PositivityVerdict(Notion(r["notion"]), _STATUS[r["status"]["kind"]](r["status"]))
        for r in report.classification
    ]


def check(case: Case, report, solver_failure: bool) -> list:
    """Why the model counts as failed; empty when its report is right."""
    problems = []
    if solver_failure:
        problems.append("solver failure")
    if report.contradiction_count > 0:
        problems.append(f"{report.contradiction_count} contradiction(s)")
    for upper, lower in hierarchy_violations(verdicts(report)):
        problems.append(f"hierarchy: {upper} confirmed above {lower} refuted")
    kinds = {r["notion"]: r["status"] for r in report.classification}
    for notion, want in case.expected.items():
        got = kinds.get(notion, {}).get("kind")
        if got != want:
            problems.append(f"{notion}: expected {want}, got {got}")
    if case.spr_in_spectrum is not None:
        got = next((c["pass"] for c in report.checks if c["name"] == "spr-in-spectrum"), None)
        if got != case.spr_in_spectrum:
            problems.append(f"spr-in-spectrum: expected {case.spr_in_spectrum}, got {got}")
    if case.n0_bound is not None:
        status = kinds.get("uniform-eventual", {})
        if status.get("kind") != "confirmed" or status["n0"] > case.n0_bound:
            problems.append(f"uniform-eventual: expected confirmed(n0 <= {case.n0_bound}), got {status}")
    return problems
