"""Reachability guard: every function defined in `src/evpos` must be reached
by `evpos.cli.main` over the command lines below, or stand on ALLOWLIST with
the reason it stays, so code that no report or exit reaches does not
accumulate."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
import types

import numpy as np
import pytest

import evpos
from evpos.catalog import build_catalog
from evpos.cli import main
from evpos.generators import make_eventually_positive
from evpos.lattice import Ell1, EllInf, GridSup
from evpos.operators import (
    Constant,
    Dense,
    Monomial,
    PointCombination,
    RankK,
    SignedPower,
    Tabulated,
    WeightedIntegral,
    model_to_json,
)

# "module.qualname": why the function stays although no command line reaches it
ALLOWLIST = {
    "classify.uniform_eventual": "benchmark span (perfbench/spans.py)",
    "classify.weak_eventual": "benchmark span (perfbench/spans.py)",
    "classify.individual_eventual": (
        "benchmark span, and the vector-by-vector reference that tests "
        "compare classify_eventual with"
    ),
    "classify.delta_n": (
        "benchmark span, and the brute-force l1 reference that the peripheral "
        "rule for finite models is tested against"
    ),
    "spectral.resolvent_matrix": "benchmark span (perfbench/spans.py)",
    "spectral.SingularResolventError.__init__": "raised by resolvent_matrix",
    "spectral.peripheral_spectrum": (
        "public API (evpos.peripheral_spectrum); the rule and the checks read "
        "Spectrum.peripheral_eigenvalues"
    ),
    "operators.power_apply": "reference power for individual_eventual and pairing",
    "operators.Dense.dense": (
        "the contract method that to_dense (a benchmark span) and delta_n read "
        "of a Dense; the checks read its kept spectral_data"
    ),
    "operators.Diagonal.dense": (
        "the dense view that delta_n and the model-contract tests read; the "
        "checks read the closed-form spectral_data"
    ),
    "operators.WeightedShift.dense": (
        "the dense view that the model-contract tests read; the checks read "
        "the closed-form spectral_data"
    ),
    "operators._check_vector": "the length check of power_apply",
    "operators.Dense.to_json": (
        "writes the dense model-file format that classify reads; the tests "
        "write their inputs with it"
    ),
    "operators.pairing": (
        "reference for the closed-form pairings of the rank-k weak eventual notion"
    ),
    "lattice.cone_distance_oracle": "brute-force reference for the cone-distance formula",
    "witnesses.hat_family_witness": (
        "benchmark span, and the finite-width reference that the shrinking-hat "
        "limit is tested against"
    ),
    "lattice.LatticeVector.__len__": "the lengths that power_apply and pairing check",
    "report.report_from_json": "reads reports back; the round-trip tests use it",
    "report._require": "the record-key check of report_from_json",
    "report._template": "builds the record templates when the module is imported, before any command",
    "record.Record.__init_subclass__": (
        "reads each record class's fields when the module is imported, before any command"
    ),
    "record.Record.__eq__": "record value equality, which the tests compare verdicts and models with",
    "record.Record.__hash__": "record value hash, the frozen-dataclass contract that test_record pins",
    "record._initializer": "builds each record class's __init__ when its module is imported",
    "record._reader": (
        "builds each record class's field-tuple reader, for __eq__ and __hash__, "
        "when its module is imported"
    ),
    "record.Record.__repr__": "record text in test failures and debugging; no report prints one",
    "record.Record.__setattr__": "refuses assignment, which would break a record's immutability",
    "record.Record.__delattr__": "refuses deletion, which would break a record's immutability",
}


def _command_lines(tmp):
    """Each catalog example and its model file, an l-inf dense file, five
    rank-k files on a 41-node grid and one on 5 nodes, a dense file above
    the cap on dense views, one with a peripheral Jordan block, one whose
    spectral projection is ill-conditioned, one with a double peripheral
    eigenvalue and a complex nilpotent one, the generators, the suites,
    orbits and the bad-input exits."""

    def write(name, content):
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
        return path

    lines = []
    for entry in build_catalog(0):
        lines.append(["classify", "--example", entry.name])
        lines.append(["classify", write(f"{entry.name}.json", model_to_json(entry.model))])
    inf = make_eventually_positive(5, 0.5, 1, norm=EllInf()).model
    lines.append(["classify", write("ellinf.json", model_to_json(inf))])
    # on a 41-node grid, which keeps the dense checks: the averaging operator
    # g -> (1/2) int g is positive, so its rank-k uniform trio gets past the
    # refuting witnesses; adding i x (g(1) - g(-1)) / 2 puts i, but not -1,
    # in the peripheral spectrum, which the cyclicity rule refutes
    grid = GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
    averaging = RankK((Constant(1.0),), (WeightedIntegral(Constant(1.0), 0.5),), grid)
    rotating = RankK(
        (Constant(1.0), Monomial(1)),
        (WeightedIntegral(Constant(1.0), 0.5), PointCombination((1.0, -1.0), (0.5j, -0.5j))),
        grid,
    )
    # g -> (1/2) int g + 1.2 (int x g) x has the decaying eigen-parameter 0.8
    # and no hat peak, so its uniform notion takes the direct tests of its
    # first powers, which fail up to n = 4
    decaying = RankK(
        (Constant(1.0), Monomial(1)),
        (WeightedIntegral(Constant(1.0), 0.5), WeightedIntegral(Monomial(1), 1.2)),
        grid,
    )
    lines.append(["classify", write("rank-k-averaging.json", model_to_json(averaging))])
    lines.append(["classify", write("rank-k-rotating.json", model_to_json(rotating))])
    lines.append(["classify", write("rank-k-decaying.json", model_to_json(decaying))])
    # g -> (1/2) int g + (int x^3 g) x^3 with x^3 tabulated on the grid, as
    # a function and as a weight: its pairings take the quadrature path
    cube = Tabulated(tuple(np.asarray(grid.nodes) ** 3))
    tabulated = RankK(
        (Constant(1.0), cube), (WeightedIntegral(Constant(1.0), 0.5), WeightedIntegral(cube, 1.0)), grid
    )
    lines.append(["classify", write("rank-k-tabulated.json", model_to_json(tabulated))])
    # g -> g(0) 1 + 0.3 (int sgn g) x: a bump off 0 meets the integral alone,
    # and its powers, multiples of x, change sign (a face witness); a
    # tabulated slope on 5 nodes, whose Perron certificate reads the slope's
    # extremes at the nodes
    face = RankK(
        (Constant(1.0), Monomial(1)),
        (PointCombination((0.0,), (1.0,)), WeightedIntegral(SignedPower(0.0), 0.3)),
        grid,
    )
    lines.append(["classify", write("rank-k-face.json", model_to_json(face))])
    coarse = GridSup(tuple(np.linspace(-1.0, 1.0, 5)))
    tabulated_slope = RankK(
        (Constant(1.0), Tabulated(coarse.nodes)),
        (WeightedIntegral(Constant(1.0), 0.5), PointCombination((1.0, -1.0), (0.25, -0.25))),
        coarse,
    )
    lines.append(["classify", write("rank-k-tabulated-slope.json", model_to_json(tabulated_slope))])
    lines.append(["classify", write("dense129.json", model_to_json(Dense(np.eye(129), EllInf())))])
    # a peripheral Jordan block that the solver splits, whose limit points
    # allow for the merge error; it is not nonnegative, so the eventual trio
    # leaves its limit status to the rule
    jordan = Dense(np.array([[0.0, 2.0], [-0.5, 2.0]]), EllInf())
    lines.append(["classify", write("jordan.json", model_to_json(jordan))])
    # a double eigenvalue 1 with no well-conditioned spectral projection
    ill = Dense(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 5e8], [0.0, 5e-10, 0.5]]), Ell1())
    lines.append(["classify", write("ill-conditioned.json", model_to_json(ill))])
    # a double peripheral eigenvalue 1 that -1 meets: the monotonicity check
    # takes its geometric multiplicity
    double = Dense(np.diag([1.0, 1.0, -1.0]), Ell1())
    lines.append(["classify", write("double-one.json", model_to_json(double))])
    # a complex nilpotent: its powers below the dimension take the complex
    # grid test
    nilpotent = Dense(np.array([[0.0, 1j], [0.0, 0.0]]), Ell1())
    lines.append(["classify", write("complex-nilpotent.json", model_to_json(nilpotent))])
    for spec in ("eventually_positive:dim=4", "positive_random:dim=3", "cyclic_block:k=3"):
        lines.append(["classify", "--generate", spec])
    lines.append(["classify", "--example", "rem3.2b", "--out", os.path.join(tmp, "out.json")])
    lines.append(["suite", "paper"])
    lines.append(["suite", "random", "--trials", "2"])
    vector = write("vector.json", [[1, 0], [0.5, 0]])
    lines.append(["orbit", "--example", "rem3.2b", "--vector", vector, "--n", "5"])
    lines.append(["orbit", write("orbit-model.json", model_to_json(inf)), "--n", "3"])
    # the negative shift and a rank-k model: classification steps no orbit
    lines.append(["orbit", "--example", "ex3.5b"])
    lines.append(["orbit", "--example", "ex2.2a", "--n", "3"])
    # the L^p quadrature norm of ex2.2b's orbit
    lines.append(["orbit", "--example", "ex2.2b", "--n", "2"])
    bad = [
        ["classify", write("not-json.json", "{")],
        ["classify", write("bad-model.json", {"variant": "dense", "n": 2})],
        ["classify", os.path.join(tmp, "missing.json")],
        ["classify", "--example", "no-such-example"],
        ["classify", "--generate", "no_such_kind"],
        ["classify", "--generate", "eventually_positive:dim"],
        ["classify", "--generate", "eventually_positive:dim=0"],
        ["classify", "--example", "rem3.2b", "--horizon", "5"],
        ["classify", "--example", "rem3.2b", "--tol", "nan"],
        ["suite", "random", "--trials", "-1"],
        ["suite", "properties", "--trials", "20"],
        ["orbit", "--example", "rem3.2b", "--n", "-1"],
        ["orbit", "--example", "rem3.2b", "--vector", write("short.json", [[1, 0]])],
        ["orbit", "--example", "rem3.2b", "--vector", write("bad-vector.json", [["a"]])],
        ["orbit", "--example", "rem3.2b", "--vector", write("nan-vector.json", [[1e999, 0]])],
        ["orbit", "--example", "rem3.2b", "--vector", write("vector-not-json.json", "[")],
    ]
    return lines, bad


def _defined_functions():
    """{(file, first line, name): "module.qualname"} for every function and
    method whose source is in the evpos package; lambdas, comprehensions and
    class bodies are left out."""
    found = {}
    for info in pkgutil.iter_modules(evpos.__path__):
        module = importlib.import_module(f"evpos.{info.name}")
        path = os.path.realpath(module.__file__)
        with open(path) as fh:
            stack = [(compile(fh.read(), path, "exec"), info.name)]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_NEWLOCALS:
                    found[(path, const.co_firstlineno, const.co_name)] = name
                stack.append((const, name))
    return found


def _exit_code(argv) -> int:
    """What `evpos` exits with: main's return value, or the code of the
    SystemExit that argparse raises on a bad argument."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    lines, bad = _command_lines(str(tmp_path_factory.mktemp("reach")))
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in lines + bad:
                codes.append((argv, _exit_code(argv)))
        finally:
            sys.setprofile(None)
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in seen}
    return codes, keys, len(lines)


def test_command_lines_exit_as_expected(reached):
    codes, _, n_good = reached
    # the ill-conditioned projection is a solver failure
    solver = ("ill-conditioned.json",)
    assert [(argv, code) for argv, code in codes[:n_good] if code != 0] == [
        (argv, 3) for argv, _ in codes[:n_good] if argv[-1].endswith(solver)
    ]
    assert [argv for argv, code in codes[n_good:] if code != 2] == []


def test_every_function_is_reached_or_allowlisted(reached):
    _, keys, _ = reached
    defined = _defined_functions()
    unreached = sorted(name for key, name in defined.items() if key not in keys)
    missing = [name for name in unreached if name not in ALLOWLIST]
    assert not missing, f"no command line reaches {missing}"
    # an allowlist entry must name a function that exists and is unreached
    stale = sorted(set(ALLOWLIST) - set(unreached))
    assert not stale, f"allowlisted but reached or gone: {stale}"


# (module, callable, parameter): each parameter had one value at every call
# site and is now a module constant, or, for `power_bounds`, is read from the
# spectrum the check is given, or, for `_rank_k_status`'s U, V and passes,
# is the model's samples, its rows and the row-block grid test, and its
# `status` the limit status it reads itself, or, for `_singular_refutation`'s
# `notion`, is the individual notion, or, for `horizon`, went with the orbit
# it bounded, so a caller can no longer pass a value that moves a verdict away
# from what the reports pin; every verdict's report record states
# classify.DEFAULT_TOL, so no verdict holds a tolerance
REMOVED_PARAMETERS = [
    ("spectral", "eigenvalues", "tol"),
    ("spectral", "geometric_multiplicity", "tol"),
    ("spectral", "peripheral_spectrum", "tol"),
    ("spectral", "Spectrum", "solver_tolerance"),
    ("verify", "verify_spr_in_spectrum", "tol"),
    ("verify", "peripheral_cyclicity_check", "tol"),
    ("verify", "multiplicity_monotonicity_check", "tol"),
    ("verify", "positive_eigenvector", "tol"),
    ("verify", "phase_aligned_cone_distance", "grid"),
    ("verify", "peripheral_cyclicity_check", "power_bounds"),
    ("verify", "multiplicity_monotonicity_check", "power_bounds"),
    ("verify", "positive_eigenvector", "power_bounds"),
    ("classify", "delta_n", "spr"),
    ("classify", "classify_eventual", "horizon"),
    ("classify", "uniform_eventual", "horizon"),
    ("classify", "weak_eventual", "horizon"),
    ("cli", "run_classify", "horizon"),
    ("classify", "classify_eventual", "tol"),
    ("classify", "classify_asymptotic", "tol"),
    ("classify", "uniform_eventual", "tol"),
    ("classify", "weak_eventual", "tol"),
    ("classify", "individual_eventual", "tol"),
    ("classify", "LimitStatus", "tol"),
    ("classify", "_block_passes", "tol"),
    ("classify", "_power_failure", "tol"),
    ("classify", "_singular_refutation", "tol"),
    ("classify", "_singular_refutation", "notion"),
    ("classify", "_hat_refutation", "tol"),
    ("classify", "_one_status", "tol"),
    ("classify", "_dense_status", "tol"),
    ("classify", "_tail_certificate", "tol"),
    ("classify", "_diagonal_status", "tol"),
    ("classify", "_shift_status", "tol"),
    ("classify", "_rank_k_eventual", "tol"),
    ("classify", "_rank_k_status", "tol"),
    ("classify", "_rank_k_status", "U"),
    ("classify", "_rank_k_status", "V"),
    ("classify", "_rank_k_status", "passes"),
    ("classify", "_rank_k_status", "status"),
    ("classify", "_diagonal_limit_status", "tol"),
    ("classify", "_peripheral_status", "tol"),
    ("classify", "_rank_k_limit_status", "tol"),
    ("classify", "_peripheral_indices", "tol"),
    ("classify", "PositivityVerdict", "tolerance"),
    ("cli", "run_classify", "tol"),
    ("verify", "peripheral_cyclicity_check", "K"),
    ("verify", "multiplicity_monotonicity_check", "n_list"),
]


@pytest.mark.parametrize(
    "module, name, parameter",
    REMOVED_PARAMETERS,
    ids=[f"{m}.{n}.{p}" for m, n, p in REMOVED_PARAMETERS],
)
def test_constant_parameter_is_not_in_the_signature(module, name, parameter):
    obj = getattr(importlib.import_module(f"evpos.{module}"), name)
    assert parameter not in inspect.signature(obj).parameters


def test_constants_keep_the_removed_defaults():
    # the values the removed parameters defaulted to; the pinned report
    # digests depend on them
    import evpos.classify
    import evpos.spectral
    import evpos.verify

    assert evpos.spectral.DEFAULT_TOL == 1e-8
    assert evpos.verify.DEFAULT_TOL == 1e-8
    assert evpos.classify.DEFAULT_TOL == 1e-9
    assert evpos.verify.CYCLICITY_POWERS == 12
    assert evpos.verify.MONOTONICITY_POWERS == (-3, -2, -1, 0, 1, 2, 3)
    assert evpos.verify.ANNIHILATED == 1e-9
