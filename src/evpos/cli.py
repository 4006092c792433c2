"""Command-line harness: classify a model, run a suite, or dump the cone
decay of an orbit as CSV.

Exit codes: 0 ok, 1 check contradiction (or suite failure), 2 input error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .catalog import build_catalog, get_example
from .classify import (
    LimitStatus,
    NotClassifiableError,
    classify_asymptotic,
    classify_eventual,
)
from .generators import (
    GeneratorError,
    cyclic_block,
    make_eventually_positive,
    positive_random,
)
from .lattice import LatticeVector, cone_distance, norm_value
from .operators import (
    Dense,
    OperatorError,
    OperatorModel,
    _j2c,
    model_digest,
    model_from_json,
)
from .report import (
    AnalysisReport,
    check_record,
    report_to_json,
    spectrum_record,
    verdict_record,
)
from .rng import rng_for
from .spectral import SpectralError
from .verify import VerificationError, perron_frobenius_checks

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

# the largest model that is not a `Dense` that the checks run on, as they
# form dense dim x dim arrays (peripheral projections, and a rank-k model's
# dense view); a `Dense` is checked at any size
DIM_CAP = 128


class InputError(ValueError):
    pass


# each generator kind: its function, and each parameter's default, whose
# type reads the value a spec gives
GENERATORS = {
    "eventually_positive": (
        lambda **kw: make_eventually_positive(**kw).model,
        {"dim": 4, "gap": 0.5, "seed": 0},
    ),
    "positive_random": (positive_random, {"dim": 4, "seed": 0}),
    "cyclic_block": (cyclic_block, {"k": 3, "inner_dim": 2, "seed": 0}),
}


def _parse_generator_spec(spec: str):
    """kind:key=value,... e.g. eventually_positive:dim=4,gap=0.5,seed=3"""
    kind, _, rest = spec.partition(":")
    if kind not in GENERATORS:
        raise InputError(f"unknown generator kind {kind!r}; known: {', '.join(GENERATORS)}")
    build, defaults = GENERATORS[kind]
    params = {}
    for part in rest.split(",") if rest else ():
        key, eq, value = (x.strip() for x in part.partition("="))
        if not eq:
            raise InputError(f"malformed generator parameter {part!r}")
        if key in params or key not in defaults:
            problem = f"key {key!r} given twice" if key in params else f"unknown key {key!r}"
            raise InputError(f"{kind}: {problem}; accepted keys: {', '.join(defaults)}")
        params[key] = value
    kwargs = {}
    for key, default in defaults.items():
        cast = type(default)
        try:
            kwargs[key] = cast(params.get(key, default))
        except ValueError:
            article = "an" if cast is int else "a"
            raise InputError(
                f"{kind}: {key}={params[key]!r} is not {article} {cast.__name__}"
            ) from None
    try:
        return build(**kwargs)
    except (GeneratorError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _load_model(path: str) -> OperatorModel:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return model_from_json(data)
    except KeyError as exc:
        # str() of a KeyError is the repr of its key
        raise InputError(f"{path}: bad model descriptor: missing key {exc.args[0]!r}") from exc
    except (OperatorError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: bad model descriptor: {exc}") from exc


def _load_vector(path: str) -> np.ndarray:
    """Entries of a JSON list of [re, im] pairs of finite numbers, each read
    as a model file's complex entry is."""
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read vector: {exc}") from exc
    try:
        vec = np.array([_j2c([re, im]) for re, im in entries], dtype=complex)
    except (OperatorError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: vector entries must be [re, im] number pairs: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{path}: vector entries must be finite")
    return vec


def run_classify(model: OperatorModel, operator_id: str, seed: int = 0) -> tuple:
    """(AnalysisReport, solver_failure_flag): the eventual trio always, the
    asymptotic trio when the rescaling is defined, then the checks. Both
    trios read one limit status (`classify.LimitStatus`). The checks read
    the model's `spectral_data()`, a `Dense` at any size and any other model
    at dim <= DIM_CAP. A solver failure in the asymptotic trio drops
    that trio, and one anywhere in the checks ends them; what was made
    before it stays in the report."""
    solver_failure = False
    limit = LimitStatus(model)
    verdicts = list(classify_eventual(model, limit=limit))
    try:
        verdicts.extend(classify_asymptotic(model, limit=limit))
    except NotClassifiableError:
        pass
    except SpectralError:
        solver_failure = True
    by_notion = {v.notion._value_: v for v in verdicts}

    checks = []
    spec = None
    if isinstance(model, Dense) or model.dim <= DIM_CAP:
        try:
            spec = model.spectral_data()
            for check in perron_frobenius_checks(
                spec,
                by_notion.get("uniform-asymptotic"),
                by_notion.get("weak-asymptotic"),
                model.norm,
            ):
                checks.append(check)
        except (SpectralError, VerificationError):
            solver_failure = True

    descriptor = {"variant": model.variant, "dim": model.dim, "norm": {"kind": model.norm.kind},
                  "sha256": model_digest(model)}
    report = AnalysisReport(operator_id, descriptor, tuple(verdict_record(v) for v in verdicts),
                            None if spec is None else spectrum_record(spec),
                            tuple(check_record(c) for c in checks), seed)
    return report, solver_failure


# ---------------------------------------------------------------------------
# suites


def _paper_cases(seed: int, trials: int):
    for entry in build_catalog(seed):
        yield entry.model, entry.name, entry.expected, entry.spr_in_spectrum


def _random_cases(seed: int, trials: int):
    for t in range(trials):
        dim = int(rng_for(seed, t).integers(2, 13))
        inst = make_eventually_positive(dim, 0.5, seed=int(seed + 1000 + t))
        yield inst.model, f"random-{t}", {}, None


# each suite: its (model, name, expected verdicts, expected spr check) cases
# for a seed and a trial count
SUITES = {"paper": _paper_cases, "random": _random_cases}


def run_suite(suite_name: str, seed: int = 0, trials: int = 100):
    if suite_name not in SUITES:
        raise InputError(f"unknown suite {suite_name!r}")
    reports = []
    mismatches = []
    contradictions = 0
    failures = 0
    for model, name, expected, spr_in_spectrum in SUITES[suite_name](seed, trials):
        report, failed = run_classify(model, name, seed)
        failures += int(failed)
        contradictions += report.contradiction_count
        got = {r["notion"]: r["status"]["kind"] for r in report.classification}
        got.update((c["name"], c["pass"]) for c in report.checks)
        if spr_in_spectrum is not None:
            expected = {**expected, "spr-in-spectrum": spr_in_spectrum}
        mismatches += [(name, k, v, got.get(k)) for k, v in expected.items() if got.get(k) != v]
        reports.append(report)
    return reports, {
        "mismatches": mismatches,
        "contradictions": contradictions,
        "solver_failures": failures,
    }


# ---------------------------------------------------------------------------
# argument parsing


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. It reports an unknown option under its own
    usage line, and checks that exactly one of its model `sources` is given.
    The check is made after parsing, not with an argparse exclusive group:
    there the positional model would take the value of an unknown option
    and report that clash instead of the unknown option."""

    def __init__(self, *args, sources: tuple = (), **kwargs):
        super().__init__(*args, **kwargs)
        self.sources = sources

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        given = [s for s in self.sources if getattr(namespace, s.lstrip("-")) is not None]
        if self.sources and len(given) != 1:
            self.error(f"give exactly one of {', '.join(self.sources)}")
        return namespace, extra


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpos",
        description="eventual/asymptotic positivity classification and "
        "Perron-Frobenius verification for complex linear operators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_classify = sub.add_parser(
        "classify", help="classify one operator model", sources=("model", "--example", "--generate")
    )
    p_classify.add_argument("model", nargs="?", help="path to a model JSON file")
    p_classify.add_argument("--example", help="built-in example name")
    p_classify.add_argument("--generate", help="generator spec kind:key=value,...")
    p_classify.add_argument("--seed", type=int, default=0)
    p_classify.add_argument("--out", default=None, help="write the report JSON here")

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("name", choices=list(SUITES))
    p_suite.add_argument("--trials", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=0)

    p_orbit = sub.add_parser(
        "orbit", help="cone-distance decay of one orbit as CSV", sources=("model", "--example")
    )
    p_orbit.add_argument("model", nargs="?", help="path to a model JSON file")
    p_orbit.add_argument("--example", help="built-in example name")
    p_orbit.add_argument("--vector", help="path to a JSON list of [re, im] entries")
    p_orbit.add_argument("--n", type=int, default=30)
    return parser


def _resolve_model(args) -> tuple:
    if getattr(args, "example", None):
        try:
            entry = get_example(args.example, getattr(args, "seed", 0))
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
        return entry.model, entry.name
    if getattr(args, "generate", None):
        return _parse_generator_spec(args.generate), args.generate
    return _load_model(args.model), args.model


def _cmd_classify(args) -> int:
    model, operator_id = _resolve_model(args)
    report, solver_failure = run_classify(model, operator_id, args.seed)
    text = report_to_json(report)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if solver_failure:
        return EXIT_SOLVER
    if report.contradiction_count > 0:
        return EXIT_CONTRADICTION
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    reports, summary = run_suite(args.name, args.seed, args.trials)
    out = {
        "suite": args.name,
        "reports": len(reports),
        "contradictions": summary["contradictions"],
        "solver_failures": summary["solver_failures"],
        "mismatches": [list(m) for m in summary["mismatches"]],
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    if summary["solver_failures"]:
        return EXIT_SOLVER
    if summary["contradictions"] or summary["mismatches"]:
        return EXIT_CONTRADICTION
    return EXIT_OK


def _cmd_orbit(args) -> int:
    if args.n < 0:
        raise InputError(f"--n must be >= 0, got {args.n}")
    model, _ = _resolve_model(args)
    if args.vector:
        vec = _load_vector(args.vector)
    else:
        vec = np.ones(model.dim, dtype=complex)
    if len(vec) != model.dim:
        raise InputError(f"vector length {len(vec)} does not match dim {model.dim}")
    sys.stdout.write("n,d_plus,norm\n")
    for n, Z in enumerate(model.orbit(vec[:, None], args.n)):
        y = LatticeVector(Z[:, 0], model.norm)
        sys.stdout.write(f"{n},{cone_distance(y):.17g},{norm_value(y):.17g}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "orbit":
            return _cmd_orbit(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SpectralError, VerificationError, OperatorError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
