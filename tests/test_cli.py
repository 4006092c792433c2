import functools
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evpos.classify
import evpos.cli
import evpos.operators
import evpos.spectral
import evpos.verify
from evpos.cli import (
    EXIT_CONTRADICTION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    InputError,
    _parse_generator_spec,
    main,
    run_classify,
    run_suite,
)
from evpos.catalog import averaging_plus_slope, get_example
from evpos.classify import Confirmed, Notion, PositivityVerdict
from evpos.generators import cyclic_block, make_eventually_positive, positive_random
from evpos.operators import (
    Dense,
    Diagonal,
    RankK,
    WeightedShift,
    model_digest,
    model_to_json,
)
from evpos.spectral import SpectralError, Spectrum
from evpos.lattice import Ell1, Ell2, EllInf
from evpos.report import (
    AnalysisReport,
    ReportError,
    report_to_json,
    verdict_from_record,
    verdict_record,
)

from references import report_from_json


# generator specs whose keys the kind does not take: misspelt, given twice,
# or a key of another kind
BAD_GENERATOR_SPECS = [
    "eventually_positive:dimm=8",
    "eventually_positive:dim=4,dim=8",
    "positive_random:dim=3,gap=0.5",
]
# orbit vector files that are not a list of pairs of JSON numbers
BAD_VECTOR_FILES = [
    "[1, 2]",
    "[[1, 2, 3], [0, 0]]",
    '[["1", "2"], [0, 0]]',
    "[[NaN, 0], [0, 0]]",
    "5",
    "[[true, 0], [0, 0]]",
    "[[0, false], [0, 0]]",
]
# classify --out targets that cannot be written, relative to a temporary
# directory: a file in a missing directory, the directory itself, and an
# empty path
BAD_OUT_TARGETS = ["missing/report.json", ".", ""]


class TestGeneratorSpecs:
    @pytest.mark.parametrize(
        "spec, model",
        [
            ("eventually_positive", lambda: make_eventually_positive(4, 0.5, 0).model),
            ("eventually_positive:seed=3", lambda: make_eventually_positive(4, 0.5, 3).model),
            ("eventually_positive: gap = 0.25 ", lambda: make_eventually_positive(4, 0.25, 0).model),
            ("positive_random", lambda: positive_random(4, 0)),
            ("positive_random:seed=2,dim=6", lambda: positive_random(6, 2)),
            ("cyclic_block", lambda: cyclic_block(3, 2, 0)),
            ("cyclic_block:inner_dim=3", lambda: cyclic_block(3, 3, 0)),
        ],
    )
    def test_keys_and_defaults_build_the_generators_model(self, spec, model):
        assert model_digest(_parse_generator_spec(spec)) == model_digest(model())

    @pytest.mark.parametrize("spec", BAD_GENERATOR_SPECS)
    def test_key_the_kind_does_not_take(self, spec):
        kind = spec.partition(":")[0]
        accepted = "dim, seed" if kind == "positive_random" else "dim, gap, seed"
        with pytest.raises(InputError, match=f"^{kind}: .*; accepted keys: {accepted}$"):
            _parse_generator_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("eventually_positive:dim=4.5", "eventually_positive: dim='4.5' is not an int"),
            ("eventually_positive:gap=abc", "eventually_positive: gap='abc' is not a float"),
            ("cyclic_block:k=3,seed=x", "cyclic_block: seed='x' is not an int"),
        ],
    )
    def test_value_of_the_wrong_type_names_kind_and_key(self, spec, message, capsys):
        with pytest.raises(InputError) as info:
            _parse_generator_spec(spec)
        assert str(info.value) == message
        assert main(["classify", "--generate", spec]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_eventually_positive_spec(self):
        model = _parse_generator_spec("eventually_positive:dim=3,gap=0.4,seed=2")
        assert model.dim == 3

    def test_cyclic_spec(self):
        model = _parse_generator_spec("cyclic_block:k=2,inner_dim=2")
        assert model.dim == 4

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            _parse_generator_spec("banana:dim=2")

    def test_malformed_parameter(self):
        with pytest.raises(InputError):
            _parse_generator_spec("positive_random:dim")


class TestRunClassify:
    def test_rem32b_report(self):
        entry = get_example("rem3.2b")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        verdicts = {r["notion"]: r["status"]["kind"] for r in report.classification}
        assert verdicts["uniform-asymptotic"] == "confirmed"
        assert verdicts["individual-asymptotic"] == "confirmed"
        assert verdicts["weak-asymptotic"] == "confirmed"
        spr = [c for c in report.checks if c["name"] == "spr-in-spectrum"]
        assert spr and spr[0]["pass"]

    def test_ex22a_report(self):
        entry = get_example("ex2.2a")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        verdicts = {r["notion"]: r["status"]["kind"] for r in report.classification}
        assert verdicts["uniform-eventual"] == "refuted"
        assert verdicts["individual-eventual"] == "confirmed"

    def test_ex51_no_contradiction(self):
        entry = get_example("ex5.1")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        spr = [c for c in report.checks if c["name"] == "spr-in-spectrum"][0]
        assert not spr["pass"]
        assert spr["hypotheses"]["uniform-asymptotic-positive"] is False
        assert report.contradiction_count == 0

    def test_report_round_trip_and_determinism(self):
        entry = get_example("rem3.2b")
        r1, _ = run_classify(entry.model, entry.name, 0)
        r2, _ = run_classify(entry.model, entry.name, 0)
        t1, t2 = report_to_json(r1), report_to_json(r2)
        assert t1 == t2
        back = report_from_json(t1)
        assert report_to_json(back) == t1
        records = [verdict_record(verdict_from_record(r)) for r in back.classification]
        assert records == list(r1.classification)

    def test_rank_k_eigenvector_measured_in_space_norm(self, monkeypatch):
        T = averaging_plus_slope(41)
        norms = []
        original = evpos.verify.positive_eigenvector

        def recording(spec, norm):
            norms.append(norm)
            return original(spec, norm)

        monkeypatch.setattr(evpos.verify, "positive_eigenvector", recording)
        report, failed = run_classify(T, "slope41", 0)
        assert not failed
        assert norms == [T.space]
        check = [c for c in report.checks if c["name"] == "positive-eigenvector"][0]
        assert check["pass"]

    @pytest.mark.parametrize("name", ["ex2.2a", "ex2.2b"])
    def test_rank_k_classification_never_densifies(self, name, monkeypatch):
        def refuse(self):
            raise AssertionError("a rank-k model was densified")

        monkeypatch.setattr(RankK, "dense", refuse)
        entry = get_example(name)
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == PAPER_REPORT_SHA256[name]

    @pytest.mark.parametrize("name", ["dense-dim7", "ex3.5a", "cyclic-block"])
    def test_one_spectrum_per_classification(self, name, monkeypatch):
        # the model is built here because a Dense keeps its eigen-solve; every
        # module binding of the counted functions is counted, so a check that
        # solves again through any import shows here
        if name == "dense-dim7":
            model = make_eventually_positive(7, 0.5, 1003).model
        else:
            model = get_example(name).model
        originals = {
            fname: getattr(evpos.spectral, fname)
            for fname in (
                "eigenvalues",
                "geometric_multiplicity",
                "resolvent_matrix",
                "laurent_leading_coefficient",
            )
        }
        originals["power_bounded_estimate"] = evpos.verify.power_bounded_estimate
        calls = dict.fromkeys([*originals, "peripheral_indices"], 0)
        select = Spectrum.peripheral_indices.func

        def counted_selection(spec):
            calls["peripheral_indices"] += 1
            return select(spec)

        selection = functools.cached_property(counted_selection)
        selection.__set_name__(Spectrum, "peripheral_indices")
        monkeypatch.setattr(Spectrum, "peripheral_indices", selection)

        def counting(fname):
            def wrapper(*args, **kwargs):
                calls[fname] += 1
                return originals[fname](*args, **kwargs)

            return wrapper

        for module in [m for k, m in sys.modules.items() if k.startswith("evpos")]:
            for fname, original in originals.items():
                if getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counting(fname))
        report, failed = run_classify(model, name, 0)
        assert not failed
        assert len(report.checks) >= 3
        eigenvector = any(c["name"] == "positive-eigenvector" for c in report.checks)
        assert eigenvector == (name != "ex3.5a")
        # a peripheral coefficient is computed on first use: dense-dim7's
        # asymptotic rule computes the one at spr, which the eigenvector check
        # reuses; cyclic-block is nonnegative, so only the eigenvector check
        # reads one; ex3.5a's rule reads its symbol, and no eigenvector check
        # runs. ex3.5a's spectrum is read off its symbol, with no solve; each
        # Dense solves once. The peripheral eigenvalues are selected once, and
        # the rule and every check read them from the Spectrum; the two
        # peripheral checks read one table (`verify.peripheral_table`), so
        # power boundedness is decided once from the pole orders.
        # The monotonicity check computes a geometric multiplicity only for a
        # multiple eigenvalue that meets another: dense-dim7 has spr alone,
        # the even powers of ex3.5a's -0.98 miss the spectrum and its odd ones
        # land on -0.98 itself, and each of cyclic-block's three meets the
        # other two but is simple
        assert calls == {
            "peripheral_indices": 1,
            "eigenvalues": int(name != "ex3.5a"),
            "power_bounded_estimate": 1,
            "geometric_multiplicity": 0,
            "resolvent_matrix": 0,
            "laurent_leading_coefficient": int(eigenvector),
        }

    @pytest.mark.parametrize("name", ["dense-dim7", "cyclic-block"])
    def test_nonnegativity_is_decided_once(self, name, monkeypatch):
        # both trios of a Dense read whether it is exactly nonnegative, a
        # pass over its entries that their shared `LimitStatus` makes once
        if name == "dense-dim7":
            model = make_eventually_positive(7, 0.5, 1003).model
        else:
            model = get_example(name).model
        original, calls = evpos.classify._exactly_nonnegative, []

        def counting(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(evpos.classify, "_exactly_nonnegative", counting)
        report, failed = run_classify(model, name, 0)
        assert not failed and len(report.classification) == 6
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["rem3.2b", "ex3.5a", "ex3.5b"])
    def test_diagonal_and_shift_checks_take_no_solve(self, name, monkeypatch):
        # their spectral data are read off the symbol or known from
        # nilpotency: no dense view, eigen-solve, projection or SVD, counted
        # at every module binding and at numpy's
        originals = {
            fname: getattr(module, fname)
            for module, fname in (
                (evpos.spectral, "eigenvalues"),
                (evpos.spectral, "spectral_projection"),
                (evpos.spectral, "laurent_leading_coefficient"),
                (evpos.operators, "to_dense"),
            )
        }
        calls = dict.fromkeys([*originals, "svd"], 0)

        def counting(fname, original):
            def wrapper(*args, **kwargs):
                calls[fname] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in [m for k, m in sys.modules.items() if k.startswith("evpos")]:
            for fname, original in originals.items():
                if getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counting(fname, original))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        entry = get_example(name)
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        assert calls == dict.fromkeys(calls, 0)
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == PAPER_REPORT_SHA256[name]
        # rem3.2b reaches the positive-eigenvector check, ex3.5a the
        # peripheral checks, and ex3.5b (spr = 0) the spr check alone
        assert len(report.checks) == {"rem3.2b": 4, "ex3.5a": 3, "ex3.5b": 1}[name]

    def test_rank_k_classification_reads_prebuilt_rows(self, monkeypatch):
        # RankK.__post_init__ built rows and samples, and the individual and
        # weak notions of ex2.2b are decided from closed-form extremes: no
        # kind's `apply`, `row` or `sample` runs while it is classified
        model = get_example("ex2.2b").model
        kinds = {
            "apply": evpos.operators.FUNCTIONAL_KINDS.values(),
            "row": evpos.operators.FUNCTIONAL_KINDS.values(),
            "sample": evpos.operators.FUNCTION_KINDS.values(),
        }
        calls = {fname: [] for fname in kinds}

        def counting(fname, original):
            def wrapper(self, *args, **kwargs):
                calls[fname].append(self)
                return original(self, *args, **kwargs)

            return wrapper

        for fname, classes in kinds.items():
            for cls in classes:
                monkeypatch.setattr(cls, fname, counting(fname, getattr(cls, fname)))
        report, failed = run_classify(model, "ex2.2b", 0)
        assert not failed and len(report.classification) == 6
        assert calls == {"apply": [], "row": [], "sample": []}

    def test_long_cycle_takes_one_coefficient_and_no_svd(self, monkeypatch):
        # the 128-cycle has 128 simple peripheral eigenvalues, each meeting
        # the others; it is nonnegative, so only the eigenvector check reads
        # a peripheral coefficient, the one at spr
        originals = {
            fname: getattr(evpos.spectral, fname)
            for fname in ("laurent_leading_coefficient", "geometric_multiplicity")
        }
        calls = dict.fromkeys(originals, 0)

        def counting(fname):
            def wrapper(*args):
                calls[fname] += 1
                return originals[fname](*args)

            return wrapper

        for fname, original in originals.items():
            for module in (evpos.spectral, evpos.verify):
                if getattr(module, fname, None) is original:
                    monkeypatch.setattr(module, fname, counting(fname))
        model = Dense(np.roll(np.eye(128), 1, axis=0), Ell1())
        report, failed = run_classify(model, "cycle-128", 0)
        assert not failed and report.contradiction_count == 0
        assert [(c["name"], c["pass"]) for c in report.checks] == [
            ("spr-in-spectrum", True),
            ("peripheral-cyclicity", True),
            ("multiplicity-monotonicity", True),
            ("positive-eigenvector", True),
        ]
        assert calls == {"laurent_leading_coefficient": 1, "geometric_multiplicity": 0}

    @pytest.mark.parametrize(
        "matrix",
        [
            np.eye(3) + 1e-4 * np.ones((3, 3)),
            [[1.0, 1e-5], [1e-5, 1.0]],
            [[2e5, 1.0], [1.0, 2e5]],
            1e10 * np.array([[2.0, 1.0], [1.0, 2.0]]),
            np.diag([1e200, 1.0]),
        ],
        ids=["small-gap-dim3", "small-gap-dim2", "small-gap-2e5", "scale-1e10", "diag-1e200"],
    )
    def test_positive_eigenvector_of_positive_matrices(self, matrix):
        # a relative spectral gap far below 2^-16, and an eigen-equation
        # residual that only a test relative to spr accepts
        report, failed = run_classify(Dense(matrix, Ell1()), "positive", 0)
        assert not failed
        assert report.contradiction_count == 0
        check = [c for c in report.checks if c["name"] == "positive-eigenvector"][0]
        assert check["pass"]

    @pytest.mark.parametrize("norm", [Ell1, Ell2, EllInf])
    @pytest.mark.parametrize("dim", [8, 24])
    def test_dense_report_digest(self, norm, dim):
        # the catalog holds only tiny dense models; these pin the dense path
        name = f"ep-{norm.__name__}-{dim}"
        model = make_eventually_positive(dim, 0.5, 3, norm=norm()).model
        report, failed = run_classify(model, name, 0)
        assert not failed
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == DENSE_REPORT_SHA256[name]

    def test_undetermined_report_digest(self):
        # diag(1, -0.1) as a dense matrix: its eventual trio is undetermined,
        # a status record whose "horizon" sorts before its "kind"
        name = "alternating-diagonal"
        report, failed = run_classify(Dense(np.diag([1.0, -0.1]), Ell1()), name, 0)
        assert not failed
        kinds = [r["status"]["kind"] for r in report.classification]
        assert kinds == ["undetermined"] * 3 + ["confirmed"] * 3
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == DENSE_REPORT_SHA256[name]

    @pytest.mark.parametrize("norm", [Ell1, Ell2])
    def test_gaussian_report_digest(self, norm):
        # a not-positive complex Gaussian at dim 96, built as perfbench's
        # dense-sweep builds it at seed 0: the dense checks at size
        dim = 96
        rng = np.random.default_rng([0, dim])
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        name = f"gauss-{norm.__name__}-{dim}"
        report, failed = run_classify(Dense(z / np.sqrt(2 * dim), norm()), name, 0)
        assert not failed
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == DENSE_REPORT_SHA256[name]

    @pytest.mark.parametrize(
        "factor",
        [
            1e-310,
            1e-318,
            # Ell2.of_moduli forms the plain sum of squares before it takes
            # the scaled norm, and numpy warns of that overflow (FOUND 108 in
            # CHANGES.md); the norm is right, so only this warning is let by
            pytest.param(
                1e300, marks=pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
            ),
        ],
    )
    def test_far_scales_refute_nothing(self, factor, tmp_path, capsys):
        # positivity is invariant under positive scaling: a subnormal spr
        # (whose 1/spr overflows) and moduli whose squares overflow must not
        # refute, contradict or raise. At 1e-310 and 1e300 every verdict is
        # the unscaled one's; at 1e-318 the spectrum keeps too few bits for a
        # projection, a solver failure.
        base = make_eventually_positive(3, 0.5, seed=1).model
        model = Dense(base.matrix * factor, base.norm)
        report, failed = run_classify(model, "scaled", 0)
        assert failed == (factor == 1e-318)
        kinds = {r["status"]["kind"] for r in report.classification}
        assert "refuted" not in kinds and report.contradiction_count == 0
        if not failed:
            assert report.classification == run_classify(base, "scaled", 0)[0].classification
            check = [c for c in report.checks if c["name"] == "positive-eigenvector"][0]
            assert check["pass"] and not check["contradiction"]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(model_to_json(model)))
        assert main(["classify", str(path)]) == (EXIT_SOLVER if failed else EXIT_OK)
        capsys.readouterr()

    @pytest.mark.parametrize("norm", [Ell1, Ell2, EllInf])
    def test_asymptotic_solver_failure_keeps_the_eventual_trio(self, norm):
        # the eigenvalue 1 of the block [[0.5, 5e8], [5e-10, 0.5]] has no
        # well-conditioned spectral projection, and the -1 beside it makes
        # the matrix not nonnegative: on every norm the asymptotic rule fails,
        # and the eventual trio, which needs it, stays undetermined
        matrix = np.array([[-1.0, 0.0, 0.0], [0.0, 0.5, 5e8], [0.0, 5e-10, 0.5]])
        report, failed = run_classify(Dense(matrix, norm()), "ill-conditioned", 0)
        assert failed
        assert report.contradiction_count == 0
        assert {r["notion"]: r["status"] for r in report.classification} == dict.fromkeys(
            ("uniform-eventual", "individual-eventual", "weak-eventual"),
            {"kind": "undetermined", "horizon": 0},
        )
        assert all(c["pass"] for c in report.checks)

    @pytest.mark.parametrize("norm", [Ell1, Ell2, EllInf])
    def test_nonnegative_matrix_passes_its_confirmation_to_the_asymptotic_trio(self, norm):
        # every power of this matrix is nonnegative, so each eventual notion
        # is confirmed, and so each asymptotic one, with no spectral
        # projection; the positive-eigenvector check, whose hypothesis now
        # holds, needs the ill-conditioned projection and fails as a solver
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 5e8], [0.0, 5e-10, 0.5]])
        report, failed = run_classify(Dense(matrix, norm()), "ill-conditioned", 0)
        assert failed
        assert report.contradiction_count == 0
        assert [r["notion"] for r in report.classification] == [n.value for n in Notion]
        assert all(r["status"] == {"kind": "confirmed", "n0": 0} for r in report.classification)
        assert [(c["name"], c["pass"]) for c in report.checks] == [
            ("spr-in-spectrum", True),
            ("peripheral-cyclicity", True),
            ("multiplicity-monotonicity", True),
        ]

    def test_report_names_the_model_by_digest(self):
        # the dim-96 Gaussian's report carries no matrix entries
        rng = np.random.default_rng([0, 96])
        z = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        model = Dense(z / np.sqrt(2 * 96), Ell1())
        report, failed = run_classify(model, "gauss-Ell1-96", 0)
        assert not failed
        text = report_to_json(report)
        assert len(text.encode()) < 32_000
        assert json.loads(text)["model_descriptor"] == {
            "variant": "dense",
            "dim": 96,
            "norm": {"kind": "ell1"},
            "sha256": model_digest(model),
        }

    @pytest.mark.parametrize("schema", ["1", "2", "3"])
    def test_schema_one_report_rejected(self, schema):
        entry = get_example("rem3.2b")
        report, _ = run_classify(entry.model, entry.name, 0)
        data = json.loads(report_to_json(report))
        data["versions"]["schema"] = schema
        with pytest.raises(ReportError):
            report_from_json(json.dumps(data))

    # a schema-2 body carries decay_sequences, which schema 3 dropped
    @pytest.mark.parametrize("field", ["surprise", "decay_sequences"])
    def test_unknown_field_rejected(self, field):
        entry = get_example("rem3.2b")
        report, _ = run_classify(entry.model, entry.name, 0)
        data = json.loads(report_to_json(report))
        data[field] = 1
        with pytest.raises(ReportError):
            report_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "change",
        [
            lambda p: p.pop("spread"),
            lambda p: p.update(eigenvalues=[]),
            lambda p: p.update(value=[2.0]),
            lambda p: p.update(value=2.0),
        ],
        ids=["missing-spread", "extra-key", "short-value", "scalar-value"],
    )
    def test_malformed_peripheral_record_rejected(self, change):
        entry = get_example("rem3.2b")
        report, _ = run_classify(entry.model, entry.name, 0)
        data = json.loads(report_to_json(report))
        assert report_from_json(json.dumps(data)) == report
        change(data["spectrum"]["peripheral"][0])
        with pytest.raises(ReportError):
            report_from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "model",
        [Dense(np.diag([-1e200, 1.0]), Ell1()), WeightedShift(np.full(4, -1e200), Ell1())],
        ids=["dense-diag-minus-1e200", "shift-minus-1e200"],
    )
    def test_huge_entries_give_a_strict_json_report(self, model):
        # powers far beyond the float range: no warning, and no Infinity or
        # NaN in the report
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, failed = run_classify(model, "huge", 0)
            text = report_to_json(report)
        assert not failed
        assert json.loads(text, parse_constant=refuse)["versions"]["schema"] == "4"


# sha256 of report_to_json for each `run_suite("paper", 0)` report; any change
# to the catalog report bytes must be deliberate and update these.
PAPER_REPORT_SHA256 = {
    "ex2.2a": "24be4e749a7c72ce0d54916970b5a1994855f96d3f2c39571f6d33d5246a2a7f",
    "ex2.2b": "4b7793692902d8b34651da5205a21967587e3638d952f07f432aeace71968dac",
    "ex3.5a": "018d59dc63b9a14627166724a804bf88022c2079a120f5491725ddbd35ae0c56",
    "ex3.5b": "d08dd354347f6932e955598f84cd4eb287317c28ae877fe4023d06f676fdb08a",
    "rem3.2b": "f9785214be0f183ed1881f9c33625d8924f053253394129f9284f5839690fe8f",
    "cyclic-block": "8aae878229f3ec0e3c6baefb6780dc84731139a632d3c505416ca08ca9eb968f",
    "eventually-positive": "894a21211263a0783566aca2eacde9d8a4696f55e80a90ee10c7a6cede4361f1",
}

# sha256 of `evpos classify --example` for each alias of a catalog entry
ALIAS_REPORT_SHA256 = {
    "ex5.1": "a16d54b85386f93b70dc69c48718c4c8400b384575d3b64f19d6c2ad61f12ad7",
}

# sha256 of the run_classify report of make_eventually_positive(dim, 0.5, 3,
# norm=N) under the id ep-N-dim, of the dim-96 Gaussians under the id
# gauss-N-96, and of Dense(diag(1, -0.1)) in l1 under the id
# alternating-diagonal, seed 0
DENSE_REPORT_SHA256 = {
    "alternating-diagonal": "783d1481720f527202592299760b5c47d78c1e7d8427bf0f9b21a719f365b3bb",
    "ep-Ell1-8": "55ebbcf6a94ade1028da6739b72c2f617852af16d35c3998d1abe432b0a73796",
    "ep-Ell1-24": "5f50ec20b1ac0ec5ba60cf5d58a57771a1d48ff2ddc8469a7f079442cde95e3f",
    "ep-Ell2-8": "548945edf2f27b4c1fd16072e4ce3be4a7349b72eeb03de8f79a16676e431f2f",
    "ep-Ell2-24": "b4385b7376a8a11413325fb62eb0a473dcdddc7dd572f976fb3e43bc572e938e",
    "ep-EllInf-8": "e6779533b8540440a22a4eff2d64c6f63dd302c0f6d282dcbeaca9cf68e13048",
    "ep-EllInf-24": "9d970f3b7562a8df2640f6cd440ee622639e48926409039e472b118114f486cc",
    "gauss-Ell1-96": "49e05d3217a9cd3ba60887e7ababe7a73473a32779f60ff53572da970274ba99",
    "gauss-Ell2-96": "5a4d51e969986b587ba00a6e71fd14014d085d919fc4d6c158afa16c390e7ba3",
}


# sha256 of the concatenated report_to_json of `run_suite("random", 3, 100)`
RANDOM_SUITE_SHA256 = "6770a31a187b12f0037d4a90b6e42b5157450422a9d177f9572b144b047ac10a"


class TestSuites:
    def test_paper_suite_clean(self):
        reports, summary = run_suite("paper", seed=0)
        assert summary["mismatches"] == []
        assert summary["contradictions"] == 0
        assert summary["solver_failures"] == 0
        assert len(reports) == 7
        digests = {
            r.operator_id: hashlib.sha256(report_to_json(r).encode()).hexdigest()
            for r in reports
        }
        assert digests == PAPER_REPORT_SHA256

    def test_hierarchy_violation_is_a_contradiction(self, monkeypatch, capsys):
        # an eventual trio confirmed above ex3.5a's refuted asymptotic trio
        # breaks the X-eventual => X-asymptotic edge; the report bytes do not
        # carry the count, the exit code does
        def confirming(model, **kwargs):
            return tuple(
                PositivityVerdict(notion, Confirmed(0)) for notion in list(Notion)[:3]
            )

        monkeypatch.setattr(evpos.cli, "classify_eventual", confirming)
        entry = get_example("ex3.5a")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert not failed
        assert report.contradiction_count == 6  # 3 edges, 3 across the chains
        assert main(["classify", "--example", "ex3.5a"]) == EXIT_CONTRADICTION
        _, summary = run_suite("paper", seed=0)
        assert summary["contradictions"] >= 6
        capsys.readouterr()
        assert main(["suite", "paper"]) == EXIT_CONTRADICTION

    def test_solver_failure_in_a_suite_exits_3(self, monkeypatch, capsys):
        # one model whose classification failed in the solver makes the
        # suite exit 3
        original = evpos.cli.run_classify

        def failing_once(model, operator_id, seed=0):
            report, _ = original(model, operator_id, seed)
            return report, operator_id == "ex3.5a"

        monkeypatch.setattr(evpos.cli, "run_classify", failing_once)
        assert main(["suite", "paper"]) == EXIT_SOLVER
        assert json.loads(capsys.readouterr().out)["solver_failures"] == 1

    def test_random_suite_clean(self):
        _, summary = run_suite("random", seed=3, trials=10)
        assert summary["contradictions"] == 0

    def test_random_suite_report_digest(self):
        # the 100 reports of `evpos suite random --trials 100 --seed 3`
        reports, summary = run_suite("random", seed=3, trials=100)
        assert (summary["contradictions"], summary["solver_failures"]) == (0, 0)
        digest = hashlib.sha256()
        for r in reports:
            digest.update(report_to_json(r).encode())
        assert digest.hexdigest() == RANDOM_SUITE_SHA256

    def test_unknown_suite(self):
        with pytest.raises(InputError):
            run_suite("mystery")


# the values of report records that `json` writes in its own ways: strings
# with quotes, backslashes, control and non-ASCII characters, and floats
# (numpy's too) with -0.0, the least subnormal, a near-overflow, NaN and +-inf
TEXTS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028\U0001f600", 'a "b" \\c %s']),
)
FLOATS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 1.7e308, float("nan"), float("inf"), float("-inf")]),
)
STATUSES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("confirmed"), "n0": st.integers(0, 2**40)}),
    st.fixed_dictionaries({"kind": st.just("refuted"), "witness": TEXTS}),
    st.fixed_dictionaries({"kind": st.just("undetermined"), "horizon": st.integers(0, 2**40)}),
)
VERDICT_RECORDS = st.fixed_dictionaries(
    {"notion": st.sampled_from([n.value for n in Notion]), "status": STATUSES, "tolerance": FLOATS}
)
CHECK_RECORDS = st.fixed_dictionaries(
    {
        "name": TEXTS,
        "pass": st.booleans(),
        "margin": FLOATS,
        "tolerance": FLOATS,
        "contradiction": st.booleans(),
        "hypotheses": st.dictionaries(TEXTS, st.booleans(), max_size=3),
    }
)
PERIPHERAL_RECORDS = st.fixed_dictionaries(
    {
        "multiplicity": st.integers(1, 2**40),
        "pole_order": st.integers(1, 2**40),
        "spread": FLOATS,
        "value": st.lists(FLOATS, min_size=2, max_size=2),
    }
)
SPECTRA = st.none() | st.fixed_dictionaries(
    {"peripheral": st.lists(PERIPHERAL_RECORDS, max_size=20), "spectral_radius": FLOATS}
)
REPORTS = st.builds(
    AnalysisReport,
    operator_id=TEXTS,
    model_descriptor=st.fixed_dictionaries(
        {
            "variant": TEXTS,
            "dim": st.integers(0, 2**40),
            "norm": st.fixed_dictionaries({"kind": TEXTS}),
            "sha256": TEXTS,
        }
    ),
    classification=st.sampled_from([3, 6]).flatmap(
        lambda n: st.lists(VERDICT_RECORDS, min_size=n, max_size=n).map(tuple)
    ),
    spectrum=SPECTRA,
    checks=st.lists(CHECK_RECORDS, max_size=4).map(tuple),
    seed=st.integers(0, 2**63),
    versions=st.fixed_dictionaries({"tool": TEXTS, "schema": st.just("4"), "rng": TEXTS}),
)


def _payload(report: AnalysisReport) -> dict:
    return {name: getattr(report, name) for name in report.fields}


class TestReportWriter:
    """`report_to_json` writes each record from its template, byte for byte
    what `json.dumps(indent=2, sort_keys=True)` writes."""

    @settings(max_examples=300, deadline=None)
    @given(REPORTS)
    def test_text_is_that_of_json_dumps(self, report):
        expected = json.dumps(_payload(report), indent=2, sort_keys=True) + "\n"
        assert report_to_json(report) == expected

    def test_every_status_kind_and_an_empty_record(self):
        # an undetermined status sorts "horizon" before "kind"
        report, _ = run_classify(get_example("rem3.2b").model, "rem3.2b", 0)
        statuses = [{"kind": "confirmed", "n0": 3}, {"kind": "refuted", "witness": "w"},
                    {"kind": "undetermined", "horizon": 0}]
        classification = tuple({**r, "status": s} for r, s in zip(report.classification, statuses * 2))
        checks = ({**report.checks[0], "hypotheses": {}},)
        for r in (report.replace(classification=classification, checks=checks),
                  report.replace(checks=(), spectrum=None)):
            assert report_to_json(r) == json.dumps(_payload(r), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "path, value",
        [
            (("classification", 0, "status", "n0"), np.int64(1)),
            (("checks", 0, "pass"), np.bool_(True)),
            (("checks", 0, "hypotheses", "power-bounded"), np.bool_(False)),
            (("model_descriptor", "dim"), np.int64(2)),
            (("spectrum", "peripheral", 0, "value", 0), np.int64(1)),
        ],
        ids=["n0-int64", "pass-bool_", "hypothesis-bool_", "dim-int64", "eigenvalue-int64"],
    )
    def test_unsupported_leaf_raises(self, path, value):
        entry = get_example("cyclic-block")
        report, _ = run_classify(entry.model, entry.name, 0)
        payload = json.loads(report_to_json(report))
        *keys, last = path
        functools.reduce(lambda d, k: d[k], keys, payload)[last] = value
        with pytest.raises(TypeError):
            json.dumps(payload, indent=2, sort_keys=True)
        bad = report.replace(
            **{k: tuple(payload[k]) if k in ("classification", "checks") else payload[k]
               for k in ("classification", "checks", "model_descriptor", "spectrum")},
        )
        with pytest.raises(TypeError):
            report_to_json(bad)


# model files that break a kind's rules, each read to exit 2: the slope
# model g -> (1/2) int g + (g(1) - g(-1)) x / 4 on a 5-node grid, or the
# 1 x 1 identity in l1, with one entry changed
NAN = float("nan")
ONE = {"kind": "constant", "value": [1.0, 0.0]}
X_MONOMIAL = {"kind": "monomial", "degree": 1}
X_INTEGRAL = {"kind": "weighted_integral", "weight": ONE, "scale": [1.0, 0.0]}
SLOPE_FILE = {
    "variant": "rank_k",
    "functions": [ONE, X_MONOMIAL],
    "functionals": [
        {**X_INTEGRAL, "scale": [0.5, 0.0]},
        {
            "kind": "point_combination",
            "points": [1.0, -1.0],
            "coefficients": [[0.25, 0.0], [-0.25, 0.0]],
        },
    ],
    "space": {"kind": "grid_sup", "nodes": [-1.0, -0.5, 0.0, 0.5, 1.0]},
}
IDENTITY_FILE = {"variant": "dense", "n": 1, "entries": [[1.0, 0.0]], "norm": {"kind": "ell1"}}
# the same identity on a one-cell L^2 quadrature
QUADRATURE_FILE = {
    **IDENTITY_FILE,
    "norm": {"kind": "lp_quadrature", "p": 2.0, "nodes": [0.0], "weights": [0.005]},
}


def _edited(base, path, value):
    """A deep copy of the descriptor base with the entry at path set to value."""
    data = json.loads(json.dumps(base))
    *keys, last = path
    target = functools.reduce(lambda d, k: d[k], keys, data)
    target[last] = value
    return data


BAD_MODEL_FILES = {
    "top-level-list": [IDENTITY_FILE],
    "norm-string": _edited(IDENTITY_FILE, ["norm"], "ell1"),
    "function-string": _edited(SLOPE_FILE, ["functions", 0], "constant"),
    "weight-string": _edited(SLOPE_FILE, ["functionals", 0, "weight"], "constant"),
    "grid-node-count": _edited(IDENTITY_FILE, ["norm"], {"kind": "grid_sup", "nodes": [0.0, 1.0]}),
    "exponent-nan": _edited(SLOPE_FILE, ["functions", 1], {"kind": "signed_power", "exponent": NAN}),
    "scale-nan": _edited(SLOPE_FILE, ["functionals", 0, "scale"], [NAN, 0.0]),
    "value-nan": _edited(SLOPE_FILE, ["functions", 0, "value"], [NAN, 0.0]),
    # x tabulated with a NaN, paired with the weight x
    "tabulated-nan": _edited(
        _edited(SLOPE_FILE, ["functionals", 1], {**X_INTEGRAL, "weight": X_MONOMIAL}),
        ["functions", 1],
        {"kind": "tabulated", "values": [[x, 0.0] for x in (-1.0, -0.5, NAN, 0.5, 1.0)]},
    ),
    "point-nan": _edited(SLOPE_FILE, ["functionals", 1, "points"], [NAN, -1.0]),
    "coefficient-nan": _edited(SLOPE_FILE, ["functionals", 1, "coefficients", 0], [NAN, 0.0]),
    "degree-fraction": _edited(SLOPE_FILE, ["functions", 1, "degree"], 1.5),
    "n-fraction": _edited(IDENTITY_FILE, ["n"], 1.5),
    "pair-of-three": _edited(IDENTITY_FILE, ["entries", 0], [1.0, 0.0, 7.0]),
    # numbers given as JSON strings or booleans, which float() and complex()
    # would read
    "n-string": _edited(IDENTITY_FILE, ["n"], "1"),
    "n-bool": _edited(IDENTITY_FILE, ["n"], True),
    "degree-string": _edited(SLOPE_FILE, ["functions", 1, "degree"], "1"),
    "exponent-string": _edited(SLOPE_FILE, ["functions", 1], {"kind": "signed_power", "exponent": "0.5"}),
    "entry-bool": _edited(IDENTITY_FILE, ["entries", 0], True),
    "point-bool": _edited(SLOPE_FILE, ["functionals", 1, "points"], [True, -1.0]),
    "node-string": _edited(SLOPE_FILE, ["space", "nodes", 4], "1"),
    "node-bool": _edited(SLOPE_FILE, ["space", "nodes", 4], True),
    "quadrature-weight-string": _edited(QUADRATURE_FILE, ["norm", "weights", 0], "0.005"),
    "p-bool": _edited(QUADRATURE_FILE, ["norm", "p"], True),
    "points-coefficients-mismatch": _edited(SLOPE_FILE, ["functionals", 1, "points"], [1.0]),
}


class TestMainEntry:
    def test_classify_loads_no_scipy(self):
        # a command's cold start is mostly imports: a fresh interpreter that
        # classifies an example imports numpy, and no SciPy module
        code = (
            "import contextlib, io, sys\n"
            "from evpos.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['classify', '--example', 'rem3.2b']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": "src"}
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"

    def test_classify_model_file(self, tmp_path, capsys):
        model = Dense(np.array([[0.5, 0.2], [0.1, 0.6]], dtype=complex), Ell1())
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(model)))
        code = main(["classify", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["operator_id"] == str(path)

    def test_model_above_dim_cap_skips_the_dense_checks(self, tmp_path, capsys):
        model = Diagonal(np.linspace(0.5, 1.0, 200).astype(complex), Ell1())
        path = tmp_path / "diag200.json"
        path.write_text(json.dumps(model_to_json(model)))
        assert main(["classify", str(path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["spectrum"] is None and data["checks"] == []
        kinds = {r["notion"]: r["status"]["kind"] for r in data["classification"]}
        assert kinds["uniform-eventual"] == "confirmed"

    @pytest.mark.parametrize(
        "matrix, kind, n0",
        [
            (1e-6 * np.array([[1.0, -1.0], [1.0, 1.0]]), "refuted", None),
            (1e10 * np.array([[2.0, 1.0], [1.0, 2.0]]), "confirmed", 0),
        ],
        ids=["rotation-1e-6", "positive-1e10"],
    )
    def test_eventual_verdict_does_not_depend_on_scale(
        self, matrix, kind, n0, tmp_path, capsys
    ):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(model_to_json(Dense(matrix, Ell1()))))
        assert main(["classify", str(path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        status = {r["notion"]: r["status"] for r in data["classification"]}
        assert status["uniform-eventual"]["kind"] == kind
        assert status["uniform-eventual"].get("n0") == n0

    def test_dense_model_above_dim_cap_gets_the_checks(self, tmp_path, capsys):
        # the cap on dense views leaves a Dense alone: it is solved at any size
        path = tmp_path / "dense129.json"
        path.write_text(json.dumps(model_to_json(Dense(np.eye(129), Ell1()))))
        assert main(["classify", str(path)]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["spectrum"]["spectral_radius"] == 1.0
        assert [(c["name"], c["pass"]) for c in data["checks"]] == [
            ("spr-in-spectrum", True),
            ("peripheral-cyclicity", True),
            ("multiplicity-monotonicity", True),
            ("positive-eigenvector", True),
        ]

    def test_uncaught_solver_error_is_reported_and_exits_3(self, monkeypatch, capsys):
        # a solver error that no stage of run_classify catches reaches main,
        # which names it on stderr and exits 3, with no traceback
        def failing(*args, **kwargs):
            raise SpectralError("no spectrum")

        monkeypatch.setattr(evpos.cli, "run_classify", failing)
        assert main(["classify", "--example", "rem3.2b"]) == EXIT_SOLVER
        assert capsys.readouterr() == ("", "solver failure: no spectrum\n")

    def test_solver_failure_in_the_checks_keeps_the_checks_before_it(self, monkeypatch):
        def failing(*args, **kwargs):
            raise SpectralError("no multiplicity")

        monkeypatch.setattr(evpos.verify, "multiplicity_monotonicity_check", failing)
        entry = get_example("eventually-positive")
        report, failed = run_classify(entry.model, entry.name, 0)
        assert failed
        assert report.spectrum is not None
        assert [c["name"] for c in report.checks] == ["spr-in-spectrum", "peripheral-cyclicity"]

    def test_asymptotic_solver_failure_keeps_the_report(self, tmp_path, capsys):
        # an eigenvalue 1 whose eigenvectors are so ill-conditioned that no
        # spectral projection is accepted, in a matrix that is not
        # nonnegative: the asymptotic trio fails, and the report keeps the
        # eventual trio, the spectrum and the checks
        matrix = np.array([[-1.0, 0.0, 0.0], [0.0, 0.5, 5e8], [0.0, 5e-10, 0.5]])
        path, out = tmp_path / "ill-conditioned.json", tmp_path / "report.json"
        path.write_text(json.dumps(model_to_json(Dense(matrix, Ell1()))))
        assert main(["classify", str(path), "--out", str(out)]) == EXIT_SOLVER
        report = report_from_json(out.read_text())
        kinds = {r["notion"]: r["status"]["kind"] for r in report.classification}
        assert kinds == dict.fromkeys(
            ("uniform-eventual", "individual-eventual", "weak-eventual"), "undetermined"
        )
        assert report.spectrum["spectral_radius"] == pytest.approx(1.0)
        assert [c["name"] for c in report.checks] == [
            "spr-in-spectrum",
            "peripheral-cyclicity",
            "multiplicity-monotonicity",
        ]

    @pytest.mark.parametrize("name", sorted({**PAPER_REPORT_SHA256, **ALIAS_REPORT_SHA256}))
    def test_classify_example_writes_the_suite_report(self, name, tmp_path):
        # `evpos classify --example` writes the bytes `evpos suite paper`
        # pins, and an alias its entry's report under the alias
        out = tmp_path / "report.json"
        assert main(["classify", "--example", name, "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == {**PAPER_REPORT_SHA256, **ALIAS_REPORT_SHA256}[name]

    def test_classify_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["classify", "--example", "rem3.2b", "--out", str(out)])
        assert code == EXIT_OK
        report_from_json(out.read_text())

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["classify", "--example", "ex3.5a", "--out", str(a)]) == EXIT_OK
        assert main(["classify", "--example", "ex3.5a", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_model_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", str(path)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("ex2.2b", "p", float("nan")),
            ("ex2.2b", "p", float("inf")),
            ("ex2.2b", "nodes", float("nan")),
            ("ex2.2a", "nodes", float("nan")),
        ],
    )
    def test_non_finite_norm_is_input_error(self, name, key, value, tmp_path, capsys):
        data = model_to_json(get_example(name).model)
        if key == "nodes":
            data["space"]["nodes"][3] = value
        else:
            data["space"][key] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))  # writes NaN / Infinity
        assert main(["classify", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "data",
        [
            {"variant": "dense", "n": 0, "entries": []},
            {"variant": "dense", "n": 1, "entries": [[float("nan"), 0.0]]},
            {"variant": "dense", "n": 1, "entries": [[1.0, float("inf")]]},
            {"variant": "diagonal", "symbol": []},
            {"variant": "diagonal", "symbol": [[1.0, 0.0], [float("nan"), 0.0]]},
            {"variant": "shift", "weights": []},
            {"variant": "shift", "weights": [[float("-inf"), 0.0]]},
        ],
        ids=["dense-n0", "dense-nan", "dense-inf", "diagonal-empty", "diagonal-nan",
             "shift-empty", "shift-inf"],
    )
    def test_empty_or_non_finite_model_is_input_error(self, data, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**data, "norm": {"kind": "ell1"}}))
        assert main(["classify", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("name", sorted(BAD_MODEL_FILES))
    def test_kind_rule_breach_is_input_error(self, name, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(BAD_MODEL_FILES[name]))  # writes NaN
        assert main(["classify", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert "Traceback" not in captured.err

    def test_tabulated_function_meets_point_combination(self, tmp_path, capsys):
        # x tabulated on the slope model's 5 nodes is read at the nodes of
        # the points 1 and -1, so the model loads and is classified as the
        # one with the analytic x is
        values = [[x, 0.0] for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        tabulated = _edited(SLOPE_FILE, ["functions", 1], {"kind": "tabulated", "values": values})
        verdicts = []
        for data in (tabulated, SLOPE_FILE):
            path = tmp_path / "model.json"
            path.write_text(json.dumps(data))
            assert main(["classify", str(path)]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            verdicts.append({v["notion"]: v["status"] for v in report["classification"]})
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["uniform-eventual"]["kind"] == "refuted"
        assert verdicts[0]["weak-asymptotic"] == {"kind": "confirmed", "n0": 0}

    @pytest.mark.parametrize("command", ["classify", "orbit"])
    def test_unknown_example_is_input_error(self, command, capsys):
        assert main([command, "--example", "nope"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            "error: unknown example 'nope'; known examples: ex2.2a, ex2.2b, ex3.5a, "
            "ex3.5b, rem3.2b, cyclic-block, eventually-positive, ex5.1\n"
        )
        assert all(name in err for name in [*PAPER_REPORT_SHA256, *ALIAS_REPORT_SHA256])

    def test_missing_model_key_is_named(self, tmp_path, capsys):
        path = tmp_path / "no-entries.json"
        path.write_text(json.dumps({"variant": "dense", "n": 2, "norm": {"kind": "ell1"}}))
        assert main(["classify", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: bad model descriptor: missing key 'entries'\n"

    @pytest.mark.parametrize("target", BAD_OUT_TARGETS)
    def test_unwritable_out_is_input_error(self, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "--example", "rem3.2b", "--out", target]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--horizon", "5"],
            ["--tol", "1e-8"],
            ["--tol", "-1"],
            ["--tol", "0"],
            ["--tol", "nan"],
            ["--tol", "inf"],
        ],
    )
    def test_removed_option_is_a_usage_error(self, extra, capsys):
        # no classification reads a horizon or a caller-set tolerance, so
        # classify has no such option, whatever its value
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--example", "rem3.2b", *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: evpos classify") and "Traceback" not in err
        # the option is named, not its value taken for the model
        assert f"unrecognized arguments: {extra[0]}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify"],
            ["classify", "model.json", "--example", "rem3.2b"],
            ["classify", "--example", "rem3.2b", "--generate", "cyclic_block:k=3"],
            ["orbit"],
            ["orbit", "model.json", "--example", "rem3.2b"],
        ],
    )
    def test_one_model_source_is_required(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: evpos {argv[0]}") and "give exactly one of model" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit", "--example", "rem3.2b", "--n", "-2"],
            ["suite", "random", "--trials", "-3"],
        ],
    )
    def test_bad_count_argument_is_input_error(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and argv[-2] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("content", BAD_VECTOR_FILES)
    def test_bad_orbit_vector_is_input_error(self, content, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text(content)
        code = main(["orbit", "--example", "rem3.2b", "--vector", str(path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_orbit_vector_file(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_text("[[1, 0], [0, -1]]")
        assert main(["orbit", "--example", "rem3.2b", "--vector", str(path), "--n", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "0,1,2"  # rem3.2b is on l1

    def test_orbit_csv(self, capsys):
        code = main(["orbit", "--example", "rem3.2b", "--n", "4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,d_plus,norm"
        assert len(lines) == 6
        n, d, nv = lines[2].split(",")
        assert n == "1"
        assert float(d) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--example", "ex2.2a", "--n", "3"],
                "912cd0bab68fb43e6e0aab493c28c49369e24e1a6fe5e26914d7c93233074898",
            ),
            (
                ["--example", "rem3.2b", "--n", "4"],
                "ae457c90c0d59d48ec6172b31c18719abd46a770cd534ad06135cbd1c019683d",
            ),
            (
                ["--example", "ex3.5b"],
                "3853fae72457a75417c5ae567999c2e43b75348b2543ac58e9d53f364a679c70",
            ),
            (
                ["ellinf.json", "--n", "12"],
                "b08c879261e468c86cb3e71fc3f44fc5ee51a806cc643afef4a572aaf8f3022d",
            ),
        ],
        ids=["ex2.2a", "rem3.2b", "ex3.5b", "dense-ellinf"],
    )
    def test_orbit_csv_bytes_are_pinned(self, argv, digest, tmp_path, monkeypatch, capsys):
        # rank-k, diagonal, shift and l-inf dense orbits, each streamed by
        # its model's one power path
        A = np.array([[0.5, -0.25, 1.0], [0.75, 0.5, -0.125], [0.25, 1.0, 0.5]])
        (tmp_path / "ellinf.json").write_text(json.dumps(model_to_json(Dense(A, EllInf()))))
        monkeypatch.chdir(tmp_path)
        assert main(["orbit", *argv]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_suite_exit_code(self, capsys):
        assert main(["suite", "random", "--trials", "2"]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["suite", "properties"])
        assert exc.value.code == EXIT_INPUT
