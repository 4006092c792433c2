"""A warm classification of a `Dense` or a `Diagonal` calls numpy's ufuncs,
array methods and BLAS directly: it enters none of numpy's Python wrapper
layers (`np.linalg.norm`, `np.stack`, the `fromnumeric` functions, the
`_methods` hop behind `.sum/.min/.max/.all/.any`, `np.tensordot`,
`np.angle`). Each of those costs a few Python frames on every call, which
is most of a small model's classification. Nor does it enter `json` (the
model digest writes a `Dense` header in one format, and any other model's
header itself) or `enum` (notion names are read off the members)."""

import enum
import json
import os
import sys

import numpy as np
import pytest

from evpos.catalog import build_catalog, get_example
from evpos.cli import run_classify
from evpos.generators import make_eventually_positive
from evpos.lattice import Ell1, Ell2, EllInf
from evpos.operators import model_digest
from evpos.report import report_to_json

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402

# numpy files whose every function is a Python wrapper layer
WRAPPER_FILES = (
    "numpy/linalg/_linalg.py",
    "numpy/_core/shape_base.py",
    "numpy/_core/fromnumeric.py",
    "numpy/_core/_methods.py",
)
# numpy functions, elsewhere in numpy, that wrap `np.dot`, `np.arctan2` and
# `np.empty` with `np.copyto`, and the Python dispatcher of `np.dot` itself
WRAPPER_FUNCTIONS = ("tensordot", "angle", "ones", "dot")
# the stdlib files whose Python frames the digest and the notion names avoid
STDLIB_FILES = (json.__file__, json.encoder.__file__, enum.__file__)


def _models() -> list:
    """(name, model): the random-small instances at seed 0, two dense-sweep
    instances, and catalog models that take the nonnegative, the m = 1
    rule, the tail certificate and the `Diagonal` paths."""
    models = [(c.name, c.model) for c in workloads.random_small(0)]
    sweep = {c.name: c.model for c in workloads.dense_sweep(0)}
    models += [(name, sweep[name]) for name in ("ep-Ell1-16", "gauss-Ell2-96")]
    for name in ("cyclic-block", "eventually-positive", "rem3.2b", "ex3.5a"):
        models.append((name, get_example(name).model))
    return models


@pytest.fixture(scope="module")
def warm_models():
    models = _models()
    for name, model in models:
        run_classify(model, name, 0)
    return models


def test_warm_classification_enters_no_numpy_wrapper(warm_models):
    entered = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        path = frame.f_code.co_filename.replace(os.sep, "/")
        wrapper = path.endswith(WRAPPER_FILES) or (
            "/numpy/" in path and frame.f_code.co_name in WRAPPER_FUNCTIONS
        )
        if wrapper:
            caller = frame.f_back
            while caller is not None and "evpos" not in caller.f_code.co_filename:
                caller = caller.f_back
            where = "?" if caller is None else f"{caller.f_code.co_name}:{caller.f_lineno}"
            entered.add(f"{path.split('numpy/')[-1]}:{frame.f_code.co_name} from {where}")

    sys.setprofile(profile)
    try:
        for name, model in warm_models:
            run_classify(model, name, 0)
    finally:
        sys.setprofile(None)
    assert not entered, sorted(entered)


def test_warm_classification_enters_no_json_or_enum_frame():
    models = [(c.name, c.model) for c in workloads.random_small(0)]
    for norm in (Ell1(), Ell2(), EllInf()):
        models.append((norm.kind, make_eventually_positive(5, 0.5, seed=34, norm=norm).model))
    for name, model in models:
        report_to_json(run_classify(model, name, 0)[0])
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in STDLIB_FILES:
            entered.add(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        for name, model in models:
            report_to_json(run_classify(model, name, 0)[0])
    finally:
        sys.setprofile(None)
    assert not entered, sorted(entered)


@pytest.mark.parametrize("seed", [0, 7])
def test_no_catalog_digest_enters_a_json_frame(seed):
    """A digest hashes each array of a model as bytes, after a header that
    it writes itself, so it formats no float per entry."""
    models = [(e.name, e.model) for e in build_catalog(seed)]
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in STDLIB_FILES[:2]:
            entered.add(f"{frame.f_code.co_name} in {name}")

    sys.setprofile(profile)
    try:
        for name, model in models:
            model_digest(model)
    finally:
        sys.setprofile(None)
    assert {type(m).__name__ for _, m in models} == {"Dense", "Diagonal", "WeightedShift", "RankK"}
    assert not entered, sorted(entered)


class _Logged(np.ndarray):
    """An array that records each ufunc kernel entered on it, as (ufunc,
    method, operand dtypes), a Python scalar by its type name, and whose
    results are again `_Logged`."""

    kernels = None

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if _Logged.kernels is not None:
            _Logged.kernels.add((ufunc.__name__, method, tuple(
                x.dtype.str if isinstance(x, (np.ndarray, np.generic)) else type(x).__name__
                for x in inputs)))
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Logged) else x for x in inputs)
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Logged) else x for x in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_Logged) if isinstance(result, np.ndarray) else result


def _logged(a):
    return a.view(_Logged) if type(a) is np.ndarray else a


# the distinct ufunc kernels that the warm random-small classifications at
# seed 0 enter, in `_Logged`'s view, together
DISTINCT_KERNELS = 29


def test_warm_dense_classification_enters_few_distinct_kernels(monkeypatch):
    """After a flush of the CPU caches, the first call of a kernel costs
    several times a repeat, so a one-off kernel gives way to an equal one
    the path already runs. Seen: every ufunc call, operator or reduction on
    the model's matrix, on the arrays of its kept `Spectrum` (its
    eigenvalues, peripheral indices and eigenvalues, and coefficients), on
    every `np.empty`, `np.zeros` and `np.arange` result, and on whatever is
    formed from those. Not seen: ufuncs on module constants or Python
    scalars alone (`verify._IK` is seen only once it meets a logged array),
    and every kernel that is not a ufunc: `argmin`/`argmax`, `nonzero`,
    indexing, copies and casts, `.dot`, and LAPACK."""
    cases = workloads.random_small(0)
    for case in cases:
        report_to_json(run_classify(case.model, case.name, 0)[0])
    for name in ("empty", "zeros", "arange"):
        make = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, make=make, **k: make(*a, **k).view(_Logged))
    for case in cases:
        T = case.model
        object.__setattr__(T, "matrix", _logged(T.matrix))
        spec = T.spectral_data()
        for key, value in list(vars(spec).items()):
            if isinstance(value, dict):
                value.update({k: _logged(v) for k, v in value.items()})
            else:
                object.__setattr__(spec, key, _logged(value))
    _Logged.kernels = set()
    try:
        for case in cases:
            report_to_json(run_classify(case.model, case.name, 0)[0])
        kernels = _Logged.kernels
    finally:
        _Logged.kernels = None
    # the checks' moduli are seen, so the view is not empty
    assert ("absolute", "__call__", ("<c16",)) in kernels
    assert len(kernels) <= DISTINCT_KERNELS, sorted(kernels)
