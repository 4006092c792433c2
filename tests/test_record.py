"""Every evpos record (`evpos.record.Record`) keeps the behaviour of the
frozen dataclass it replaced: equality, hash and repr over its fields,
immutability, `replace`, defaults no two records share, and an instance
`__dict__` for `cached_property` values. No evpos module imports
`dataclasses`, whose per-class code generation cost every process about
20 ms at import."""

import ast
import copy
import dataclasses
import importlib
import os
import pkgutil

import numpy as np
import pytest

import evpos
import evpos.operators
from evpos.catalog import averaging_plus_slope, get_example
from evpos.classify import (
    Confirmed,
    Notion,
    PositivityVerdict,
    RefutedWithWitness,
    UndeterminedUpToHorizon,
)
from evpos.cli import run_classify
from evpos.generators import make_eventually_positive
from evpos.lattice import (
    Described,
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeVector,
    LpQuadrature,
    _SequenceNorm,
)
from evpos.operators import (
    Constant,
    Dense,
    Diagonal,
    Monomial,
    PointCombination,
    SignedPower,
    Tabulated,
    WeightedIntegral,
    WeightedShift,
)
from evpos.record import Record
from evpos.verify import CheckResult, peripheral_table, positive_eigenvector
from evpos.witnesses import FaceWitness, NegativityWitness

SRC = os.path.dirname(evpos.__file__)


def _records() -> list:
    """Every Record subclass defined in an evpos module."""
    found = []
    for info in pkgutil.iter_modules(evpos.__path__):
        module = importlib.import_module(f"evpos.{info.name}")
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record
            and value.__module__ == module.__name__
        ]
    return found


def _dense() -> Dense:
    return Dense(np.array([[0.5, 0.5], [0.25, 0.75]]), Ell1())


def _vector() -> LatticeVector:
    return LatticeVector(np.array([1.0, -2.0]), Ell1())


# a record of each class, and a field to change and its new value (None
# for a record with no fields)
SAMPLES = {
    Described: (Described, None, None),
    _SequenceNorm: (_SequenceNorm, None, None),
    Ell1: (Ell1, None, None),
    Ell2: (Ell2, None, None),
    EllInf: (EllInf, None, None),
    LpQuadrature: (lambda: LpQuadrature(2.0, (0.25, 0.75), (0.5, 0.5)), "p", 3.0),
    GridSup: (lambda: GridSup((-1.0, 0.0, 1.0)), "nodes", (0.0, 1.0)),
    LatticeVector: (_vector, "norm", Ell2()),
    evpos.spectral.Spectrum: (lambda: _dense().spectral_data(), "clusters", ((0,),)),
    Constant: (lambda: Constant(2.0), "value", 3.0),
    Monomial: (lambda: Monomial(2), "degree", 3),
    SignedPower: (lambda: SignedPower(0.5), "exponent", 1.5),
    Tabulated: (lambda: Tabulated((1.0, 2.0)), "values", (3.0,)),
    WeightedIntegral: (lambda: WeightedIntegral(Constant(1.0), 0.5), "scale", 2.0),
    PointCombination: (lambda: PointCombination((1.0,), (0.25,)), "coefficients", (0.5,)),
    Dense: (_dense, "norm", Ell2()),
    Diagonal: (lambda: Diagonal(np.array([1.0, 0.5]), Ell1()), "norm", EllInf()),
    WeightedShift: (lambda: WeightedShift(np.array([2.0]), Ell1()), "norm", EllInf()),
    evpos.operators.RankK: (lambda: averaging_plus_slope(5), "functions", (Constant(1.0), Monomial(3))),
    NegativityWitness: (lambda: NegativityWitness(3, 0.5, -1.0, "hat"), "n", 4),
    FaceWitness: (lambda: FaceWitness(1, 2, 3, 2, -0.5), "period", 1),
    Confirmed: (lambda: Confirmed(3), "n0", 4),
    RefutedWithWitness: (lambda: RefutedWithWitness(None, "w"), "description", "v"),
    UndeterminedUpToHorizon: (lambda: UndeterminedUpToHorizon(30), "horizon", 0),
    PositivityVerdict: (
        lambda: PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(0)), "notion", Notion.WEAK_EVENTUAL
    ),
    CheckResult: (lambda: CheckResult("spr-in-spectrum", True, 0.0, 1e-8), "pass_", False),
    evpos.verify.EigenvectorResult: (
        lambda: positive_eigenvector(_dense().spectral_data(), Ell1()), "pole_order", 2
    ),
    evpos.verify.PeripheralTable: (lambda: peripheral_table(_dense().spectral_data()), "power_bounds", {}),
    evpos.generators.EventuallyPositiveInstance: (
        lambda: make_eventually_positive(3, 0.5, 0), "n0_bound", 9
    ),
    evpos.catalog.CatalogEntry: (lambda: get_example("rem3.2b"), "name", "renamed"),
    evpos.report.AnalysisReport: (lambda: run_classify(_dense(), "sample", 0)[0], "seed", 7),
}


def _placeholder(cls, values):
    """A record of cls holding these field values, as its constructor
    leaves them, with no `__post_init__` check of their types."""
    record = object.__new__(cls)
    vars(record).update(zip(cls.fields, values))
    return record


@pytest.mark.parametrize("cls", _records(), ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_record_keeps_the_frozen_dataclass_behaviour(cls):
    assert not dataclasses.is_dataclass(cls)
    factory, name, value = SAMPLES[cls]
    record = factory()
    assert type(record) is cls
    for field in (*cls.fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)

    # equality, hash and repr, against a frozen dataclass with the same
    # fields holding the same values
    reference = dataclasses.make_dataclass(cls.__name__, cls.fields, frozen=True)
    values = [f"value-{i}" for i in range(len(cls.fields))]
    a, b, twin = _placeholder(cls, values), _placeholder(cls, values), reference(*values)
    assert a == b and not a != b and twin == reference(*values)
    assert hash(a) == hash(twin) and repr(a) == repr(twin)
    assert a != twin and twin != a
    # a subclass keeps the fields and defaults, and its record with the same
    # values is another record
    sub = type("Sub", (cls,), {})
    assert (sub.fields, sub._defaults) == (cls.fields, cls._defaults)
    assert a != _placeholder(sub, values)
    assert twin != type("Sub", (reference,), {})(*values)
    for i in range(len(values)):
        changed = values[:i] + ["other"] + values[i + 1:]
        assert a != _placeholder(cls, changed) and twin != reference(*changed)

    # replace: the changed field, and the others as they were (a model's
    # __post_init__ copies its array)
    moved = record.replace(**({} if name is None else {name: value}))
    assert type(moved) is cls and moved is not record
    for field in cls.fields:
        new, old = getattr(moved, field), getattr(record, field)
        assert new == value if field == name else (new is old or np.array_equal(new, old))

    # defaults: taken when a field is left out, and no two records share a
    # dict; none stays a class attribute, which would shadow the field
    assert not set(cls.fields) & set(vars(cls))
    given = {n: getattr(record, n) for n in cls.fields if n not in cls._defaults}
    first, second = cls(**given), cls(**given)
    for n, default in cls._defaults.items():
        if isinstance(default, dict):
            assert getattr(first, n) == default and getattr(first, n) is not getattr(second, n)
        else:
            assert getattr(first, n) is default


def test_every_record_has_a_sample():
    assert set(_records()) == set(SAMPLES)


def test_construction_errors_name_the_argument():
    with pytest.raises(TypeError, match="missing argument 'status'"):
        PositivityVerdict(Notion.UNIFORM_EVENTUAL)
    with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
        PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(0), None)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'notion'"):
        PositivityVerdict(Notion.UNIFORM_EVENTUAL, Confirmed(0), notion=Notion.WEAK_EVENTUAL)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'witness'"):
        Confirmed(witness=None)
    assert PositivityVerdict(status=Confirmed(), notion=Notion.UNIFORM_EVENTUAL) == PositivityVerdict(
        Notion.UNIFORM_EVENTUAL, Confirmed(0)
    )


def test_post_init_may_set_attributes():
    # __post_init__ stores the checked matrix, and a record copied by the
    # copy module keeps it without a constructor call
    dense = Dense([[1.0, 2.0], [3.0, 4.0]], Ell1())
    assert dense.matrix.dtype == complex and not dense.matrix.flags.writeable
    assert copy.copy(dense).matrix is dense.matrix


def test_dense_spectrum_is_solved_once_per_model(monkeypatch):
    calls = []
    original = evpos.operators.eigenvalues

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(evpos.operators, "eigenvalues", counting)
    model = make_eventually_positive(5, 0.5, 1).model
    spectrum = model.spectral_data()
    assert model.spectral_data() is spectrum and vars(model)["_spectrum"] is spectrum
    report, failed = run_classify(model, "dense", 0)
    assert not failed and report.spectrum is not None
    assert len(calls) == 1
    # a replaced model is another model, with its own spectrum
    assert model.replace(norm=Ell2()).spectral_data() is not spectrum and len(calls) == 2


def test_no_evpos_module_imports_dataclasses():
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "dataclasses" not in imported, name
