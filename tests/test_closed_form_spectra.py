"""The closed-form spectral data of diagonal and shift models against the
eigen-solve of their dense matrices: the eigenvalues, the spectrum record and
every check record must come out the same, byte for byte, but for a
peripheral multiplicity that the solver raises by entries within rounding of
it. A nilpotent rank-k model's spectrum is closed-form too."""

import json

import numpy as np
import pytest

from evpos.classify import NotClassifiableError, classify_asymptotic
from evpos.cli import run_classify
from evpos.lattice import Ell1, Ell2, EllInf, GridSup
from evpos.operators import (
    Constant,
    Diagonal,
    Monomial,
    RankK,
    WeightedIntegral,
    WeightedShift,
    complex_pairs,
    to_dense,
)
from evpos.report import check_record, spectrum_record
from evpos.spectral import SpectralError, eigenvalues, geometric_multiplicity
from evpos.verify import VerificationError, perron_frobenius_checks

NORMS = (Ell1, Ell2, EllInf)


def _symbol(rng) -> np.ndarray:
    """A symbol of dim 1-128: real or complex entries, some exact zeros,
    and exact repeats on the spectral circle (a positive real, a root of
    unity or a random phase) and inside it."""
    dim = int(rng.integers(1, 129))
    s = rng.uniform(-1.0, 1.0, dim).astype(complex)
    if rng.random() < 0.5:
        s += 1j * rng.uniform(-1.0, 1.0, dim)
    s[rng.random(dim) < 0.2] = 0.0
    inside = rng.integers(dim, size=int(rng.integers(0, dim // 4 + 1)))
    s[inside] = s[rng.integers(dim)]
    r = float(np.max(np.abs(s))) * rng.choice([1.0, 1.5])
    top = rng.choice(
        [r, r * np.exp(2j * np.pi / int(rng.integers(1, 7))), r * np.exp(1j * rng.uniform(0, 7))]
    )
    s[rng.integers(dim, size=int(rng.integers(0, 4)))] = top
    return s


def _shift_weights(rng) -> np.ndarray:
    """Weights of a shift of dim 2-128, real or complex, some zero."""
    w = rng.normal(size=int(rng.integers(1, 128))) * 10.0 ** rng.integers(-5, 6)
    if rng.random() < 0.5:
        w = w + 1j * rng.normal(size=len(w))
    w[rng.random(len(w)) < 0.2] = 0.0
    return w


FIXED_SYMBOLS = [
    [1.0, 1.0, -1.0, 0.5],
    [2.0, 2j, -2.0, -2j, 1.0],
    [2.0, 2.0, 1.0],
    [1.0, 0.5j],
    [1.0, 1.0, 1.0, 0.0, 0.0, 0.25, 0.25],
    [-1.0 + 1.0 / j for j in range(1, 51)],
    [0.0],
    [0.0, 0.0, 0.0],
    [-3.0],
    [1j, 1j, -1j, -1j, 1.0, -1.0],
]


def _outcome(spec, verdicts, norm) -> list:
    """The records of the checks of one spectrum, in report order, and the
    kind of the error that ended them, if one did."""
    out = []
    try:
        for c in perron_frobenius_checks(spec, verdicts.get("uniform-asymptotic"),
                                         verdicts.get("weak-asymptotic"), norm):
            out.append(json.dumps(check_record(c), sort_keys=True))
    except (SpectralError, VerificationError) as exc:
        out.append(type(exc).__name__)
    return out


def _assert_same_as_dense(model, matrix):
    closed = model.spectral_data()
    dense = eigenvalues(matrix)
    assert complex_pairs(closed.eigenvalues) == complex_pairs(dense.eigenvalues)
    records = [spectrum_record(closed), spectrum_record(dense)]
    if closed.symbol is not None:
        # a symbol's multiplicity counts its exactly equal entries; the
        # solver's counts those within rounding of it too (`_clusters`), which
        # only an entry that close to another one can raise
        for lam, p, q in zip(closed.peripheral_eigenvalues, *(r["peripheral"] for r in records)):
            near = np.abs(closed.symbol - lam) <= 1e-12 * closed.spectral_radius
            assert p["multiplicity"] == np.count_nonzero(closed.symbol == lam)
            assert p["multiplicity"] <= q["multiplicity"] <= np.count_nonzero(near)
            q["multiplicity"] = p["multiplicity"]
    assert json.dumps(records[0]) == json.dumps(records[1])
    try:
        verdicts = {v.notion.value: v for v in classify_asymptotic(model)}
    except NotClassifiableError:
        verdicts = {}
    assert _outcome(closed, verdicts, model.norm) == _outcome(dense, verdicts, model.norm)


@pytest.mark.parametrize("symbol", FIXED_SYMBOLS, ids=range(len(FIXED_SYMBOLS)))
@pytest.mark.parametrize("norm", NORMS)
def test_fixed_diagonals_match_the_eigen_solve(symbol, norm):
    s = np.array(symbol, dtype=complex)
    _assert_same_as_dense(Diagonal(s, norm()), np.diag(s))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_diagonals_match_the_eigen_solve(seed):
    rng = np.random.default_rng([24, seed])
    for trial in range(60):
        s = _symbol(rng)
        _assert_same_as_dense(Diagonal(s, NORMS[trial % 3]()), np.diag(s))


@pytest.mark.parametrize("seed", range(2))
def test_seeded_shifts_match_the_eigen_solve(seed):
    rng = np.random.default_rng([25, seed])
    for trial in range(60):
        w = _shift_weights(rng)
        _assert_same_as_dense(WeightedShift(w, NORMS[trial % 3]()), np.diag(w, -1))


def test_diagonal_spectrum_is_read_off_the_symbol():
    s = np.array([2.0, -1.0, 2.0, 0.5j, -1.0, 2j, 2.0])
    model = Diagonal(s, Ell1())
    spec = model.spectral_data()
    assert np.array_equal(spec.eigenvalues, s) and not spec.eigenvalues.flags.writeable
    assert spec.spectral_radius == spec.matrix_norm == 2.0
    # exactly equal entries near the circle: pole order 1, spread 0; -1 is
    # inside, and 2i stands alone
    assert sorted(spec.clusters) == [((0, 2, 6), 1, 0.0)]
    assert spec.peripheral_indices.tolist() == [0, 5]
    assert list(spec.peripheral_eigenvalues) == [2.0, 2j]
    assert spec.pole_orders == (1, 1) and spec.multiplicities == (3, 1)
    assert np.array_equal(spec.coefficient(0), np.diag([1, 0, 1, 0, 0, 0, 1]).astype(complex))
    assert geometric_multiplicity(spec, 2.0) == 3 and geometric_multiplicity(spec, -1.0) == 2
    # nothing is kept on the model: each call builds the data anew
    assert model.spectral_data() is not spec


def test_shift_spectrum_is_nilpotent():
    spec = WeightedShift(np.array([3.0, -4j, 0.0]), Ell1()).spectral_data()
    assert np.array_equal(spec.eigenvalues, np.zeros(4)) and spec.spectral_radius == 0.0
    assert spec.matrix is None and spec.matrix_norm == 4.0


@pytest.mark.parametrize(
    "function, weight, scale",
    [(Monomial(1), Constant(1.0), 1.0), (Constant(1.0), Monomial(1), 0.5)],
    ids=["integral-times-t", "t-moment-times-one"],
)
def test_nilpotent_rank_k_spectrum_is_closed_form(function, weight, scale):
    # g -> (int g) x and g -> 0.5 (int x g) 1 have lam = 0, so T^2 = 0: the
    # report's spectrum is dim zeros, where the dense views solve to spectral
    # radii of 3.6e-9 and 1.7e-10, and only the vacuous spr check runs, as
    # the classification reads spr = 0; on the dense view's radius the second
    # model's spr check failed, and its two peripheral checks contradicted
    grid = GridSup(tuple(np.linspace(-1.0, 1.0, 41)))
    T = RankK((function,), (WeightedIntegral(weight, scale),), grid)
    spec = T.spectral_data()
    assert np.array_equal(spec.eigenvalues, np.zeros(41)) and spec.spectral_radius == 0.0
    assert spec.matrix is None
    assert spec.matrix_norm == np.linalg.norm(to_dense(T).matrix, 2)
    report, failed = run_classify(T, "nilpotent", 0)
    assert not failed and report.spectrum == spectrum_record(spec)
    assert [c["name"] for c in report.checks] == ["spr-in-spectrum"]
    assert report.checks[0]["pass"] and report.contradiction_count == 0


def test_entries_within_rounding_stay_distinct():
    # 1 and its float successor: the eigen-solve of the dense matrix may merge
    # them into one semisimple eigenvalue; the closed form keeps two simple
    # eigenvalues, and the smaller one is not peripheral, as it lies within
    # DEFAULT_TOL * spr of the larger
    s = np.array([1.0, np.nextafter(1.0, 2.0), 0.5])
    spec = Diagonal(s, Ell1()).spectral_data()
    assert spec.clusters == ()
    assert list(spec.peripheral_eigenvalues) == [s[1]]
    assert spec.multiplicities == (1,)
