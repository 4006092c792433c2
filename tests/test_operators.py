import hashlib
import json

import numpy as np
import pytest

from evpos.catalog import averaging_plus_singular, averaging_plus_slope, build_catalog
from evpos.lattice import (
    NORM_KINDS,
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeVector,
    LpQuadrature,
    midpoint_rule,
)
from evpos.operators import (
    _ARRAY_KEYS,
    FUNCTION_KINDS,
    FUNCTIONAL_KINDS,
    MODEL_VARIANTS,
    Constant,
    Dense,
    Diagonal,
    Monomial,
    OperatorError,
    PointCombination,
    RankK,
    SignedPower,
    Tabulated,
    WeightedIntegral,
    WeightedShift,
    _c2j,
    integrate_product,
    model_digest,
    model_from_json,
    model_to_json,
    power_apply,
    to_dense,
)


def grid(n=41):
    return GridSup(tuple(np.linspace(-1.0, 1.0, n)))


class TestFunctionals:
    def test_integral_of_constant(self):
        # (1/2) int_{-1}^{1} 1 dx = 1
        val = WeightedIntegral(Constant(1.0), 0.5).apply(Constant(1.0), grid())
        assert val == pytest.approx(1.0)

    def test_integral_of_odd_function_vanishes(self):
        val = WeightedIntegral(Constant(1.0), 0.5).apply(Monomial(1), grid())
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_signed_weight_against_signed_power(self):
        # c int sgn(x) sgn(x)|x|^{-1/4} dx = c * 2 * (4/3)
        c = 3.0 / 16.0
        val = WeightedIntegral(SignedPower(0.0), c).apply(SignedPower(-0.25), grid())
        assert val == pytest.approx(0.5)

    def test_point_combination(self):
        phi = PointCombination((1.0, -1.0), (0.25, -0.25))
        assert phi.apply(Monomial(1), grid()) == pytest.approx(0.5)
        assert phi.apply(Constant(1.0), grid()) == pytest.approx(0.0)

    def test_point_combination_reads_a_tabulated_function_at_its_nodes(self):
        # a tabulated function has one value per node: each point's value
        # is the one at that point's node, as in the functional's row
        phi = PointCombination((1.0, -1.0), (0.25, -0.25))
        space = grid(5)
        x = Tabulated(tuple(np.linspace(-1.0, 1.0, 5)))
        assert phi.apply(x, space) == phi.apply(Monomial(1), space) == 0.5
        assert phi.apply(x, space) == phi.row(space) @ x.sample(np.asarray(space.nodes))
        with pytest.raises(OperatorError, match="not a node"):
            PointCombination((0.1,), (1.0,)).apply(x, space)

    def test_integrate_product_closed_form(self):
        # int_{-1}^{1} x * sgn(x)|x|^{1/2} dx = 2 * int_0^1 x^{3/2} = 4/5
        assert integrate_product(Monomial(1), SignedPower(0.5), -1.0, 1.0) == pytest.approx(0.8)


FUNCTIONS = [
    Constant(2.5),
    Constant(-1.0),
    Monomial(0),
    Monomial(1),
    Monomial(2),
    Monomial(3),
    Monomial(-1),
    SignedPower(0.0),
    SignedPower(0.5),
    SignedPower(3.0),
    SignedPower(-0.25),
]
INTERVALS = [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (0.25, 2.0), (-3.0, -0.5)]


class TestExtremes:
    """A function kind's closed-form (inf, sup) over an interval bounds its
    values there and is approached by them; an unbounded one is +-inf."""

    @pytest.mark.parametrize("f", FUNCTIONS, ids=repr)
    @pytest.mark.parametrize("lo, hi", INTERVALS)
    def test_extremes_bound_and_meet_the_samples(self, f, lo, hi):
        # a negative degree or exponent is singular at 0, where its
        # extremes are infinite
        t = np.linspace(lo, hi, 20_001)
        singular = getattr(f, "degree", getattr(f, "exponent", 0)) < 0
        values = f.sample(t[t != 0] if singular else t).real
        low, high = f.extremes(lo, hi)
        assert low <= values.min() + 1e-12 and values.max() <= high + 1e-12
        for end, seen in ((low, values.min()), (high, values.max())):
            if np.isfinite(end):
                assert seen == pytest.approx(end, abs=1e-3)
            else:
                assert singular and lo <= 0.0 <= hi

    def test_complex_functions_have_no_extremes(self):
        assert Constant(1.0 + 1e-3j).extremes(-1.0, 1.0) is None
        assert Tabulated((1.0, 2.0j)).extremes(-1.0, 1.0) is None

    def test_tabulated_is_read_at_its_nodes(self):
        assert Tabulated((0.5, -2.0, 3.0)).extremes(-1.0, 1.0) == (-2.0, 3.0)


class TestDualityMatrices:
    def test_slope_model_duality(self):
        T = averaging_plus_slope(201)
        D = T.duality
        assert np.allclose(D, np.diag([1.0, 0.5]), atol=1e-12)

    def test_singular_model_duality_validates_c(self):
        # c = 3/16 is exactly the constant making <phi_2, f_2> = 1/2
        T = averaging_plus_singular(400)
        D = T.duality
        assert abs(D[0, 0] - 1.0) < 1e-10
        assert abs(D[1, 1] - 0.5) < 1e-10
        assert abs(D[0, 1]) < 1e-10 and abs(D[1, 0]) < 1e-10

    def test_nondiagonal_duality_rejected(self):
        with pytest.raises(OperatorError):
            RankK(
                functions=(Constant(1.0), Monomial(1)),
                functionals=(
                    WeightedIntegral(Constant(1.0), 0.5),
                    WeightedIntegral(Constant(1.0), 0.5),
                ),
                space=grid(),
            )


class TestPowers:
    def test_rank2_power_formula(self):
        # T^n g = <phi_1, g> f_1 + lambda_2^{n-1} <phi_2, g> f_2
        T = averaging_plus_slope(201)
        nodes = np.asarray(T.space.nodes)
        g = LatticeVector((nodes**2).astype(complex), T.space)
        direct = power_apply(T, 4, g)
        a, b = T.coefficients(g.entries)
        expected = a * np.ones_like(nodes) + 0.5**3 * b * nodes
        assert np.allclose(direct.entries, expected, atol=1e-12)

    def test_semigroup_law(self):
        T = averaging_plus_slope(101)
        g = LatticeVector(np.ones(101, dtype=complex), T.space)
        lhs = power_apply(T, 5, g)
        rhs = power_apply(T, 2, power_apply(T, 3, g))
        assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)

    def test_power_apply_matches_dense_power(self):
        T = averaging_plus_slope(41)
        A = to_dense(T).matrix
        g = LatticeVector(np.linspace(0.1, 1.0, 41).astype(complex), T.space)
        for n in (1, 2, 6):
            assert np.allclose(
                power_apply(T, n, g).entries,
                np.linalg.matrix_power(A, n) @ g.entries,
                atol=1e-10,
            )

    def test_diagonal_and_shift_powers(self):
        D = Diagonal(np.array([1.0, 0.5j]), Ell1())
        x = LatticeVector(np.ones(2, dtype=complex), Ell1())
        assert np.allclose(power_apply(D, 4, x).entries, [1.0, (0.5j) ** 4])
        S = WeightedShift(np.array([-1.0, -1.0]), Ell1())
        y = LatticeVector(np.array([1.0, 0, 0], dtype=complex), Ell1())
        assert np.allclose(power_apply(S, 2, y).entries, [0, 0, 1.0])
        assert np.allclose(power_apply(S, 3, y).entries, 0.0)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(OperatorError):
            power_apply(Diagonal(np.array([1.0]), Ell1()), 0,
                        LatticeVector(np.ones(1, dtype=complex), Ell1()))


class TestAdjointAndDense:
    def test_to_dense_diagonal(self):
        D = Diagonal(np.array([1.0, 0.5j]), Ell1())
        assert np.allclose(to_dense(D).matrix, np.diag([1.0, 0.5j]))

    def test_apply_matches_dense(self):
        T = averaging_plus_slope(41)
        g = LatticeVector(np.cos(np.asarray(T.space.nodes)).astype(complex), T.space)
        expected = to_dense(T).matrix @ g.entries
        assert np.allclose(power_apply(T, 1, g).entries, expected, atol=1e-12)


_ONE = {"kind": "constant", "value": [1.0, 0.0]}
_X = {"kind": "monomial", "degree": 1}
_NODES = {"kind": "grid_sup", "nodes": [-1.0, 0.0, 1.0]}
# one record of each kind with its descriptor, written out: an int stays an
# int, a float a float, and every list a list
DESCRIPTORS = [
    (Ell1(), {"kind": "ell1"}),
    (Ell2(), {"kind": "ell2"}),
    (EllInf(), {"kind": "ellinf"}),
    (
        LpQuadrature(2, (-0.5, 0.5), (1.0, 1.0)),
        {"kind": "lp_quadrature", "p": 2, "nodes": [-0.5, 0.5], "weights": [1.0, 1.0]},
    ),
    (GridSup((-1.0, 0.0, 1.0)), _NODES),
    (Constant(0.5 - 1j), {"kind": "constant", "value": [0.5, -1.0]}),
    (Monomial(3), {"kind": "monomial", "degree": 3}),
    (SignedPower(0.5), {"kind": "signed_power", "exponent": 0.5}),
    (Tabulated((1 + 0j, 2j)), {"kind": "tabulated", "values": [[1.0, 0.0], [0.0, 2.0]]}),
    (
        WeightedIntegral(Monomial(1), 0.5j),
        {"kind": "weighted_integral", "weight": _X, "scale": [0.0, 0.5]},
    ),
    (
        PointCombination((-1.0, 1.0), (1 + 0j, -0.5 + 0j)),
        {
            "kind": "point_combination",
            "points": [-1.0, 1.0],
            "coefficients": [[1.0, 0.0], [-0.5, 0.0]],
        },
    ),
    (
        Dense(np.array([[1.0, 2j], [0.0, -1.0]]), Ell2()),
        {
            "variant": "dense",
            "n": 2,
            "entries": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.0]],
            "norm": {"kind": "ell2"},
        },
    ),
    (
        Diagonal(np.array([1.0, 0.5j]), Ell1()),
        {"variant": "diagonal", "symbol": [[1.0, 0.0], [0.0, 0.5]], "norm": {"kind": "ell1"}},
    ),
    (
        WeightedShift(np.array([-1.0, 2.0]), EllInf()),
        {"variant": "shift", "weights": [[-1.0, 0.0], [2.0, 0.0]], "norm": {"kind": "ellinf"}},
    ),
    (
        RankK(
            (Constant(1 + 0j), Monomial(1)),
            (
                WeightedIntegral(Constant(1 + 0j), 0.5 + 0j),
                PointCombination((-1.0, 1.0), (-0.5 + 0j, 0.5 + 0j)),
            ),
            GridSup((-1.0, 0.0, 1.0)),
        ),
        {
            "variant": "rank_k",
            "functions": [_ONE, _X],
            "functionals": [
                {"kind": "weighted_integral", "weight": _ONE, "scale": [0.5, 0.0]},
                {
                    "kind": "point_combination",
                    "points": [-1.0, 1.0],
                    "coefficients": [[-0.5, 0.0], [0.5, 0.0]],
                },
            ],
            "space": _NODES,
        },
    ),
]


def _typed(value):
    """value with each container and leaf paired with its type, and each
    dict as its items in order, so that == tells 1 from 1.0, a list from a
    tuple and one key order from another."""
    if isinstance(value, dict):
        return dict, [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def _fields(record) -> list:
    """A record's field values, each array as its dtype and its entries."""
    values = [getattr(record, name) for name in record.fields]
    return [(v.dtype, v.tolist()) if isinstance(v, np.ndarray) else v for v in values]


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "record, descriptor", DESCRIPTORS, ids=[type(r).__name__ for r, _ in DESCRIPTORS]
    )
    def test_descriptor_is_pinned(self, record, descriptor):
        # the writer against a literal, not against itself, and the reader
        # back to the record
        assert _typed(record.to_json()) == _typed(descriptor)
        back = type(record).from_json(json.loads(json.dumps(descriptor)))
        assert type(back) is type(record) and _fields(back) == _fields(record)

    def test_every_kind_is_pinned(self):
        kinds = {**NORM_KINDS, **FUNCTION_KINDS, **FUNCTIONAL_KINDS, **MODEL_VARIANTS}.values()
        assert set(kinds) == {type(record) for record, _ in DESCRIPTORS}

    def test_array_keys_are_the_codec_keys_of_number_lists(self):
        # the digest hashes the lists under _ARRAY_KEYS as bytes: exactly the
        # fields that hold a sequence and write it as a list of numbers or
        # of [re, im] pairs
        keys = set()
        for record, _ in DESCRIPTORS:
            for key, (write, _) in getattr(record, "codec", {}).items():
                value = getattr(record, key)
                out = write(value)
                if isinstance(value, (tuple, np.ndarray)) and all(
                    _is_real(v) or (isinstance(v, list) and len(v) == 2 and all(map(_is_real, v)))
                    for v in out
                ):
                    keys.add(key)
        assert keys == _ARRAY_KEYS

    @pytest.mark.parametrize(
        "model",
        [
            Dense(np.array([[1.0, 2.0j], [0.0, -1.0]]), Ell2()),
            Diagonal(np.array([1.0, 0.5j]), Ell1()),
            WeightedShift(np.array([-1.0, -1.0]), Ell1()),
            averaging_plus_slope(41),
            averaging_plus_singular(60),
        ],
    )
    def test_round_trip(self, model):
        data = model_to_json(model)
        back = model_from_json(data)
        assert np.allclose(to_dense(back).matrix, to_dense(model).matrix, atol=1e-14)
        assert model_to_json(back) == data

    def test_dense_size_must_be_an_integer(self):
        # an integral float is read as that integer, as a monomial degree is
        data = {"variant": "dense", "n": 2.0, "entries": [[1.0, 0.0]] * 4, "norm": {"kind": "ell1"}}
        assert model_from_json(data).dim == 2
        with pytest.raises(OperatorError, match="not an integer"):
            model_from_json({**data, "n": 1.5, "entries": [[2.0, 0.0]]})

    @pytest.mark.parametrize(
        "n, entry",
        [("1", [1.0, 0.0]), (True, [1.0, 0.0]), (1, True), (1, [True, 0.0]), (1, [1.0, "0"])],
        ids=["n-string", "n-bool", "entry-bool", "re-bool", "im-string"],
    )
    def test_dense_numbers_must_be_json_numbers(self, n, entry):
        # float() reads "1" and True as 1, and complex() reads True as 1
        data = {"variant": "dense", "n": n, "entries": [entry], "norm": {"kind": "ell1"}}
        with pytest.raises(OperatorError, match="is not a number"):
            model_from_json(data)

    def test_function_parameters_must_be_json_numbers(self):
        with pytest.raises(OperatorError, match="is not a number"):
            Monomial.from_json({"kind": "monomial", "degree": "1"})
        with pytest.raises(OperatorError, match="is not a number"):
            SignedPower.from_json({"kind": "signed_power", "exponent": "0.5"})
        assert Monomial.from_json({"kind": "monomial", "degree": 2.0}).degree == 2

    def test_unknown_variant_rejected(self):
        with pytest.raises(OperatorError):
            model_from_json({"variant": "mystery"})


# entries whose JSON text a per-entry conversion and an array conversion
# could write differently: signed zeros, subnormals, and huge magnitudes
AWKWARD_ENTRIES = (
    -0.0,
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    5e-324,
    complex(-2.5e-310, 1e-320),
    1e300,
    complex(-1e300, 1e300),
    0.1 + 0.2j,
    -1.0 / 3.0,
)


class TestArraySerialisation:
    @pytest.mark.parametrize(
        "model, field",
        [
            (Diagonal(np.array(AWKWARD_ENTRIES), Ell1()), "symbol"),
            (WeightedShift(np.array(AWKWARD_ENTRIES), Ell1()), "weights"),
            (Dense(np.array(AWKWARD_ENTRIES).reshape(3, 3), Ell1()), "entries"),
        ],
        ids=["diagonal", "shift", "dense"],
    )
    def test_models_write_the_per_entry_bytes(self, model, field):
        data = model_to_json(model)
        reference = dict(data, **{field: [_c2j(z) for z in AWKWARD_ENTRIES]})
        assert json.dumps(data, sort_keys=True) == json.dumps(reference, sort_keys=True)
        if not isinstance(model, Dense):  # a Dense's recipe is pinned below
            header = json.dumps(dict(reference, **{field: len(AWKWARD_ENTRIES)}),
                                sort_keys=True, separators=(",", ":")).encode()
            recipe = hashlib.sha256(header + np.array(AWKWARD_ENTRIES, dtype="<c16").tobytes())
            assert model_digest(model) == recipe.hexdigest()
        back = model_from_json(json.loads(json.dumps(data)))
        assert model_to_json(back) == data

    def test_functions_and_functionals_write_the_per_entry_bytes(self):
        values = Tabulated(AWKWARD_ENTRIES).to_json()["values"]
        points = tuple(np.linspace(-1.0, 1.0, len(AWKWARD_ENTRIES)))
        coefficients = PointCombination(points, AWKWARD_ENTRIES).to_json()["coefficients"]
        reference = json.dumps([_c2j(z) for z in AWKWARD_ENTRIES])
        assert json.dumps(values) == json.dumps(coefficients) == reference
        assert "-0.0" in reference and "5e-324" in reference and "1e+300" in reference


class TestModelDigest:
    def test_dense_digest_is_pinned(self):
        # the documented recipe: sha256 of the compact sorted-key JSON header,
        # then the matrix as little-endian complex128 bytes in C order; on
        # each norm kind, the grid ones from the dense views of rank-k models
        A = np.array([[1 + 2j, -0.5], [0.25j, 3.0]])
        recipe = hashlib.sha256(b'{"n":2,"norm":{"kind":"ell2"},"variant":"dense"}')
        recipe.update(A.astype("<c16").tobytes())
        digest = model_digest(Dense(A, Ell2()))
        assert digest == recipe.hexdigest()
        assert digest == "964a54bcd205e2ee3c0e59ca46ddbb8563b6d5a4d8a843639d0c61b309fb1be8"
        models = [Dense(A, Ell1()), Dense(A, EllInf())]
        models += [to_dense(averaging_plus_slope(11)), to_dense(averaging_plus_singular(8))]
        for model in models:
            header = {"variant": "dense", "n": model.dim, "norm": model.norm.to_json()}
            recipe = hashlib.sha256(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
            recipe.update(model.matrix.astype("<c16").tobytes())
            assert model_digest(model) == recipe.hexdigest(), model.norm.kind

    def test_one_ulp_or_the_norm_changes_the_digest(self):
        A = np.array([[1 + 2j, -0.5], [0.25j, 3.0]])
        B = A.copy()
        B[1, 0] = complex(B[1, 0].real, np.nextafter(B[1, 0].imag, 1.0))
        digests = {
            model_digest(Dense(A, Ell2())),
            model_digest(Dense(B, Ell2())),
            model_digest(Dense(A, Ell1())),
        }
        assert len(digests) == 3

    def test_digest_recipe_of_every_other_model(self):
        # the documented recipe: sha256 of the compact sorted-key JSON
        # descriptor with each array written as its length, then the arrays
        # in header order as little-endian float64 ([re, im] as two)
        symbol = np.array([2.0, -1j, 0.5])
        slope, singular = averaging_plus_slope(5), averaging_plus_singular(4)
        c16 = lambda values: np.array(values, dtype=complex).astype("<c16").tobytes()
        f8 = lambda values: np.array(values, dtype=float).astype("<f8").tobytes()
        unit = '{"kind":"weighted_integral","scale":[0.5,0.0],"weight":{"kind":"constant","value":[1.0,0.0]}}'
        cases = [
            (Diagonal(symbol, Ell1()),
             '{"norm":{"kind":"ell1"},"symbol":3,"variant":"diagonal"}', [c16(symbol)]),
            (WeightedShift(symbol, EllInf()),
             '{"norm":{"kind":"ellinf"},"variant":"shift","weights":3}', [c16(symbol)]),
            (slope,
             '{"functionals":[%s,{"coefficients":2,"kind":"point_combination","points":2}],'
             '"functions":[{"kind":"constant","value":[1.0,0.0]},{"degree":1,"kind":"monomial"}],'
             '"space":{"kind":"grid_sup","nodes":5},"variant":"rank_k"}' % unit,
             [c16([0.25, -0.25]), f8([1.0, -1.0]), f8(np.linspace(-1.0, 1.0, 5))]),
            (singular,
             '{"functionals":[%s,{"kind":"weighted_integral","scale":[0.1875,0.0],'
             '"weight":{"exponent":0.0,"kind":"signed_power"}}],'
             '"functions":[{"kind":"constant","value":[1.0,0.0]},{"exponent":-0.25,"kind":"signed_power"}],'
             '"space":{"kind":"lp_quadrature","nodes":4,"p":2.0,"weights":4},"variant":"rank_k"}' % unit,
             [f8([-0.75, -0.25, 0.25, 0.75]), f8([0.5] * 4)]),
        ]
        assert singular.space.nodes == (-0.75, -0.25, 0.25, 0.75)
        for model, header, arrays in cases:
            recipe = hashlib.sha256(header.encode())
            for a in arrays:
                recipe.update(a)
            assert model_digest(model) == recipe.hexdigest(), model.variant

    @pytest.mark.parametrize("kind", ["diagonal", "shift", "grid", "quadrature", "tabulated"])
    def test_a_signed_zero_or_one_ulp_changes_the_digest(self, kind):
        def model(x):
            grid = GridSup((-1.0, x, 1.0))
            return {
                "diagonal": lambda: Diagonal(np.array([1.0, complex(x, 1.0)]), Ell1()),
                "shift": lambda: WeightedShift(np.array([complex(1.0, x)]), Ell1()),
                "grid": lambda: RankK((Constant(1.0),), (WeightedIntegral(Constant(1.0)),), grid),
                "quadrature": lambda: RankK(
                    (Constant(1.0),), (WeightedIntegral(Constant(1.0)),),
                    LpQuadrature(2.0, (-0.5, x, 0.5), (0.5, 0.5, 0.5)),
                ),
                "tabulated": lambda: RankK(
                    (Tabulated((1.0, x, 1.0)),), (WeightedIntegral(Constant(1.0)),),
                    GridSup((-1.0, 0.0, 1.0)),
                ),
            }[kind]()

        values = [0.0, -0.0, np.nextafter(0.0, 1.0)]
        assert len({model_digest(model(x)) for x in values}) == 3

    @pytest.mark.parametrize("entry", build_catalog(0), ids=lambda e: e.name)
    def test_model_file_round_trip_keeps_the_digest(self, entry):
        T = entry.model
        assert model_digest(model_from_json(model_to_json(T))) == model_digest(T)


def _contract_model(kind, n):
    """A model of the given kind on the n-node grid of the slope model. (The
    singular model's powers use closed-form pairings, which its quadrature
    matrix only approximates, so it cannot match the dense powers to 1e-10.)"""
    T = averaging_plus_slope(n)
    rng = np.random.default_rng(n)
    if kind == "dense":
        return Dense(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), T.space)
    if kind == "diagonal":
        return Diagonal(rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n), T.space)
    if kind == "shift":
        return WeightedShift(rng.uniform(-2.0, 2.0, size=n - 1), T.space)
    return T


def _assert_orbit_matches_powers(T, Y, power, horizon=8):
    """The orbit of Y streams horizon + 1 blocks, the n-th equal to power(n)."""
    blocks = list(T.orbit(Y, horizon))
    assert len(blocks) == horizon + 1
    for k, Z in enumerate(blocks):
        expected = power(k)
        assert np.allclose(Z, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected)))


def _eigen_parameter_power(T, k, Y):
    """T^k y = sum_i lam_i^(k-1) <phi_i, y> f_i for each column y (k >= 1),
    term by term, with f_i sampled on the grid."""
    if k == 0:
        return Y
    nodes = np.asarray(T.space.nodes)
    columns = []
    for y in Y.T:
        c = T.coefficients(y) * T.eigen_parameters ** (k - 1)
        columns.append(sum(ci * f.sample(nodes) for ci, f in zip(c, T.functions)))
    return np.stack(columns, axis=1)


def test_singular_model_orbit_matches_its_powers():
    T = averaging_plus_singular(60)
    rng = np.random.default_rng(3)
    Y = rng.uniform(0.0, 1.0, size=(60, 3)) + 0j
    _assert_orbit_matches_powers(T, Y, lambda k: _eigen_parameter_power(T, k, Y))


@pytest.mark.parametrize("n", [41, 60])
@pytest.mark.parametrize("kind", ["dense", "diagonal", "shift", "rank_k"])
def test_models_keep_one_contract(n, kind):
    T = _contract_model(kind, n)
    A = to_dense(T).matrix
    rng = np.random.default_rng(7)
    x = LatticeVector(rng.uniform(0.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n), T.norm)
    for k in range(1, 6):
        expected = np.linalg.matrix_power(A, k) @ x.entries
        got = power_apply(T, k, x).entries
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected)))
    Y = np.stack([x.entries, rng.uniform(0.0, 1.0, size=n) + 0j], axis=1)
    _assert_orbit_matches_powers(T, Y, lambda k: np.linalg.matrix_power(A, k) @ Y)
    spr = float(np.max(np.abs(np.linalg.eigvals(A))))
    assert T.spectral_radius() == pytest.approx(spr, rel=1e-8, abs=1e-10)
    # every kind gives its spectral data through one method; a rank-k
    # model's comes from its dense view, whose quadrature moves spr in the
    # last bits, and only a Dense keeps its own
    spec = T.spectral_data()
    assert spec.spectral_radius == pytest.approx(T.spectral_radius(), rel=1e-14, abs=1e-300)
    if kind != "rank_k":
        assert spec.spectral_radius == T.spectral_radius()
    assert (T.spectral_data() is spec) == (kind == "dense")
    data = model_to_json(T)
    back = model_from_json(data)
    assert type(back) is type(T)
    assert model_to_json(back) == data
    assert np.array_equal(to_dense(back).matrix, A)
