import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpos.lattice import (
    Ell1,
    Ell2,
    EllInf,
    GridSup,
    LatticeError,
    LatticeVector,
    LpQuadrature,
    cone_distance,
    cone_distance_oracle,
    cone_distances,
    cone_residual,
    midpoint_rule,
    norm_value,
    trapezoid_weights,
)

NORMS = [Ell1(), Ell2(), EllInf()]


def vec(entries, norm=None):
    return LatticeVector(np.asarray(entries, dtype=complex), norm or Ell2())


class TestNorms:
    def test_ell1(self):
        assert norm_value(vec([3, -4j], Ell1())) == pytest.approx(7)

    def test_ell2(self):
        assert norm_value(vec([3, 4], Ell2())) == pytest.approx(5)

    def test_ellinf(self):
        assert norm_value(vec([3, -4j], EllInf())) == pytest.approx(4)

    def test_lp_quadrature_constant(self):
        nodes, weights = midpoint_rule(-1.0, 1.0, 64)
        norm = LpQuadrature(2.0, tuple(nodes), tuple(weights))
        x = LatticeVector(np.ones(64, dtype=complex), norm)
        # ||1||_{L^2(-1,1)} = sqrt(2)
        assert norm_value(x) == pytest.approx(np.sqrt(2.0))

    def test_grid_sup(self):
        norm = GridSup((0.0, 0.5, 1.0))
        assert norm_value(LatticeVector(np.array([1, -2, 0.5j]), norm)) == pytest.approx(2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LatticeError):
            LatticeVector(np.ones(3, dtype=complex), GridSup((0.0, 1.0)))

    def test_bad_quadrature_weights_rejected(self):
        with pytest.raises(LatticeError):
            LpQuadrature(2.0, (0.0, 1.0), (0.5, -0.5))

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5])
    def test_bad_quadrature_exponent_rejected(self, p):
        with pytest.raises(LatticeError, match="finite number >= 1"):
            LpQuadrature(p, (0.0, 1.0), (0.5, 0.5))

    @pytest.mark.parametrize(
        "nodes",
        [(0.0, float("nan")), (float("nan"), 1.0), (0.0, float("inf")), (1.0, 0.0), (0.0, 0.0)],
    )
    def test_bad_nodes_rejected(self, nodes):
        with pytest.raises(LatticeError, match="finite and strictly increasing"):
            LpQuadrature(2.0, nodes, (0.5, 0.5))
        with pytest.raises(LatticeError, match="finite and strictly increasing"):
            GridSup(nodes)

    def test_quadrature_weight_array_is_not_a_field(self):
        nodes, weights = midpoint_rule(-1.0, 1.0, 4)
        a = LpQuadrature(2.0, tuple(nodes), tuple(weights))
        b = LpQuadrature(2.0, tuple(nodes), tuple(weights))
        assert a == b and hash(a) == hash(b)
        assert "weight_array" not in repr(a)
        assert np.array_equal(a.weight_array, weights)
        assert not a.weight_array.flags.writeable

    def test_ell2_takes_a_scaled_form_only_where_the_sum_overflows(self):
        rng = np.random.default_rng(103)
        for scale in (1.0, 1e-300, 1e-160, 1e150, 1e153):
            a = np.abs(rng.normal(size=(9, 4))) * scale
            plain = np.sqrt(np.add.reduce(a * a, axis=0))
            assert Ell2().of_moduli(a).tobytes() == plain.tobytes()
            assert Ell2().of_moduli(a[:, 0]).tobytes() == plain[0].tobytes()
        # an overflowing column, a zero one, an infinite one, an in-range one
        a = np.array([[3e300, 0.0, np.inf, 3.0], [4e300, 0.0, 1.0, 4.0]])
        with np.errstate(over="ignore"):
            norms = Ell2().of_moduli(a)
            single = Ell2().of_moduli(a[:, 0])
        assert norms.tolist() == [5e300, 0.0, np.inf, 5.0] and float(single) == 5e300

    def test_grid_weight_array_is_not_a_field(self):
        nodes = (-1.0, -0.25, 0.5, 1.0)
        a, b = GridSup(nodes), GridSup(nodes)
        assert a == b and hash(a) == hash(b)
        assert "weight_array" not in repr(a)
        assert np.array_equal(a.weight_array, trapezoid_weights(nodes))
        assert not a.weight_array.flags.writeable


class TestConeDistance:
    def test_real_residual_equals_its_complex_cast_bit_for_bit(self):
        # max(-M, 0) for a real M is hypot((re M)^-, 0) exactly: signed zeros,
        # infinities and NaNs (of either sign) included
        M = np.array(
            [
                [-0.0, 0.0, 1.5, -2.5, 5e-324],
                [np.inf, -np.inf, np.nan, -np.nan, -5e-324],
                [1e308, -1e308, -1e-300, 3.0, -7.25],
            ]
        )
        for A in (M, M[1], M[:, ::2]):
            real, cast = cone_residual(A), cone_residual(A.astype(complex))
            assert real.dtype == cast.dtype == np.float64
            assert np.array_equal(real.view(np.uint64), cast.view(np.uint64))

    def test_positive_vector_is_at_distance_zero(self):
        for norm in NORMS:
            assert cone_distance(vec([1, 2, 0], norm)) == 0.0

    def test_negative_real_scalar(self):
        # d_+((-1)) = ||-(-1)^- || = 1 in every norm
        for norm in NORMS:
            assert cone_distance(vec([-1], norm)) == pytest.approx(1.0)

    def test_imaginary_scalar(self):
        for norm in NORMS:
            assert cone_distance(vec([1j], norm)) == pytest.approx(1.0)

    def test_formula_value(self):
        # d_+(x) = || -(Re x)^- + i Im x ||
        x = vec([-3 + 4j, 2], Ell2())
        assert cone_distance(x) == pytest.approx(5.0)

    def test_translation_by_positive_part_only(self):
        x = vec([-1, 5], Ell1())
        # the nearest cone point is (Re x)^+ = (0, 5)
        assert cone_distance(x) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0, 1, 2]),
    )
    def test_cone_distance_bounds(self, pairs, which):
        norm = NORMS[which]
        z = np.array([complex(a, b) for a, b in pairs])
        x = LatticeVector(z, norm)
        d = cone_distance(x)
        assert 0.0 <= d <= norm_value(x) + 1e-12
        # distance to the specific cone point (Re x)^+ is an upper bound that
        # the formula must attain
        ref = norm_value(LatticeVector(z - np.maximum(z.real, 0.0), norm))
        assert d == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0, 1, 2]),
    )
    def test_formula_matches_oracle(self, pairs, which):
        norm = NORMS[which]
        z = np.array([complex(a, b) for a, b in pairs])
        x = LatticeVector(z, norm)
        resolution = 1e-3
        d = cone_distance(x)
        d_oracle = cone_distance_oracle(x, resolution)
        assert d <= d_oracle + 1e-12
        assert d_oracle - d <= len(z) * resolution

    @pytest.mark.parametrize("dim", [1, 3, 7, 40])
    def test_columns_kernel_matches_single_vectors(self, dim):
        # one kernel for a vector and for the columns of a matrix, in every
        # norm kind. numpy sums a lone vector pairwise from 8 entries on and a
        # block of columns row by row, so the summing norms agree bitwise
        # below 8 entries and to rounding above; maxima agree at any size
        rng = np.random.default_rng(dim)
        M = rng.normal(size=(dim, 9)) + 1j * rng.normal(size=(dim, 9))
        M[:, 0] = np.abs(M[:, 0])  # a column on the cone
        nodes, weights = midpoint_rule(0.0, 1.0, dim)
        norms = [*NORMS, LpQuadrature(1.5, tuple(nodes), tuple(weights)), GridSup(tuple(nodes))]
        for norm in norms:
            columns = cone_distances(M, norm)
            singles = np.array([cone_distance(LatticeVector(c, norm)) for c in M.T])
            assert columns.shape == (9,) and columns[0] == 0.0
            if dim < 8 or isinstance(norm, (EllInf, GridSup)):
                assert np.array_equal(columns, singles), norm
            else:
                np.testing.assert_allclose(columns, singles, rtol=1e-13)
            assert np.array_equal(cone_distances(M[:, 3], norm), singles[3])

    def test_scaling_homogeneity(self):
        x = vec([-1 + 2j, 3 - 1j], Ell2())
        assert cone_distance(LatticeVector(2 * x.entries, x.norm)) == pytest.approx(
            2 * cone_distance(x)
        )


class TestQuadratureHelpers:
    def test_midpoint_rule_integrates_linear_exactly(self):
        nodes, weights = midpoint_rule(-1.0, 1.0, 50)
        assert np.sum(weights) == pytest.approx(2.0)
        assert np.sum(weights * nodes) == pytest.approx(0.0, abs=1e-14)

    def test_trapezoid_weights_sum_to_length(self):
        nodes = np.linspace(-1, 1, 201)
        w = trapezoid_weights(nodes)
        assert np.sum(w) == pytest.approx(2.0)
