import numpy as np
import pytest

from evpos.rng import rng_for
from evpos.spectral import (
    SingularResolventError,
    SpectralError,
    eigenvalues,
    geometric_multiplicity,
    laurent_leading_coefficient,
    nilpotent_spectrum,
    resolvent_matrix,
)


def rotation(theta):
    return np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )


class TestEigenvalues:
    def test_rotation_matrix(self):
        spec = eigenvalues(rotation(np.pi / 3))
        got = sorted(spec.eigenvalues, key=lambda z: z.imag)
        assert got[0] == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-12)
        assert got[1] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-12)
        assert spec.spectral_radius == pytest.approx(1.0)

    def test_cycle_gives_roots_of_unity(self):
        k = 5
        C = np.roll(np.eye(k), 1, axis=0)
        spec = eigenvalues(C)
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        for r in roots:
            assert np.min(np.abs(spec.eigenvalues - r)) < 1e-10

    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(6, 6))
        S = rng.normal(size=(6, 6)) + np.eye(6) * 3
        B = np.linalg.solve(S, A @ S)
        ea = eigenvalues(A).eigenvalues
        eb = eigenvalues(B).eigenvalues
        for lam in ea:
            assert np.min(np.abs(eb - lam)) < 1e-7

    def test_no_dimension_cap(self):
        # the cap of 128 is gone: the identity of 129 is one semisimple
        # eigenvalue 1 of multiplicity 129
        spec = eigenvalues(np.eye(129))
        assert spec.spectral_radius == 1.0
        assert spec.clusters == ((tuple(range(129)), 1, 0.0),)
        assert spec.peripheral_indices.tolist() == [0]
        assert (spec.pole_orders, spec.multiplicities, spec.spreads) == ((1,), (129,), (0.0,))


class TestResolvent:
    def test_identity_on_diagonal(self):
        A = np.diag([1.0, 0.5j])
        R = resolvent_matrix(A, 2.0)
        assert np.allclose(R, np.diag([1.0, 1.0 / (2.0 - 0.5j)]))

    def test_neumann_series_cross_check(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        spr = eigenvalues(A).spectral_radius
        lam = 2.5 * spr * np.exp(0.3j)
        R = resolvent_matrix(A, lam)
        # sum_{n} A^n / lam^{n+1}
        S = np.zeros_like(A)
        P = np.eye(5, dtype=complex)
        for n in range(200):
            S = S + P / lam ** (n + 1)
            P = P @ A
        assert np.max(np.abs(R - S)) < 1e-8

    def test_resolvent_identity(self):
        # R(a) - R(b) = (b - a) R(a) R(b)
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))
        a, b = 5.0 + 1j, 7.0 - 2j
        Ra, Rb = resolvent_matrix(A, a), resolvent_matrix(A, b)
        assert np.allclose(Ra - Rb, (b - a) * Ra @ Rb, atol=1e-10)

    def test_singular_point_raises(self):
        with pytest.raises(SingularResolventError):
            resolvent_matrix(np.diag([1.0, 2.0]), 2.0)

    def test_near_singular_point_raises(self):
        # lam - A = diag(1 + 2^-49, 2^-49) is invertible, but its condition
        # number 2^49 is past 1e14
        with pytest.raises(SingularResolventError):
            resolvent_matrix(np.diag([1.0, 2.0]), 2.0 * (1 + 2.0**-50))


def _peripheral(A) -> tuple:
    spec = eigenvalues(A)
    return spec, spec.peripheral_eigenvalues, spec.pole_orders, spec.multiplicities


class TestPoleOrder:
    """The peripheral eigenvalues of a spectrum with the pole order,
    algebraic multiplicity and spread of each, read off its cluster by
    index."""

    def test_simple_pole(self):
        _, lams, orders, mults = _peripheral(np.diag([1.0, 0.5]))
        assert (lams.tolist(), orders, mults) == ([1.0], (1,), (1,))

    def test_jordan_block_order_two(self):
        spec, lams, orders, mults = _peripheral(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert (lams.tolist(), orders, mults, spec.spreads) == ([1.0], (2,), (2,), (0.0,))

    def test_jordan_block_plus_simple(self):
        # J_2(1) + separate eigenvalue 1: largest block still 2
        A = np.zeros((3, 3))
        A[:2, :2] = [[1, 1], [0, 1]]
        A[2, 2] = 1.0
        _, lams, orders, mults = _peripheral(A)
        assert (lams.tolist(), orders, mults) == ([1.0], (2,), (3,))

    def test_split_jordan_chain_is_one_cluster(self):
        # the solver splits the triple eigenvalue of S^-1 J_3(1) S; the
        # rounding-level null count of (lam - A)^k grows 1, 2, 3
        S = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        J = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        spec, lams, orders, mults = _peripheral(np.linalg.solve(S, J @ S))
        assert [c[:2] for c in spec.clusters] == [((0, 1, 2), 3)]
        assert len(set(spec.eigenvalues)) == 1
        assert spec.peripheral_indices.tolist() == [0]
        assert abs(lams[0] - 1.0) < 1e-12 and orders == (3,) and mults == (3,)
        assert 0.0 < spec.spreads[0] < 1e-6

    def test_split_jordan_pair(self):
        # similar to J_2(1); the solver splits it into 1 +- 3e-8, merged at
        # the mean with that spread
        spec, lams, orders, mults = _peripheral(np.array([[0.0, 2.0], [-0.5, 2.0]]))
        assert abs(lams[0] - 1.0) < 1e-12 and orders == (2,) and mults == (2,)
        assert 1e-9 < spec.spreads[0] < 1e-6
        assert spec.scale == 1.0 and spec.order == 2 and spec.top == [0]

    def test_semisimple_cluster_keeps_its_eigenvalues(self):
        # diag(1, 1, -1) with and without an eigenvalue inside the circle
        for tail in ([], [0.5]):
            spec, lams, orders, mults = _peripheral(np.diag([1.0, 1.0, -1.0, *tail]))
            assert spec.clusters == (((0, 1), 1, 0.0),)
            assert spec.peripheral_indices.tolist() == [0, 2]
            assert (lams.tolist(), orders, mults) == ([1.0, -1.0], (1, 1), (2, 1))
            assert spec.spreads == (0.0, 0.0) and spec.scale == 0.5 and spec.top == [0, 1]

    def test_long_cycle(self):
        # every eigenvalue of the 128-cycle is a simple peripheral one
        spec, lams, orders, mults = _peripheral(np.roll(np.eye(128), 1, axis=0))
        assert spec.peripheral_indices.tolist() == list(range(128))
        assert np.array_equal(lams, spec.eigenvalues)
        assert orders == mults == (1,) * 128 and spec.spreads == (0.0,) * 128

    @pytest.mark.parametrize("seed", range(6))
    def test_index_lookup_matches_the_nearest_eigenvalue_lookup(self, seed):
        # the reference: each peripheral eigenvalue's cluster found by value,
        # as the nearest eigenvalue's, over spectra with defective,
        # semisimple and simple peripheral eigenvalues
        rng = rng_for(seed, 25)
        A = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, 0.5, -0.5])
        A[0, 1] = 1.0
        S = np.eye(7) + 0.1 * rng.normal(size=(7, 7))
        p = rng.permutation(7)
        for M in (A[p][:, p], np.linalg.solve(S, A @ S), np.roll(np.eye(5 + seed), 1, axis=0)):
            spec = eigenvalues(M)
            found = [self._nearest_cluster(spec, lam) for lam in spec.peripheral_eigenvalues]
            assert spec.pole_orders == tuple(c[1] for c in found)
            assert spec.multiplicities == tuple(len(c[0]) for c in found)
            assert spec.spreads == tuple(c[2] for c in found)

    @staticmethod
    def _nearest_cluster(spec, lam) -> tuple:
        i = int(np.argmin(np.abs(spec.eigenvalues - lam)))
        return next((c for c in spec.clusters if i in c[0]), ((i,), 1, 0.0))

    def test_each_member_is_kept(self):
        spec = eigenvalues(np.diag([1.0, 1.0, -1.0]))
        for name in ("peripheral_indices", "peripheral_eigenvalues", "pole_orders", "top"):
            assert getattr(spec, name) is getattr(spec, name)
        assert spec.coefficient(1) is spec.coefficient(1)

    def test_zero_spectral_radius(self):
        spec = nilpotent_spectrum(3)
        assert spec.peripheral_eigenvalues.tolist() == [0.0]
        assert (spec.pole_orders, spec.multiplicities) == ((1,), (1,))


class TestLaurent:
    def test_diagonal_projection(self):
        Q = laurent_leading_coefficient(np.diag([1.0, 0.0]), 1.0, 1, 1)
        assert np.allclose(Q, np.diag([1.0, 0.0]), atol=1e-9)

    def test_jordan_nilpotent_part(self):
        # R(r, J_2(1)) = [[1/(r-1), 1/(r-1)^2],[0, 1/(r-1)]] so Q_{-2} = N
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        Q = laurent_leading_coefficient(J, 1.0, 2, 2)
        assert np.allclose(Q, [[0.0, 1.0], [0.0, 0.0]], atol=1e-8)

    def test_positive_matrix_leading_coefficient_is_positive(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        Q = laurent_leading_coefficient(A, 3.0, 1, 1)
        assert np.min(Q.real) > -1e-10
        assert np.max(np.abs(Q.imag)) < 1e-10

    def test_rejects_non_poles(self):
        # 2 is no eigenvalue, and a Jordan block has no projection at order 1
        with pytest.raises(SpectralError):
            laurent_leading_coefficient(np.diag([-1.0]), 2.0, 1, 1)
        with pytest.raises(SpectralError):
            laurent_leading_coefficient(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0, 1, 2)

    def test_is_the_spectral_projection(self):
        # at a simple pole Q_{-1} = v w^H / (w^H v); exact up to rounding, so
        # far inside the 1e-10 that an extrapolation of resolvents reaches
        A = rng_for(4, 0).uniform(0.0, 1.0, size=(6, 6))
        vals, vecs = np.linalg.eig(A)
        k = int(np.argmax(np.abs(vals)))
        lam0, v = float(vals[k].real), vecs[:, k]
        adj_vals, adj_vecs = np.linalg.eig(A.T)
        w = adj_vecs[:, int(np.argmin(np.abs(adj_vals - lam0)))]
        Q = laurent_leading_coefficient(A, lam0, 1, 1)
        assert np.max(np.abs(Q - np.outer(v, w.conj()) / (w.conj() @ v))) < 1e-12
        assert np.max(np.abs(laurent_leading_coefficient(A.T, lam0, 1, 1) - Q.conj().T)) < 1e-12
        # (r - lam0) R(r) -> Q_{-1} at the rate r - lam0
        errors = [
            np.max(np.abs(2.0**-j * lam0 * resolvent_matrix(A, lam0 * (1 + 2.0**-j)) - Q))
            for j in (6, 10, 14)
        ]
        assert errors[2] < errors[1] / 10 < errors[0] / 100
        assert errors[2] < 1e-3


class TestMultiplicityAndPeriphery:
    def test_geometric_multiplicity(self):
        assert geometric_multiplicity(eigenvalues(np.eye(3)), 1.0) == 3
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert geometric_multiplicity(eigenvalues(J), 1.0) == 1

    def test_peripheral_spectrum_deduplicates(self):
        spec = eigenvalues(np.diag([1.0, 1.0, -1.0, 0.5]))
        periph = np.sort_complex(spec.peripheral_eigenvalues)
        assert len(periph) == 2
        assert np.allclose(periph, [-1.0, 1.0], atol=1e-10)

    def test_zero_matrix(self):
        spec = eigenvalues(np.zeros((2, 2)))
        assert list(spec.peripheral_eigenvalues) == [0.0]
