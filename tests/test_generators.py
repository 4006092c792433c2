import warnings

import numpy as np
import pytest

from evpos.classify import Confirmed, uniform_eventual
from evpos.generators import (
    GeneratorError,
    cyclic_block,
    make_eventually_positive,
    positive_random,
)
from evpos.lattice import Ell2
from evpos.rng import rng_for
from evpos.spectral import eigenvalues
from evpos.verify import positive_eigenvector


class TestMakeEventuallyPositive:
    def test_determinism(self):
        a = make_eventually_positive(5, 0.4, 12)
        b = make_eventually_positive(5, 0.4, 12)
        assert np.array_equal(a.model.matrix, b.model.matrix)

    def test_spectral_radius_is_one(self):
        for seed in range(10):
            inst = make_eventually_positive(2 + seed % 6, 0.5, seed)
            spr = eigenvalues(inst.model.matrix).spectral_radius
            assert spr == pytest.approx(1.0, abs=1e-8)

    def test_projection_structure(self):
        inst = make_eventually_positive(4, 0.5, 3)
        P = inst.projection
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.min(P) > 0

    def test_classifier_confirms_within_bound(self):
        inst = make_eventually_positive(6, 0.5, 7)
        v = uniform_eventual(inst.model)
        assert isinstance(v.status, Confirmed)
        assert v.status.n0 <= inst.n0_bound

    def test_perron_vector_matches_projection_range(self):
        inst = make_eventually_positive(5, 0.5, 2)
        spec = eigenvalues(inst.model.matrix)
        result = positive_eigenvector(spec, Ell2())
        v = result.primal.entries.real
        ref = inst.perron_vector
        cos = abs(v @ ref) / (np.linalg.norm(v) * np.linalg.norm(ref))
        assert cos == pytest.approx(1.0, abs=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(GeneratorError):
            make_eventually_positive(1, 0.5, 0)
        with pytest.raises(GeneratorError):
            make_eventually_positive(4, 1.5, 0)
        with pytest.raises(GeneratorError):
            make_eventually_positive(65, 0.5, 0)


class TestPositiveRandom:
    def test_entries_strictly_positive(self):
        T = positive_random(8, 3)
        assert np.min(T.matrix.real) > 0
        assert np.max(np.abs(T.matrix.imag)) == 0

    def test_seeded(self):
        assert np.array_equal(positive_random(4, 9).matrix, positive_random(4, 9).matrix)


class TestCyclicBlock:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_peripheral_spectrum_is_roots_of_unity(self, k):
        T = cyclic_block(k, 2, seed=1)
        spec = eigenvalues(T.matrix)
        periph = spec.peripheral_eigenvalues
        assert len(periph) == k
        roots = spec.spectral_radius * np.exp(2j * np.pi * np.arange(k) / k)
        for r in roots:
            assert np.min(np.abs(periph - r)) < 1e-8

    def test_dimension_cap(self):
        with pytest.raises(GeneratorError):
            cyclic_block(10, 10, seed=0)


def test_rng_keys_are_exact():
    # negative seeds used to collide after a lossy float64 key conversion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = [rng_for(seed).random() for seed in (-1, -2, 2**63, 2**63 + 1)]
    assert len(set(first)) == 4
    # seeds in [0, 2**63) keep their streams
    assert rng_for(5).random() == 0.7337459554446363
    assert rng_for(5, 3).random() == 0.7515727286058772
