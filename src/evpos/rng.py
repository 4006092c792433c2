"""Deterministic randomness: Philox counter-based streams keyed by
(seed, substream index), reproducible across platforms."""

from __future__ import annotations

import numpy as np

GENERATOR_NAME = "philox4x64"


def rng_for(seed: int, index: int = 0) -> np.random.Generator:
    # an exact uint64 key: a plain list of ints >= 2**63 would become float64
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
