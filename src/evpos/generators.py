"""Seeded matrix-instance generators: eventually positive constructions with
known positivity thresholds, positive random ensembles, and cyclic-block
matrices with prescribed peripheral spectrum."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lattice import Ell2, NormKind
from .operators import Dense
from .record import Record
from .rng import rng_for

DIM_CAP = 64


class GeneratorError(ValueError):
    pass


class EventuallyPositiveInstance(Record):
    model: Dense
    projection: np.ndarray  # the strictly positive rank-1 limit of the powers
    perron_vector: np.ndarray
    n0_bound: int
    gap: float
    seed: int


def make_eventually_positive(
    dim: int, gap: float = 0.5, seed: int = 0, norm: Optional[NormKind] = None
) -> EventuallyPositiveInstance:
    """A = P + Q with P = v w^T / (w^T v) strictly positive rank-1 and Q a
    commuting perturbation supported on the complementary invariant subspace
    with ||Q||_2 = 1 - gap. Then A^n = P + Q^n -> P entrywise, so A is
    uniformly eventually positive with spr = 1 and the analytic threshold
    n0 <= ceil(log(min P) / log(1 - gap))."""
    if dim < 2:
        raise GeneratorError("dimension must be at least 2")
    if dim > DIM_CAP:
        raise GeneratorError(f"dimension {dim} exceeds the cap {DIM_CAP}")
    if not (0.0 < gap < 1.0):
        raise GeneratorError("gap must lie in (0, 1)")
    if norm is None:
        norm = Ell2()
    rng = rng_for(seed, 0)
    v = rng.uniform(0.5, 1.5, size=dim)
    w = rng.uniform(0.5, 1.5, size=dim)
    P = np.outer(v, w) / float(w @ v)
    # a basis of the complement of span{v} that is also inside ker(w^T .)
    # would over-constrain; instead build Q inside ker(P) ∩ range(I - P):
    # any Q = (I-P) B (I-P) commutes with P to zero on both sides. With a
    # Gaussian B, Q = 0 has probability 0; its NaN scaling would fail Dense.
    proj = np.eye(dim) - P
    B = rng.normal(size=(dim, dim))
    Q = proj @ B @ proj
    Q = Q * ((1.0 - gap) / np.linalg.norm(Q, 2))
    A = P + Q
    # v and w lie in [0.5, 1.5), so P is positive in every entry, and
    # entries of Q^n are bounded by ||Q^n||_2 <= (1-gap)^n, so every
    # power beyond log(min P)/log(1-gap) is entrywise nonnegative
    min_p = float(np.min(P))
    n0 = max(int(np.ceil(np.log(min_p) / np.log(1.0 - gap))), 1)
    return EventuallyPositiveInstance(
        model=Dense(A.astype(complex), norm),
        projection=P,
        perron_vector=v / np.linalg.norm(v),
        n0_bound=n0,
        gap=gap,
        seed=seed,
    )


def positive_random(dim: int, seed: int = 0, norm: Optional[NormKind] = None) -> Dense:
    """Strictly positive entries in [0.1, 1.1)."""
    if not (1 <= dim <= DIM_CAP):
        raise GeneratorError(f"dimension must be in 1..{DIM_CAP}")
    rng = rng_for(seed, 1)
    A = rng.uniform(0.1, 1.1, size=(dim, dim))
    return Dense(A.astype(complex), norm or Ell2())


def cyclic_block(
    k: int, inner_dim: int, seed: int = 0, norm: Optional[NormKind] = None
) -> Dense:
    """kron(C_k, B) for the k-cycle permutation C_k and a strictly positive
    primitive block B: the peripheral spectrum is spr * (k-th roots of
    unity)."""
    if k < 1:
        raise GeneratorError("cycle length must be positive")
    if k * inner_dim > DIM_CAP:
        raise GeneratorError(f"total dimension {k * inner_dim} exceeds {DIM_CAP}")
    C = np.roll(np.eye(k), 1, axis=0)
    B = positive_random(inner_dim, seed, norm).matrix.real
    A = np.kron(C, B)
    return Dense(A.astype(complex), norm or Ell2())
