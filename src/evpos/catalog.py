"""Built-in catalog of worked examples: exact finite-rank function-space
operators, diagonal/shift truncations, and matrix instances whose positivity
classification and spectral behavior are known in closed form."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .generators import cyclic_block, make_eventually_positive
from .lattice import Ell1, GridSup, LpQuadrature, midpoint_rule
from .operators import (
    Constant,
    Diagonal,
    Monomial,
    OperatorModel,
    PointCombination,
    RankK,
    SignedPower,
    WeightedIntegral,
    WeightedShift,
)
from .record import Record

GRID_NODES = 201
QUADRATURE_CELLS = 400
DIAGONAL_TRUNCATION = 50
SHIFT_TRUNCATION = 30
# other names of catalog entries, each mapped to its entry's name
EXAMPLE_ALIASES = {"ex5.1": "ex3.5a"}


class CatalogEntry(Record):
    """A named model plus its expected classification outcomes; `expected`
    maps notion names to 'confirmed' / 'refuted' / None (not asserted)."""

    name: str
    description: str
    model: OperatorModel
    expected: dict = {}
    spr_in_spectrum: Optional[bool] = None
    notes: str = ""


def averaging_plus_slope(nodes: int = GRID_NODES) -> RankK:
    """Rank-2 operator on a uniform sup-norm grid over [-1, 1]:
    g -> (1/2) int g + (1/4)(g(1) - g(-1)) x. Individually but not uniformly
    eventually positive: shrinking hats at +1 push powers negative near -1."""
    grid = GridSup(tuple(np.linspace(-1.0, 1.0, nodes)))
    return RankK(
        functions=(Constant(1.0), Monomial(1)),
        functionals=(
            WeightedIntegral(Constant(1.0), 0.5),
            PointCombination((1.0, -1.0), (0.25, -0.25)),
        ),
        space=grid,
    )


def averaging_plus_singular(cells: int = QUADRATURE_CELLS, p: float = 2.0) -> RankK:
    """Rank-2 operator on midpoint-quadrature L^p(-1, 1):
    g -> (1/2) int g + c (int sgn * g) sgn(x)|x|^{-1/(2p)} with
    c = (2p - 1)/(8p). Weakly but not individually eventually positive: the
    unbounded singular term is negative on one side arbitrarily close to 0."""
    nodes, weights = midpoint_rule(-1.0, 1.0, cells)
    space = LpQuadrature(p, tuple(nodes), tuple(weights))
    c = (2.0 * p - 1.0) / (8.0 * p)
    return RankK(
        functions=(Constant(1.0), SignedPower(-1.0 / (2.0 * p))),
        functionals=(
            WeightedIntegral(Constant(1.0), 0.5),
            WeightedIntegral(SignedPower(0.0), c),
        ),
        space=space,
    )


def diagonal_drift(n: int = DIAGONAL_TRUNCATION) -> Diagonal:
    """Multiplication by (-1 + 1/j), j = 1..n, on l^1: spectral radius
    (n-1)/n is not a spectral value, and no asymptotic notion holds."""
    symbol = np.array([-1.0 + 1.0 / j for j in range(1, n + 1)], dtype=complex)
    return Diagonal(symbol, Ell1())


def negative_shift(n: int = SHIFT_TRUNCATION) -> WeightedShift:
    """-1 times the right shift, truncated: nilpotent, so all powers beyond
    the dimension vanish (the infinite-dimensional operator is only weakly
    asymptotically positive; that distinction does not survive truncation)."""
    return WeightedShift(tuple(-1.0 for _ in range(n - 1)), Ell1())


def nonreal_diagonal() -> Diagonal:
    """diag(1, i/2): not similar to a real matrix and not eventually
    positive, yet every asymptotic notion holds and spr = 1 is an eigenvalue."""
    return Diagonal(np.array([1.0, 0.5j]), Ell1())


def build_catalog(seed: int = 0) -> tuple:
    entries = [
        CatalogEntry(
            name="ex2.2a",
            description="averaging plus slope on a sup-norm grid",
            model=averaging_plus_slope(),
            expected={
                "uniform-eventual": "refuted",
                "individual-eventual": "confirmed",
                "weak-eventual": "confirmed",
            },
        ),
        CatalogEntry(
            name="ex2.2b",
            description="averaging plus singular signed power on quadrature L^2",
            model=averaging_plus_singular(),
            expected={
                "individual-eventual": "refuted",
                "weak-eventual": "confirmed",
            },
        ),
        CatalogEntry(
            name="ex3.5a",
            description="diagonal drift toward -1 (truncated)",
            model=diagonal_drift(),
            expected={
                "weak-eventual": "refuted",
                "uniform-asymptotic": "refuted",
                "individual-asymptotic": "refuted",
                "weak-asymptotic": "refuted",
            },
            spr_in_spectrum=False,
            notes=(
                "spectral-radius membership fails, and so do all asymptotic "
                "positivity hypotheses: no contradiction"
            ),
        ),
        CatalogEntry(
            name="ex3.5b",
            description="negative right shift (truncated, nilpotent)",
            model=negative_shift(),
            expected={"uniform-eventual": "confirmed"},
            notes="truncation is nilpotent; asymptotic rescaling is undefined",
        ),
        CatalogEntry(
            name="rem3.2b",
            description="diag(1, i/2): non-real but asymptotically positive",
            model=nonreal_diagonal(),
            expected={
                "weak-eventual": "refuted",
                "uniform-asymptotic": "confirmed",
                "individual-asymptotic": "confirmed",
                "weak-asymptotic": "confirmed",
            },
            spr_in_spectrum=True,
        ),
        CatalogEntry(
            name="cyclic-block",
            description="3-cycle permutation tensor a primitive positive block",
            model=cyclic_block(3, 2, seed=seed, norm=Ell1()),
            expected={},
            spr_in_spectrum=True,
            notes="peripheral spectrum is spr times the cube roots of unity",
        ),
        CatalogEntry(
            name="eventually-positive",
            description="seeded rank-1-projection-plus-contraction instance",
            model=make_eventually_positive(4, 0.5, seed, norm=Ell1()).model,
            expected={
                "uniform-eventual": "confirmed",
                "uniform-asymptotic": "confirmed",
            },
            spr_in_spectrum=True,
        ),
    ]
    return tuple(entries)


def get_example(name: str, seed: int = 0) -> CatalogEntry:
    """The catalog entry called name, or the entry that the alias name
    stands for, under the alias."""
    catalog = build_catalog(seed)
    target = EXAMPLE_ALIASES.get(name, name)
    for entry in catalog:
        if entry.name == target:
            return entry.replace(name=name)
    known = ", ".join([e.name for e in catalog] + list(EXAMPLE_ALIASES))
    raise KeyError(f"unknown example {name!r}; known examples: {known}")
