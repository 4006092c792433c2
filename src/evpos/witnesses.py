"""Analytic negativity witnesses for rank-2 functional operators.

Fixed grids eventually miss the shrinking region where a power of a rank-2
operator goes negative, so refutations are computed from the closed-form
power sum a*f1 + lambda^(n-1)*b*f2 instead of by grid scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import GridSup, LatticeVector
from .operators import (
    Constant,
    OperatorError,
    PointCombination,
    RankK,
    SignedPower,
    WeightedIntegral,
)


@dataclass(frozen=True)
class NegativityWitness:
    """A concrete violation: a positive input, a point, and the attained value."""

    n: int
    point: float
    value: float
    input_description: str


def _hat_pairings(T: RankK, peak: float, width: float):
    """Exact pairings <phi_i, g> for the hat at `peak`, valid while the hat's
    support stays clear of the other point-evaluation nodes."""
    coeffs = []
    for phi in T.functionals:
        if isinstance(phi, WeightedIntegral):
            if not isinstance(phi.weight, Constant):
                raise OperatorError("hat witness requires a constant integral weight")
            coeffs.append(phi.scale * phi.weight.value * width / 2.0)
        elif isinstance(phi, PointCombination):
            total = 0.0 + 0j
            for p, c in zip(phi.points, phi.coefficients):
                if abs(p - peak) < 1e-12:
                    total += c
                elif abs(p - peak) < width:
                    raise OperatorError("hat support touches a functional point")
            coeffs.append(total)
        else:
            raise OperatorError(f"unsupported functional {phi!r} for hat witness")
    return np.asarray(coeffs, dtype=complex)


def hat_family_witness(
    T: RankK, n: int, eps: Optional[float] = None
) -> Optional[NegativityWitness]:
    """Uniform-positivity violation of T^n on a sup-norm space via a shrinking
    hat concentrated at a point-functional node; None if the model does not
    have the required structure or no violation is found."""
    if not isinstance(T.space, GridSup) or T.rank != 2:
        return None
    if eps is None:
        eps = 2.0 ** -(n + 1)
    nodes = np.asarray(T.space.nodes, dtype=float)
    lam = T.eigen_parameters
    point_functionals = [
        phi for phi in T.functionals if isinstance(phi, PointCombination)
    ]
    if not point_functionals:
        return None
    best = None
    for phi in point_functionals:
        for peak in phi.points:
            try:
                b = _hat_pairings(T, float(peak), eps)
            except OperatorError:
                continue
            values = T.samples @ (b * lam ** (n - 1))
            if np.max(np.abs(values.imag)) > 1e-12 * max(1.0, np.max(np.abs(values))):
                continue
            idx = int(np.argmin(values.real))
            value = float(values.real[idx])
            if value < 0 and (best is None or value < best.value):
                best = NegativityWitness(
                    n=n,
                    point=float(nodes[idx]),
                    value=value,
                    input_description=f"hat(peak={float(peak)}, width={eps})",
                )
    return best


def signed_power_witness(
    T: RankK, g: LatticeVector, n: int
) -> Optional[NegativityWitness]:
    """Individual-positivity violation of T^n g for a rank-2 model whose second
    function is an unbounded signed power: the analytic point where the
    singular term drives the real part to -a < 0."""
    if T.rank != 2:
        return None
    f2 = T.functions[1]
    if not isinstance(f2, SignedPower) or f2.exponent >= 0:
        return None
    a_coef, b_coef = T.coefficients(g.entries)
    lam2 = T.eigen_parameters[1]
    if abs(a_coef.imag) > 1e-12 or abs(b_coef.imag) > 1e-12:
        return None
    a = a_coef.real
    scaled_b = (lam2 ** (n - 1) * b_coef).real
    if a <= 0 or scaled_b == 0.0:
        return None
    # solve |scaled_b| * |x|^alpha = 2a; the sign of x is chosen so that the
    # singular term is negative there
    alpha = f2.exponent
    magnitude = (abs(scaled_b) / (2.0 * a)) ** (-1.0 / alpha)
    side = -np.sign(scaled_b)
    point = side * magnitude
    value = a + scaled_b * np.sign(point) * abs(point) ** alpha
    if value >= 0:
        return None
    return NegativityWitness(
        n=n,
        point=float(point),
        value=float(value),
        input_description="analytic singular point of the signed-power term",
    )
