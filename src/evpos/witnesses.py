"""Analytic negativity witnesses for rank-k functional operators.

Fixed grids eventually miss the shrinking region where a power of a rank-2
operator goes negative, so refutations are computed from the closed-form
power sum a*f1 + lambda^(n-1)*b*f2 instead of by grid scanning; a bump that
meets one functional alone has the single power term lambda^(n-1)*b*f.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .lattice import GridSup, LatticeVector
from .operators import OperatorError, RankK, SignedPower
from .record import Record


class NegativityWitness(Record):
    """A concrete violation: a positive input, a point, and the attained value."""

    n: int
    point: float
    value: float
    input_description: str


def _hat_pairings(T: RankK, peak: float, width: float):
    """Exact pairings <phi_i, g> for the hat at `peak` (`hat_pairing`)."""
    return np.asarray([phi.hat_pairing(peak, width) for phi in T.functionals], dtype=complex)


def hat_witness(T: RankK, peak: float, n: int, eps: float) -> Optional[NegativityWitness]:
    """Uniform-positivity violation of T^n on a sup-norm space via a hat of
    width eps concentrated at the point-functional node `peak`, eps = 0
    giving the limit as the width shrinks: the node where the real part of
    T^n of the hat is least, and that real part; None if the hat touches
    another functional point or no real part is negative."""
    try:
        b = _hat_pairings(T, peak, eps)
    except OperatorError:
        return None
    values = T.samples @ (b * T.eigen_parameters ** (n - 1))
    idx = int(np.argmin(values.real))
    value = float(values.real[idx])
    if value >= 0:
        return None
    return NegativityWitness(
        n=n,
        point=float(T.space.nodes[idx]),
        value=value,
        input_description=f"hat(peak={peak}, width={eps})",
    )


def _hat_peaks(T: RankK):
    """The point-functional nodes of a rank-2 model on a sup-norm grid."""
    if not isinstance(T.space, GridSup) or T.rank != 2:
        return []
    return [float(p) for phi in T.functionals for p in phi.points]


def hat_family_witness(T: RankK, n: int, eps: float) -> Optional[NegativityWitness]:
    """The most negative `hat_witness` of T^n over the peaks, or None."""
    witnesses = [w for peak in _hat_peaks(T) if (w := hat_witness(T, peak, n, eps)) is not None]
    return min(witnesses, key=lambda w: w.value, default=None)


def hat_limit_witnesses(T: RankK) -> Optional[tuple]:
    """A witness that T^n of a narrow enough hat is off the positive cone at
    every power n, read from the limit as the width goes to 0; None when
    that limit does not decide. Decided per peak: the integral pairings of
    a hat vanish in the limit, so where the peak meets one functional phi_i
    alone, T^n of the hat tends to c_n f_i with c_n = lam_i^(n-1) b_i != 0.
    When the samples of f_i are real and take both signs, no nonzero
    multiple of them is on the cone; when lam_i > 0, c_n keeps the phase of
    b_i, so a negative real part at n = 1 stays at every power. Either way
    the width-0 witness at n = 1, or at n = 2 where c_1 f_i has no negative
    real part, refutes. A peak that meets several functionals is skipped,
    as the signs of a sum of powers at the first powers do not settle the
    rest."""
    lam = T.eigen_parameters
    for peak in _hat_peaks(T):
        try:
            live = np.flatnonzero(_hat_pairings(T, peak, 0.0))
        except OperatorError:
            continue
        if len(live) != 1 or lam[live[0]] == 0:
            continue
        f = T.samples[:, live[0]]
        both_signs = not f.imag.any() and f.real.min() < 0 < f.real.max()
        if not (both_signs or (lam[live[0]].imag == 0 and lam[live[0]].real > 0)):
            continue
        for n in (1, 2):
            witness = hat_witness(T, peak, n, 0.0)
            if witness is not None:
                return (witness,)
    return None


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


class FaceWitness(Record):
    """The bump x = e_bump, on which every functional but phi_i vanishes,
    so T^n x = lam_i^(n-1) b f_i exactly; its value at node `node`, which
    is also <delta_node, T^n x>, is `value` < 0 at power n, and negative
    again every `period` powers."""

    bump: int
    node: int
    n: int
    period: int
    value: float


def face_witness(T: RankK) -> Optional[FaceWitness]:
    """The first bump, by node, that refutes from a face of the cone, or
    None. The bump at node j is e_j, the grid vector of the hat at t_j. A
    functional is dead on it when its row is 0 at j and both neighbours,
    the hat's support, so it vanishes on the hat of the continuum too. With
    exactly one live phi_i, and real lam_i != 0, b = row_i[j] and f_i,
    T^n e_j = lam_i^(n-1) b f_i is negative somewhere at every power when
    b f_i is negative at a node, and at every other power when lam_i < 0:
    the individual notion fails, and, paired with a point mass at that
    node, the weak one."""
    lam, rows = T.eigen_parameters, T.rows
    nonzero = rows != 0
    # a functional live at every node meets every bump, so only it can be
    # alone on one
    full = np.flatnonzero(nonzero.all(axis=1))
    if len(full) > 1:
        return None
    alone, best = None, None
    for i in full if len(full) else range(T.rank):
        f, b = T.samples[:, i], rows[i]
        if lam[i] == 0 or lam[i].imag or f.imag.any():
            continue
        for sign in (1.0, -1.0):
            g = sign * f.real
            if g.min() < 0:
                node, n = int(np.argmin(g)), 1
            elif lam[i].real < 0 and g.max() > 0:
                node, n = int(np.argmax(g)), 2
            else:
                continue
            signed = nonzero[i] & (b.imag == 0) & (sign * b.real > 0)
            if not signed.any():
                continue
            if alone is None:
                live = nonzero.copy()
                live[:, 1:] |= nonzero[:, :-1]
                live[:, :-1] |= nonzero[:, 1:]
                alone = live.sum(axis=0) == 1
            bumps = np.flatnonzero(alone & signed)
            if not bumps.size or (best is not None and bumps[0] >= best.bump):
                continue
            period = 1 if lam[i].real > 0 else 2
            value = float(lam[i].real ** (n - 1) * b[bumps[0]].real * f[node].real)
            best = FaceWitness(int(bumps[0]), node, n, period, value)
    return best
