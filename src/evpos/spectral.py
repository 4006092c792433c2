"""Complex-matrix spectral computations: eigenvalues, resolvents, Laurent
coefficients at resolvent poles (exact, from the spectral projection),
multiplicities, and the peripheral decomposition that the asymptotic rule and
the Perron-Frobenius checks share."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

DIM_CAP = 128
DEFAULT_TOL = 1e-8


class SpectralError(RuntimeError):
    pass


class SingularResolventError(SpectralError):
    def __init__(self, lam: complex):
        super().__init__(f"resolvent is singular (or nearly so) at lambda = {lam}")
        self.lam = lam


class NotAnEigenvalueError(SpectralError):
    pass


@dataclass(frozen=True)
class Spectrum:
    """A matrix A (read-only) with its eigenvalues, its spectral radius and
    ||A||_2, which the solver's trace check takes and the rank thresholds
    reuse: everything a Perron-Frobenius check reads."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    spectral_radius: float
    matrix_norm: float
    solver_tolerance: float = DEFAULT_TOL

    @cached_property
    def peripheral(self) -> PeripheralDecomposition:
        """Solved on first use and kept, for the asymptotic rule and the
        checks."""
        lams = peripheral_spectrum(self)
        return PeripheralDecomposition(
            self.matrix,
            float(np.ldexp(1.0, -int(np.frexp(self.spectral_radius)[1]))),
            lams,
            tuple(pole_order(self, lam) for lam in lams),
        )


@dataclass(frozen=True)
class PeripheralDecomposition:
    """The peripheral eigenvalues lam_k of A, in the order of
    `peripheral_spectrum`, with their resolvent pole orders m_k and, on first
    use, the leading Laurent coefficient C_k = (B - c lam_k)^(m-1) P_k of
    B = c A at c lam_k for each lam_k of the top order m = max m_k, P_k the
    spectral projection (C_k = P_k when every m_k is 1). c = 2^-e, e the
    binary exponent of spr, so B is exact and in range at any scale of A,
    and C_k is (A - lam_k)^(m-1) P_k times c^(m-1). Lower orders add no
    n^(m-1) term to the powers of A and get no coefficient."""

    matrix: np.ndarray
    scale: float
    eigenvalues: np.ndarray
    pole_orders: tuple

    @property
    def order(self) -> int:
        return max(self.pole_orders)

    @cached_property
    def coefficients(self) -> dict:
        """k -> C_k for each lam_k of the top order."""
        m, c = self.order, self.scale
        B = c * self.matrix
        return {
            k: laurent_leading_coefficient(B, c * lam, m)
            for k, (lam, mk) in enumerate(zip(self.eigenvalues, self.pole_orders))
            if mk == m
        }


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise SpectralError("expected a nonempty square matrix")
    if A.shape[0] > DIM_CAP:
        raise SpectralError(f"dimension {A.shape[0]} exceeds the cap {DIM_CAP}")
    return A


def eigenvalues(A, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full spectrum via LAPACK's Hessenberg-reduction + shifted-QR solver,
    cross-checked against the trace. The spectrum keeps A, copied first
    when it is writable, so it stays the matrix that was solved."""
    A = _as_matrix(A)
    if A.flags.writeable:
        A = A.copy()
        A.setflags(write=False)
    n = A.shape[0]
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigenvalue iteration did not converge: {exc}") from exc
    scale = np.linalg.norm(A, 2)
    if abs(np.sum(vals) - np.trace(A)) > max(n * tol * scale, n * 1e-12):
        raise SpectralError("eigenvalue sum does not match the trace")
    spr = float(np.max(np.abs(vals)))
    return Spectrum(A, vals, spr, float(scale), tol)


def resolvent_matrix(A, lam: complex) -> np.ndarray:
    """(lam - A)^{-1} by partial-pivot elimination; raises on near-singularity."""
    A = _as_matrix(A)
    M = lam * np.eye(A.shape[0]) - A
    lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < 1e-14 * max(np.max(np.abs(M)), 1e-300):
        raise SingularResolventError(lam)
    return scipy.linalg.lu_solve((lu, piv), np.eye(A.shape[0], dtype=complex), check_finite=False)


def _numeric_rank(s: np.ndarray, tol: float) -> int:
    """How many of the singular values s, largest first, exceed tol * s[0]."""
    return int(np.sum(s > tol * s[0])) if s[0] > 0 else 0


def pole_order(spec: Spectrum, lam0: complex, tol: float = DEFAULT_TOL) -> int:
    """Largest Jordan block size at lam0: the first k at which the numeric rank
    of (lam0 - A)^k stops decreasing, A the spectrum's matrix. lam0 must lie
    in the spectrum."""
    if np.min(np.abs(spec.eigenvalues - lam0)) > max(tol, 1e-6) * max(spec.matrix_norm, 1.0):
        raise NotAnEigenvalueError(f"{lam0} is not a spectral value")
    n = spec.matrix.shape[0]
    B = lam0 * np.eye(n) - spec.matrix
    # ||B||_2 <= |lam0| + ||A||_2; the rank test is relative, so any bound
    # that keeps the powers in range will do
    scale = abs(lam0) + spec.matrix_norm
    if scale > 0:
        B = B / scale
    prev_rank = _numeric_rank(np.linalg.svd(B, compute_uv=False), tol)
    power = B
    for k in range(1, n + 1):
        power = power @ B
        rank = _numeric_rank(np.linalg.svd(power, compute_uv=False), tol)
        if rank == prev_rank:
            return k
        prev_rank = rank
    return n


def laurent_leading_coefficient(A, lam0: complex, m: int) -> np.ndarray:
    """Leading Laurent coefficient Q_{-m} = (A - lam0)^{m-1} P of the
    resolvent at a pole lam0 of order m, where P = V (W^H V)^{-1} W^H is the
    spectral projection: V and W span the right and left null spaces of
    (lam0 - A)^m, read from one SVD. Raises when W^H V is ill-conditioned,
    which happens when lam0 is no eigenvalue or m is below its pole order."""
    A = _as_matrix(A)
    n = A.shape[0]
    B = lam0 * np.eye(n) - A
    U, s, Vh = np.linalg.svd(np.linalg.matrix_power(B, m))
    rank = _numeric_rank(s, DEFAULT_TOL)
    V, W = Vh[rank:].conj().T, U[:, rank:]
    G = W.conj().T @ V
    if rank == n or np.linalg.svd(G, compute_uv=False)[-1] < DEFAULT_TOL:
        raise SpectralError(
            f"no well-conditioned spectral projection at {lam0} for pole order {m}"
        )
    P = V @ np.linalg.solve(G, W.conj().T)
    return np.linalg.matrix_power(-B, m - 1) @ P


def geometric_multiplicity(spec: Spectrum, lam: complex, tol: float = DEFAULT_TOL) -> int:
    """dim ker(lam - A), A the spectrum's matrix: the singular values of
    lam - A below tol * max(||A||_2, 1)."""
    M = lam * np.eye(spec.matrix.shape[0]) - spec.matrix
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s < tol * max(spec.matrix_norm, 1.0)))


def peripheral_spectrum(spec: Spectrum, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of maximal modulus, deduplicated within tol * spr."""
    vals = spec.eigenvalues
    spr = spec.spectral_radius
    if spr == 0.0:
        return np.array([0.0 + 0j])
    selected = vals[np.abs(vals) >= spr * (1.0 - tol)]
    out: list = []
    for v in selected:
        if all(abs(v - u) > tol * spr for u in out):
            out.append(v)
    return np.array(out, dtype=complex)
