"""Complex-matrix spectral computations: eigenvalues, resolvents, Laurent
coefficients at resolvent poles (exact, from the spectral projection),
multiplicities, and the peripheral part of a `Spectrum`, which the
asymptotic rule and the Perron-Frobenius checks share. A diagonal matrix,
whose spectrum is its entries, and a nilpotent one, whose spectrum is 0,
have theirs in closed form with no solve (`diagonal_spectrum`,
`nilpotent_spectrum`)."""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .record import Record

DEFAULT_TOL = 1e-8
# eigenvalues near the spectral circle and within this multiple of spr of
# each other are tested as one multiple eigenvalue; see `_clusters`
CLUSTER_RADIUS = 2.0**-13


class SpectralError(RuntimeError):
    pass


class SingularResolventError(SpectralError):
    def __init__(self, lam: complex):
        super().__init__(f"resolvent is singular (or nearly so) at lambda = {lam}")
        self.lam = lam


class Spectrum(Record):
    """A matrix A (read-only) with its eigenvalues, its spectral radius and
    ||A||_2, which the solver's trace check takes and the rank thresholds
    reuse, and its peripheral part: everything the asymptotic rule and a
    Perron-Frobenius check read. `clusters` holds, for each multiple
    eigenvalue near the spectral circle, the indices of its eigenvalues, its
    pole order and its spread, the distance of the farthest eigenvalue
    merged into it (`_clusters`); every other eigenvalue counts as simple.
    `symbol` is the diagonal of A when A is diagonal, which its peripheral
    coefficients and geometric multiplicities are then read off. A and
    ||A||_2 are None for a nilpotent spectrum that is known without them
    (`nilpotent_spectrum`): at spr = 0 only the vacuous spr check runs.

    The peripheral part is computed on first use of each member and kept:
    the peripheral eigenvalues lam_k (`peripheral_indices`), and for each
    its resolvent pole order m_k, its algebraic multiplicity (the rank of
    P_k below) and its spread d_k, all read off its cluster (spread 0
    unless lam_k is a merged cluster's mean); and the leading Laurent
    coefficient C_k = (B - c lam_k)^(m_k-1) P_k of B = c A at c lam_k, P_k
    the spectral projection (C_k = P_k when m_k is 1). c = 2^-e, e the
    binary exponent of spr, applied by `scaled`, so B is exact and in range
    at any scale of A, and C_k is (A - lam_k)^(m_k-1) P_k times c^(m_k-1).
    For a diagonal A = diag(symbol) every m_k is 1 and P_k is the indicator
    diag(symbol == lam_k)."""

    matrix: Optional[np.ndarray]
    eigenvalues: np.ndarray
    spectral_radius: float
    matrix_norm: Optional[float]
    clusters: tuple = ()
    symbol: Optional[np.ndarray] = None

    @cached_property
    def peripheral_indices(self) -> np.ndarray:
        """The indices of the eigenvalues of modulus >= spr (1 - DEFAULT_TOL),
        one for each cluster (its first), in order, less each whose
        eigenvalue lies within DEFAULT_TOL * spr of one of larger modulus:
        of two distinct eigenvalues that close only the larger is
        peripheral. At spr = 0 it is the first index, of the eigenvalue 0."""
        vals, spr = self.eigenvalues, self.spectral_radius
        if spr == 0.0:
            return np.array([0])
        mod = np.abs(vals)
        keep = mod >= spr * (1.0 - DEFAULT_TOL)
        keep[[i for c in self.clusters for i in c[0][1:]]] = False
        sel = keep.nonzero()[0]
        v, m = vals[sel], mod[sel]
        close = np.abs(v[:, None] - v[None, :]) <= DEFAULT_TOL * spr
        # row i is beaten by column j of larger modulus, or of equal modulus and first
        beaten = (m[None, :] > m[:, None]) | (
            (m[None, :] == m[:, None]) & (sel[None, :] < sel[:, None])
        )
        return sel[~np.logical_or.reduce(close & beaten, axis=1)]

    @cached_property
    def peripheral_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.peripheral_indices]

    @cached_property
    def _peripheral_clusters(self) -> list:
        """(indices, pole order, spread) of each peripheral eigenvalue's
        cluster, or ((i,), 1, 0.0) for a simple eigenvalue i."""
        home = {i: c for c in self.clusters for i in c[0]}
        return [home.get(i, ((i,), 1, 0.0)) for i in self.peripheral_indices.tolist()]

    @cached_property
    def pole_orders(self) -> tuple:
        return tuple(c[1] for c in self._peripheral_clusters)

    @cached_property
    def multiplicities(self) -> tuple:
        return tuple(len(c[0]) for c in self._peripheral_clusters)

    @cached_property
    def spreads(self) -> tuple:
        return tuple(c[2] for c in self._peripheral_clusters)

    @cached_property
    def scale(self) -> float:
        """c = 2^-e; inf where it overflows a float (spr < 2^-1024)."""
        e = -int(np.frexp(self.spectral_radius)[1])
        return float(np.ldexp(1.0, e)) if e < 1024 else np.inf

    def scaled(self, x):
        """c x, exact while in range: where c overflows, c 2^-1000 (2^1000 x)."""
        if self.scale < np.inf:
            return self.scale * x
        e = -int(np.frexp(self.spectral_radius)[1])
        return float(np.ldexp(1.0, e - 1000)) * (2.0**1000 * x)

    @cached_property
    def order(self) -> int:
        return max(self.pole_orders)

    @cached_property
    def top(self) -> list:
        """The k with m_k = m: only those add an n^(m-1) term to A^n."""
        return [k for k, mk in enumerate(self.pole_orders) if mk == self.order]

    @cached_property
    def _coefficients(self) -> dict:
        return {}

    def coefficient(self, k: int) -> np.ndarray:
        """C_k, computed on first use and kept."""
        if k not in self._coefficients:
            lam = self.peripheral_eigenvalues[k]
            self._coefficients[k] = (
                np.diag((self.symbol == lam).astype(complex))
                if self.symbol is not None
                else laurent_leading_coefficient(
                    self.scaled(self.matrix), self.scaled(lam), self.pole_orders[k],
                    self.multiplicities[k]
                )
            )
        return self._coefficients[k]

    @cached_property
    def coefficient_error(self) -> float:
        """How far the entries of sum_k C_k can move as each lam_k of the
        top order m moves by up to d_k: by the binomial expansion of
        (B - c lam)^(m-1) P_k, at most ((a + c d_k)^(m-1) - a^(m-1))
        ||P_k||_F, a = ||B - c lam_k||_F, summed over k. It is 0 when m = 1
        or no such lam_k was merged, and otherwise costs one projection per
        merged lam_k."""
        m, B = self.order, self.scaled(self.matrix)
        eye = np.eye(B.shape[0])
        err = 0.0
        for k in self.top if m > 1 else ():
            lam, d = self.scaled(self.peripheral_eigenvalues[k]), self.scaled(self.spreads[k])
            if d > 0:
                a = np.linalg.norm(B - lam * eye)
                P = spectral_projection(B, lam, m, self.multiplicities[k])
                err += ((a + d) ** (m - 1) - a ** (m - 1)) * np.linalg.norm(P)
        return float(err)


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise SpectralError("expected a nonempty square matrix")
    return A


def eigenvalues(A) -> Spectrum:
    """Full spectrum via LAPACK's Hessenberg-reduction + shifted-QR solver,
    cross-checked against the trace, with the multiple eigenvalues near the
    spectral circle found and each defective one merged (`_clusters`). The
    spectrum keeps A, copied first when it is writable, so it stays the
    matrix that was solved."""
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
    if abs(np.sum(vals) - np.trace(A)) > max(n * DEFAULT_TOL * scale, n * 1e-12):
        raise SpectralError("eigenvalue sum does not match the trace")
    vals, clusters = _clusters(A, vals, float(scale))
    spr = float(np.max(np.abs(vals)))
    return Spectrum(A, vals, spr, float(scale), clusters)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def diagonal_spectrum(symbol) -> Spectrum:
    """The spectrum of A = diag(symbol), read off its entries with no solve.
    The eigenvalues are a read-only copy of the symbol, in its order, which
    is what `eigenvalues` returns for A; spr and ||A||_2 are the largest
    modulus. A is semisimple, so its clusters are the groups of exactly
    equal entries of modulus >= spr - CLUSTER_RADIUS * spr, each of pole
    order 1 and spread 0."""
    s = _read_only(np.array(symbol, dtype=complex))
    moduli = np.abs(s)
    spr = float(np.maximum.reduce(moduli))
    groups: dict = {}
    if spr > 0.0:
        near = (moduli >= spr - CLUSTER_RADIUS * spr).nonzero()[0].tolist()
        for i, z in zip(near, s[near].tolist()):
            groups.setdefault(z, []).append(i)
    clusters = tuple((tuple(g), 1, 0.0) for g in groups.values() if len(g) > 1)
    return Spectrum(_read_only(np.diag(s)), s, spr, spr, clusters, s)


def nilpotent_spectrum(dim: int) -> Spectrum:
    """The spectrum of a nilpotent dim x dim matrix, which is dim zeros and
    spr = 0 whatever its entries; neither the matrix nor its norm is formed,
    as only a geometric multiplicity at spr > 0 reads the norm."""
    return Spectrum(None, _read_only(np.zeros(dim, dtype=complex)), 0.0, None)


def _clusters(A: np.ndarray, vals: np.ndarray, norm: float) -> tuple:
    """(eigenvalues, clusters): the multiple eigenvalues near the spectral
    circle, as (indices, pole order, spread) triples, with the eigenvalues
    of each defective one replaced by their mean lam and its spread the
    largest distance of one of them from lam (0 for a semisimple one, whose
    eigenvalues are kept). A solver returns an eigenvalue of index m as m
    eigenvalues about (eps kappa)^(1/m) ||A||_2 apart, kappa the condition
    of its Jordan basis, and their mean is accurate to about eps ||A||_2.
    Taking the eigenvalues of modulus >= spr - r, r = CLUSTER_RADIUS * spr,
    largest first, each joins the first group whose leading eigenvalue lies
    within r of it, or starts one. With lam the mean of a group of s,
    B = (lam - A) / (|lam| + ||A||_2) and tau = n eps, the group is one
    eigenvalue of pole order k when the number of rounding-level (<= tau)
    values among the s smallest singular values of B^j grows with each
    j <= k and is s at k, as the kernels of (lam - A)^j grow along Jordan
    chains. A split that rounding cannot explain fails. The mean of two
    distinct eigenvalues d apart with coupling c (the off-diagonal entry of
    their triangular form) gives B a smallest singular value of about
    (d/2)^2 / c, at rounding level only when a perturbation of about
    tau ||A||_2 joins them; a semisimple pair gives two of about d/2, and
    equally spaced semisimple triples one at every power, which does not
    grow. Such a group stays as simple eigenvalues; so does a Jordan block
    whose basis is so ill-conditioned that its split exceeds r or its
    powers miss tau."""
    spr = float(np.max(np.abs(vals)))
    if spr == 0.0:
        return vals, ()
    mod = np.abs(vals)
    radius = CLUSTER_RADIUS * spr
    near = np.flatnonzero(mod >= spr - radius)
    groups: list = []
    for i in near[np.argsort(-mod[near], kind="stable")]:
        home = next((g for g in groups if abs(vals[i] - vals[g[0]]) <= radius), None)
        if home is None:
            groups.append([i])
        else:
            home.append(i)
    n = A.shape[0]
    tau = n * np.finfo(float).eps
    clusters = []
    for g in (sorted(g) for g in groups if len(g) > 1):
        lam = np.mean(vals[g])
        B = (lam * np.eye(n) - A) / (abs(lam) + norm)
        power, null = B, 0
        for k in range(1, len(g) + 1):
            low = np.linalg.svd(power, compute_uv=False)[n - len(g) :]
            if np.sum(low <= tau) <= null:
                break
            null = int(np.sum(low <= tau))
            if null == len(g):
                spread = float(np.max(np.abs(vals[g] - lam))) if k > 1 else 0.0
                clusters.append((tuple(int(i) for i in g), k, spread))
                if k > 1:
                    vals = vals.copy()
                    vals[g] = lam
                break
            power = power @ B
    return vals, tuple(clusters)


def resolvent_matrix(A, lam: complex) -> np.ndarray:
    """(lam - A)^{-1} by partial-pivot LU (`np.linalg.solve`). Raises
    `SingularResolventError` when M = lam - A is singular or nearly so: when
    the factorization meets an exactly zero pivot, or when the condition
    estimate ||M||_inf ||M^{-1}||_inf is not below 1e14."""
    A = _as_matrix(A)
    M = lam * np.eye(A.shape[0]) - A
    try:
        R = np.linalg.solve(M, np.eye(A.shape[0], dtype=complex))
    except np.linalg.LinAlgError:
        raise SingularResolventError(lam) from None
    if not np.linalg.norm(M, np.inf) * np.linalg.norm(R, np.inf) < 1e14:
        raise SingularResolventError(lam)
    return R


def spectral_projection(A, lam0: complex, m: int, multiplicity: int) -> np.ndarray:
    """Spectral projection P = V (W^H V)^{-1} W^H at an eigenvalue lam0 of
    index m and algebraic multiplicity s: V and W span the right and left
    null spaces of (lam0 - A)^m, its s smallest singular vectors from one
    SVD. Raises when one of those s singular values is above
    DEFAULT_TOL (|lam0| + ||A||_F)^m or W^H V is ill-conditioned, which
    happens when lam0 is no eigenvalue, m is below its index or s is
    wrong."""
    A = _as_matrix(A)
    n = A.shape[0]
    B = lam0 * np.eye(n) - A
    U, s, Vh = np.linalg.svd(np.linalg.matrix_power(B, m))
    rank = n - multiplicity
    V, W = Vh[rank:].conj().T, U[:, rank:]
    G = W.conj().T @ V
    if (
        rank == n
        or s[rank] > DEFAULT_TOL * (abs(lam0) + np.linalg.norm(A)) ** m
        or np.linalg.svd(G, compute_uv=False)[-1] < DEFAULT_TOL
    ):
        raise SpectralError(
            f"no well-conditioned spectral projection at {lam0} for pole order {m}"
        )
    return V @ np.linalg.solve(G, W.conj().T)


def laurent_leading_coefficient(A, lam0: complex, m: int, multiplicity: int) -> np.ndarray:
    """Leading Laurent coefficient Q_{-m} = (A - lam0)^{m-1} P of the
    resolvent at a pole lam0 of order m and algebraic multiplicity s, P the
    `spectral_projection`; raises where that does."""
    A = _as_matrix(A)
    P = spectral_projection(A, lam0, m, multiplicity)
    return np.linalg.matrix_power(A - lam0 * np.eye(A.shape[0]), m - 1) @ P


def geometric_multiplicity(spec: Spectrum, lam: complex) -> int:
    """dim ker(lam - A), A the spectrum's matrix: the singular values of
    lam - A below DEFAULT_TOL * max(||A||_2, 1). For a diagonal A they are
    the moduli |lam - s_j| of its symbol, read off with no SVD."""
    threshold = DEFAULT_TOL * max(spec.matrix_norm, 1.0)
    if spec.symbol is not None:
        return int(np.sum(np.abs(lam - spec.symbol) < threshold))
    M = lam * np.eye(spec.matrix.shape[0]) - spec.matrix
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s < threshold))
