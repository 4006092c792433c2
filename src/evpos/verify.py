"""Numerical verification of Perron-Frobenius-type conclusions on the
`Spectrum` of a model: solved from a dense complex matrix, or read off a
diagonal's symbol or a shift's nilpotency in closed form. The checks are
spectral radius in the spectrum, positive eigenvectors via the exact Laurent
coefficient (A - spr)^{m-1} P, P the spectral projection,
peripheral-spectrum cyclicity, and multiplicity monotonicity.

Theorem checks never assume their own hypotheses. Hypotheses (power
boundedness, decided by rule from the peripheral pole orders, and
asymptotic-positivity verdicts) are evaluated and attached to the result, so
a failed conclusion with failed hypotheses reads as "no contradiction" rather
than as a bug. Every check is a rule on one `Spectrum` of A, the model's
`spectral_data()`: at spr > 0 the spr check and both peripheral checks read
one `peripheral_table`, the spr check its k = 0 column, and the eigenvector
reads the peripheral part; `perron_frobenius_checks` decides which of them
run.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

from .classify import Confirmed, PositivityVerdict
from .lattice import LatticeVector, NormKind, cone_residual
from .record import Record
from .spectral import Spectrum, geometric_multiplicity

DEFAULT_TOL = 1e-8
# the positive-eigenvector check's bound on each cone distance, and on the
# primal and the adjoint residual relative to spr
EIGENVECTOR_TOL = 1e-6
# a Laurent coefficient annihilates a canonical positive vector whose image
# has norm at most this
ANNIHILATED = 1e-9
# the powers |k| <= CYCLICITY_POWERS of a peripheral eigenvalue that the
# cyclicity check seeks, and the powers n that monotonicity compares
CYCLICITY_POWERS = 12
MONOTONICITY_POWERS = (-3, -2, -1, 0, 1, 2, 3)
# i k for each of those k, the columns of the (consecutive) n among them, the
# rows of two vectors, and about the most entries of a peripheral-table block
_IK = 1j * np.arange(-CYCLICITY_POWERS, CYCLICITY_POWERS + 1)
_COLUMNS = slice(CYCLICITY_POWERS + MONOTONICITY_POWERS[0],
                 CYCLICITY_POWERS + MONOTONICITY_POWERS[-1] + 1)
_ROWS = np.arange(2)
PERIPHERAL_TILE = 2**16


class VerificationError(RuntimeError):
    pass


class CheckResult(Record):
    """One named verification with a signed slack.

    margin is the signed slack of the check's main bound: its tolerance
    minus the distance it measured (spr and cyclicity relative to spr), or
    0 / -1 where the check decides by rows. Each check applies its own rule
    for pass_: the spr and cyclicity checks pass when margin >= 0,
    multiplicity monotonicity passes on its rows, and the positive
    eigenvector passes on three bounds (its cone distance and both
    residuals), so it can fail with margin >= 0. payload carries the
    diagnostic values that produced the margin.  hypotheses maps hypothesis
    names to booleans (or None when not evaluated); `contradiction` is set
    only when the conclusion fails while every recorded hypothesis holds.
    """

    name: str
    pass_: bool
    margin: float
    tolerance: float
    payload: dict = {}
    hypotheses: dict = {}

    @property
    def contradiction(self) -> bool:
        if self.pass_:
            return False
        hyps = [v for v in self.hypotheses.values() if v is not None]
        return bool(hyps) and all(hyps)


def _verdict_hypothesis(name: str, verdict: Optional[PositivityVerdict]) -> dict:
    if verdict is None:
        return {}
    return {name: isinstance(verdict.status, Confirmed)}


def verify_spr_in_spectrum(
    spec: Union[Spectrum, PeripheralTable],
    asymptotic_verdict: Optional[PositivityVerdict] = None,
) -> CheckResult:
    """Pass iff some eigenvalue lies within DEFAULT_TOL*spr of the positive
    real number spr(A), vacuously at spr = 0. At spr > 0 the distance is the
    k = 0 column of the spectrum's `peripheral_table`: that target is
    spr + 0j, so each distance is |lam - spr| bit for bit. spec is a
    spectrum, or its table, as for the peripheral checks."""
    spr = (spec.spec if isinstance(spec, PeripheralTable) else spec).spectral_radius
    hyp = _verdict_hypothesis("uniform-asymptotic-positive", asymptotic_verdict)
    if spr == 0.0:
        payload = {"note": "zero spectral radius; vacuous"}
        return CheckResult("spr-in-spectrum", True, 0.0, DEFAULT_TOL, payload, hyp)
    distance = float(_table(spec).distances[0, CYCLICITY_POWERS])
    margin = DEFAULT_TOL * spr - distance
    payload = {"spectral_radius": spr, "distance": distance}
    return CheckResult("spr-in-spectrum", margin >= 0.0, margin, DEFAULT_TOL, payload, hyp)


# ---------------------------------------------------------------------------
# positive eigenvectors via the Laurent leading coefficient


class EigenvectorResult(Record):
    value: float
    primal: LatticeVector
    adjoint: LatticeVector
    pole_order: int
    primal_cone_distance: float
    adjoint_cone_distance: float
    primal_residual: float
    adjoint_residual: float


def phase_aligned_cone_distance(V: np.ndarray, norm: NormKind) -> np.ndarray:
    """d_+(e^{i theta} x) / ||x|| for each row x of V, a C-contiguous block
    of one or two rows of nonzero norm, with theta the phase that makes the
    largest-modulus entry of x (the first, on a tie) real and positive; an
    eigenvector is only defined up to a scalar, and the entry that dominates
    the norm fixes that scalar's phase. Each row gets the value of its own
    vector bit for bit: each norm is one reduction along each row, and |top|
    is formed by hypot, as abs() of a scalar forms it (np.abs of a complex
    array can differ from it in the last bit)."""
    moduli = np.abs(V)
    top = V[_ROWS[: len(V)], moduli.argmax(axis=1)]
    aligned = V * (np.hypot(top.real, top.imag) / top)[:, None]
    return norm.of_moduli(cone_residual(aligned).T) / norm.of_moduli(moduli.T)


def positive_eigenvector(spec: Spectrum, norm: NormKind) -> EigenvectorResult:
    """Perron-type eigenvector pair at lam0 = spr(A), from the leading Laurent
    coefficient Q_{-m} = (A - lam0)^{m-1} P of the resolvent, P the spectral
    projection and m the peripheral pole order of lam0: Q_{-m} x0 for a
    canonical positive x0 lies in ker(lam0 - A) and, up to phase, in the
    positive cone. As lam0 is real, A^H has the coefficient Q_{-m}^H; the
    adjoint is found as its conjugate, from Q_{-m}^T and A^T, which has its
    moduli, norms and cone distances. A power-of-two multiple of Q_{-m} is
    the spectrum's peripheral coefficient at lam0, which the asymptotic rule
    may have computed already; the positive factor leaves the normalized
    vectors alone."""
    A, spr, periph = spec.matrix, spec.spectral_radius, spec.peripheral_eigenvalues
    k = int(np.abs(periph - spr).argmin()) if len(periph) > 1 else 0
    Q = spec.coefficient(k)
    # complex, so Q x0 and Q^T x0 are the complex products that A U is
    ones = np.empty(len(Q), dtype=complex)
    ones.fill(1.0)
    # U's rows: Q x0 and Q^T x0 for the first canonical positive x0 not
    # annihilated: all ones, then each basis vector, read only when needed
    U, W = np.empty((2, 2, len(Q)), dtype=complex)
    np.matmul(Q, ones, out=U[0])
    np.matmul(ones, Q, out=U[1])
    sizes = norm.of_moduli(np.abs(U).T)
    for row, columns in enumerate((Q.T, Q)):
        columns = iter(columns)
        while not sizes[row] > ANNIHILATED:
            column = next(columns, None)
            if column is None:
                raise VerificationError(
                    "every canonical positive vector is annihilated by the Laurent coefficient"
                )
            U[row], sizes[row] = column, norm.of_moduli(np.abs(column))
    U /= sizes[:, None]
    np.matmul(A, U[0], out=W[0])
    np.matmul(U[1], A, out=W[1])
    W -= spr * U
    distances, residuals = phase_aligned_cone_distance(U, norm), norm.of_moduli(np.abs(W).T)
    return EigenvectorResult(spr, LatticeVector(U[0], norm), LatticeVector(U[1].conj(), norm),
                             spec.pole_orders[k], float(distances[0]), float(distances[1]),
                             float(residuals[0]), float(residuals[1]))


# ---------------------------------------------------------------------------
# peripheral spectrum: cyclicity and multiplicity monotonicity


def power_bounded_estimate(spec: Spectrum) -> dict:
    """Whether A/spr is power bounded, by rule: in finite dimensions it is
    exactly when every peripheral eigenvalue is a pole of the resolvent of
    order 1 (semisimple). Returns the verdict and the spectrum's peripheral
    pole orders (`Spectrum.pole_orders`), in the order of its peripheral
    eigenvalues. Raises when spr = 0, so no check that reads the result
    meets a zero spectral radius."""
    if spec.spectral_radius <= 0:
        raise VerificationError("power-boundedness requires spr > 0")
    orders = list(spec.pole_orders)
    return {"power_bounded": all(m == 1 for m in orders), "peripheral_pole_orders": orders}


class PeripheralTable(Record):
    """What both peripheral checks read of one spectrum (`peripheral_table`):
    targets[i, c] = spr e^{ik theta}, k = c - CYCLICITY_POWERS, for the i-th
    peripheral eigenvalue spr e^{i theta}, and distances[i, c] its distance
    to the nearest eigenvalue; homes[i, j] the peripheral eigenvalue nearest
    to the target of the j-th n in MONOTONICITY_POWERS (column
    n + CYCLICITY_POWERS); and `power_bounded_estimate`, which both record."""

    spec: Spectrum
    power_bounds: dict
    targets: np.ndarray
    distances: np.ndarray
    homes: np.ndarray


def peripheral_table(spec: Spectrum) -> PeripheralTable:
    """The table of one spectrum, formed a block of peripheral eigenvalues
    at a time, each block's broadcast against the spectrum holding at most
    about PERIPHERAL_TILE entries (one block for dim <= 51). Raises where
    `power_bounded_estimate` does, at spr = 0."""
    power_bounds = power_bounded_estimate(spec)
    spr, vals, periph = spec.spectral_radius, spec.eigenvalues, spec.peripheral_eigenvalues
    # np.angle of each, with no Python wrapper
    targets = spr * np.exp(_IK * np.arctan2(periph.imag, periph.real)[:, None])
    distances = np.empty(targets.shape)
    # one peripheral eigenvalue is the home of each of its powers
    homes = np.zeros((len(periph), len(MONOTONICITY_POWERS)), dtype=np.intp)
    step = max(1, PERIPHERAL_TILE // (len(vals) * len(_IK)))
    for i in range(0, len(periph), step):
        block = targets[i : i + step]
        distances[i : i + step] = np.minimum.reduce(np.abs(vals[:, None, None] - block), axis=0)
        if len(periph) > 1:
            homes[i : i + step] = np.abs(periph[:, None, None] - block[:, _COLUMNS]).argmin(axis=0)
    return PeripheralTable(spec, power_bounds, targets, distances, homes)


def _table(spec: Union[Spectrum, PeripheralTable]) -> PeripheralTable:
    return spec if isinstance(spec, PeripheralTable) else peripheral_table(spec)


def peripheral_cyclicity_check(
    spec: Union[Spectrum, PeripheralTable],
    asymptotic_verdict: Optional[PositivityVerdict] = None,
) -> CheckResult:
    """Every power spr*e^{ik theta} (|k| <= CYCLICITY_POWERS) of a peripheral
    eigenvalue spr*e^{i theta} (`Spectrum.peripheral_eigenvalues`) must land
    within DEFAULT_TOL*spr of an eigenvalue. The payload's `distances` row i
    holds those distances for the i-th peripheral eigenvalue, in order of
    k. spec is a spectrum, or the `peripheral_table` of one, which
    `perron_frobenius_checks` forms once for both peripheral checks."""
    table = _table(spec)
    spr = table.spec.spectral_radius
    hyp = {"power-bounded": table.power_bounds["power_bounded"]}
    hyp.update(_verdict_hypothesis("uniform-asymptotic-positive", asymptotic_verdict))
    margin = DEFAULT_TOL * spr - float(np.maximum.reduce(table.distances, axis=None))
    payload = {"distances": table.distances, "power_bounds": table.power_bounds}
    return CheckResult("peripheral-cyclicity", margin >= 0.0, margin, DEFAULT_TOL, payload, hyp)


def multiplicity_monotonicity_check(
    spec: Union[Spectrum, PeripheralTable],
    asymptotic_verdict: Optional[PositivityVerdict] = None,
) -> CheckResult:
    """dim ker(spr e^{i theta} - A) <= dim ker(spr e^{i n theta} - A) for
    each peripheral eigenvalue (`Spectrum.peripheral_eigenvalues`) and each
    n in MONOTONICITY_POWERS; a power that misses the spectrum entirely is
    recorded as a cyclicity failure. A power within DEFAULT_TOL * spr of an
    eigenvalue lands on the peripheral eigenvalue nearest to it; one that
    lands where it came from compares a multiplicity with itself and holds,
    so only those pairs and the missing powers make payload rows, and only
    they are visited. A multiplicity is 1 for an eigenvalue whose algebraic
    multiplicity (`Spectrum.multiplicities`, by index) is 1, as that bounds
    it, and one SVD for a multiple one. spec is a spectrum, or its
    `peripheral_table`, as for the cyclicity check."""
    table = _table(spec)
    spec = table.spec
    spr = spec.spectral_radius
    hyp = {"power-bounded": table.power_bounds["power_bounded"]}
    hyp.update(_verdict_hypothesis("weak-asymptotic-positive", asymptotic_verdict))
    periph = spec.peripheral_eigenvalues
    mults: dict = {}

    def mult(i: int) -> int:
        if i not in mults:
            simple = spec.multiplicities[i] == 1
            mults[i] = 1 if simple else geometric_multiplicity(spec, periph[i])
        return mults[i]

    missing = table.distances[:, _COLUMNS] > DEFAULT_TOL * spr
    visit = missing
    if len(periph) > 1:
        visit = missing | (table.homes != np.arange(len(periph))[:, None])
    rows = []
    ok = True
    for i, c in zip(*visit.nonzero()):
        i, c = int(i), int(c)
        lam, n = complex(periph[i]), MONOTONICITY_POWERS[c]
        if missing[i, c]:
            target = complex(table.targets[i, _COLUMNS][c])
            rows.append({"lambda": lam, "n": n, "missing_power": target})
            ok = False
        else:
            base, power = mult(i), mult(int(table.homes[i, c]))
            rows.append(
                {"lambda": lam, "n": n, "base_multiplicity": base, "power_multiplicity": power}
            )
            ok = ok and power >= base
    payload = {"rows": rows, "power_bounds": table.power_bounds}
    return CheckResult(
        "multiplicity-monotonicity", ok, 0.0 if ok else -1.0, DEFAULT_TOL, payload, hyp
    )


# ---------------------------------------------------------------------------
# the checks of one classification


def perron_frobenius_checks(
    spec: Spectrum,
    uniform_asymptotic: Optional[PositivityVerdict],
    weak_asymptotic: Optional[PositivityVerdict],
    norm: NormKind,
) -> Iterator[CheckResult]:
    """The Perron-Frobenius checks of one spectrum, in report order: the
    spr check alone at spr = 0, where nothing rescales by spr; otherwise
    the spr check, cyclicity and multiplicity monotonicity, which read one
    `peripheral_table`, formed first, so power boundedness is decided once;
    then, once those have been taken, the positive eigenvector at spr, which
    is sought only once spr lies in the spectrum and weak asymptotic
    positivity is confirmed, the hypotheses it records. Eigenvectors are
    positive up to phase within EIGENVECTOR_TOL, and the primal and the
    adjoint residual are within it relative to spr."""
    if spec.spectral_radius == 0.0:
        yield verify_spr_in_spectrum(spec, uniform_asymptotic)
        return
    table = peripheral_table(spec)
    spr_check = verify_spr_in_spectrum(table, uniform_asymptotic)
    yield spr_check
    yield peripheral_cyclicity_check(table, uniform_asymptotic)
    yield multiplicity_monotonicity_check(table, weak_asymptotic)
    weak_ok = weak_asymptotic is not None and isinstance(weak_asymptotic.status, Confirmed)
    if not (spr_check.pass_ and weak_ok):
        return
    ev = positive_eigenvector(spec, norm)
    worst = max(ev.primal_cone_distance, ev.adjoint_cone_distance)
    bound = EIGENVECTOR_TOL * ev.value
    yield CheckResult(
        "positive-eigenvector",
        worst <= EIGENVECTOR_TOL and ev.primal_residual <= bound and ev.adjoint_residual <= bound,
        EIGENVECTOR_TOL - worst,
        EIGENVECTOR_TOL,
        {"pole_order": ev.pole_order, "value": ev.value},
        {"weak-asymptotic-positive": weak_ok, "spr-in-spectrum": spr_check.pass_},
    )
