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
`spectral_data()`: all but the spr check read its peripheral part, and
`perron_frobenius_checks` decides which of them run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Union

import numpy as np

from .classify import Confirmed, PositivityVerdict
from .lattice import LatticeVector, NormKind, cone_distances
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


class VerificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class CheckResult:
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
    payload: dict = field(default_factory=dict)
    hypotheses: dict = field(default_factory=dict)

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
    spec: Spectrum,
    asymptotic_verdict: Optional[PositivityVerdict] = None,
) -> CheckResult:
    """Pass iff some eigenvalue lies within DEFAULT_TOL*spr of the positive
    real number spr(A)."""
    spr = spec.spectral_radius
    hyp = _verdict_hypothesis("uniform-asymptotic-positive", asymptotic_verdict)
    if spr == 0.0:
        return CheckResult(
            "spr-in-spectrum",
            True,
            0.0,
            DEFAULT_TOL,
            payload={"note": "zero spectral radius; vacuous"},
            hypotheses=hyp,
        )
    dists = np.abs(spec.eigenvalues - spr)
    k = int(dists.argmin())
    margin = DEFAULT_TOL * spr - float(dists[k])
    return CheckResult(
        "spr-in-spectrum",
        margin >= 0.0,
        margin,
        DEFAULT_TOL,
        payload={
            "spectral_radius": spr,
            "nearest_eigenvalue": complex(spec.eigenvalues[k]),
            "distance": float(dists[k]),
        },
        hypotheses=hyp,
    )


# ---------------------------------------------------------------------------
# positive eigenvectors via the Laurent leading coefficient


@dataclass(frozen=True)
class EigenvectorResult:
    value: float
    primal: LatticeVector
    adjoint: LatticeVector
    pole_order: int
    primal_cone_distance: float
    adjoint_cone_distance: float
    primal_residual: float
    adjoint_residual: float


def phase_aligned_cone_distance(x: LatticeVector) -> float:
    """d_+(e^{i theta} x) / ||x||, with theta the phase that makes the
    largest-modulus entry of x (the first, on a tie) real and positive; an
    eigenvector is only defined up to a scalar, and the entry that dominates
    the norm fixes that scalar's phase. The moduli of x give both its norm
    and its top entry."""
    moduli = np.abs(x.entries)
    scale = float(x.norm.of_moduli(moduli))
    if scale == 0.0:
        return 0.0
    top = x.entries[int(moduli.argmax())]
    return float(cone_distances(x.entries * (abs(top) / top), x.norm) / scale)


def positive_eigenvector(spec: Spectrum, norm: NormKind) -> EigenvectorResult:
    """Perron-type eigenvector pair at lam0 = spr(A), from the leading Laurent
    coefficient Q_{-m} = (A - lam0)^{m-1} P of the resolvent, P the spectral
    projection and m the peripheral pole order of lam0: Q_{-m} x0 for a
    canonical positive x0 lies in ker(lam0 - A) and, up to phase, in the
    positive cone. As lam0 is real, A^H has the coefficient Q_{-m}^H. A
    power-of-two multiple of Q_{-m} is the spectrum's peripheral coefficient
    at lam0, which the asymptotic rule may have computed already; the
    positive factor leaves the normalized vectors alone."""
    A, spr = spec.matrix, spec.spectral_radius
    k = int(np.abs(spec.peripheral_eigenvalues - spr).argmin())
    m = spec.pole_orders[k]
    Q = spec.coefficient(k)

    def size(y: np.ndarray) -> float:
        return float(norm.of_moduli(np.abs(y)))

    def pick(Qm: np.ndarray) -> LatticeVector:
        # Qm x0 for the first canonical positive x0 that Qm does not
        # annihilate: the all-ones vector, then each basis vector, each
        # column read only when the ones before it are annihilated
        for y in chain([Qm @ np.ones(len(Qm))], Qm.T):
            nv = size(y)
            if nv > ANNIHILATED:
                return LatticeVector(y / nv, norm)
        raise VerificationError(
            "every canonical positive vector is annihilated by the Laurent "
            "coefficient"
        )

    primal = pick(Q)
    adjoint = pick(Q.conj().T)
    x, y = primal.entries, adjoint.entries
    return EigenvectorResult(
        value=spr,
        primal=primal,
        adjoint=adjoint,
        pole_order=m,
        primal_cone_distance=phase_aligned_cone_distance(primal),
        adjoint_cone_distance=phase_aligned_cone_distance(adjoint),
        primal_residual=size(spr * x - A @ x),
        adjoint_residual=size(spr * y - A.conj().T @ y),
    )


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


@dataclass(frozen=True)
class PeripheralTable:
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
    """The table of one spectrum, one dim x (2 CYCLICITY_POWERS + 1)
    broadcast per peripheral eigenvalue. Raises where
    `power_bounded_estimate` does, at spr = 0."""
    power_bounds = power_bounded_estimate(spec)
    spr, vals, periph = spec.spectral_radius, spec.eigenvalues, spec.peripheral_eigenvalues
    ks = np.arange(-CYCLICITY_POWERS, CYCLICITY_POWERS + 1)
    columns = np.array(MONOTONICITY_POWERS) + CYCLICITY_POWERS
    targets = np.empty((len(periph), len(ks)), dtype=complex)
    distances = np.empty(targets.shape)
    homes = np.empty((len(periph), len(columns)), dtype=np.intp)
    for i, lam in enumerate(periph):
        # np.angle(lam), with no Python wrapper
        targets[i] = spr * np.exp(1j * ks * np.arctan2(lam.imag, lam.real))
        distances[i] = np.minimum.reduce(np.abs(vals[:, None] - targets[i]), axis=0)
        homes[i] = np.abs(periph[:, None] - targets[i, columns]).argmin(axis=0)
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
    return CheckResult(
        "peripheral-cyclicity",
        margin >= 0.0,
        margin,
        DEFAULT_TOL,
        payload={"distances": table.distances, "power_bounds": table.power_bounds},
        hypotheses=hyp,
    )


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
    columns = np.array(MONOTONICITY_POWERS) + CYCLICITY_POWERS
    mults: dict = {}

    def mult(i: int) -> int:
        if i not in mults:
            simple = spec.multiplicities[i] == 1
            mults[i] = 1 if simple else geometric_multiplicity(spec, periph[i])
        return mults[i]

    missing = table.distances[:, columns] > DEFAULT_TOL * spr
    moved = table.homes != np.arange(len(periph))[:, None]
    rows = []
    ok = True
    for i, c in zip(*(missing | moved).nonzero()):
        i, c = int(i), int(c)
        lam, n = complex(periph[i]), MONOTONICITY_POWERS[c]
        if missing[i, c]:
            target = complex(table.targets[i, columns[c]])
            rows.append({"lambda": lam, "n": n, "missing_power": target})
            ok = False
        else:
            base, power = mult(i), mult(int(table.homes[i, c]))
            rows.append(
                {"lambda": lam, "n": n, "base_multiplicity": base, "power_multiplicity": power}
            )
            ok = ok and power >= base
    return CheckResult(
        "multiplicity-monotonicity",
        ok,
        0.0 if ok else -1.0,
        DEFAULT_TOL,
        payload={"rows": rows, "power_bounds": table.power_bounds},
        hypotheses=hyp,
    )


# ---------------------------------------------------------------------------
# the checks of one classification


def perron_frobenius_checks(
    spec: Spectrum,
    uniform_asymptotic: Optional[PositivityVerdict],
    weak_asymptotic: Optional[PositivityVerdict],
    norm: NormKind,
) -> Iterator[CheckResult]:
    """The Perron-Frobenius checks of one spectrum, in report order, each
    made when the one before it has been taken: the spr check alone at
    spr = 0, where nothing rescales by spr; then cyclicity and
    multiplicity monotonicity, which read one `peripheral_table`, so power
    boundedness is decided once; then the positive eigenvector at spr, which
    is sought only once spr lies in the spectrum and weak asymptotic
    positivity is confirmed, the hypotheses it records. Eigenvectors are
    positive up to phase within EIGENVECTOR_TOL, and the primal and the
    adjoint residual are within it relative to spr."""
    spr_check = verify_spr_in_spectrum(spec, uniform_asymptotic)
    yield spr_check
    if spec.spectral_radius == 0.0:
        return
    table = peripheral_table(spec)
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
        payload={"pole_order": ev.pole_order, "value": ev.value},
        hypotheses={"weak-asymptotic-positive": weak_ok, "spr-in-spectrum": spr_check.pass_},
    )
