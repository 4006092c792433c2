"""Decay-rate analysis for cone-distance sequences: decreasing rearrangements,
majorant domination ("governs"), summability trend reports, and the weighted
series alpha(r).

Everything here works on finite truncations (default length 200) and reports
verdicts as truncation-relative; no finite computation can certify that an
infinite series converges, so trends and tail bounds are the honest surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

DEFAULT_LENGTH = 200


class RateError(ValueError):
    pass


@dataclass(frozen=True)
class DecaySequence:
    """A nonnegative sequence d_+(<x', S^n x>) for n = 0..N, with an optional
    label recording which (vector, functional) pair produced it."""

    values: tuple
    source: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise RateError("decay sequence must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise RateError("decay sequence entries must be finite")
        if np.any(vals < 0):
            raise RateError("decay sequence entries must be nonnegative")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Power:
    """phi(t) = t**q with q > 0; strictly positive for t > 0."""

    q: float

    def __post_init__(self):
        if self.q <= 0:
            raise RateError("power rate requires a positive exponent")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=float) ** self.q


@dataclass(frozen=True)
class Threshold:
    """phi(t) = max(t - c, 0); vanishes near 0, so diagnostic use only."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise RateError("threshold rate requires a positive cutoff")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(t, dtype=float) - self.c, 0.0)


@dataclass(frozen=True)
class UserTable:
    """Piecewise-linear increasing rate given by (t, phi(t)) breakpoints."""

    breakpoints: tuple  # of (t, value) pairs, t increasing, value increasing

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.breakpoints)
        if len(pts) < 2:
            raise RateError("rate table needs at least two breakpoints")
        ts = [p[0] for p in pts]
        vs = [p[1] for p in pts]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise RateError("rate table abscissae must be strictly increasing")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise RateError("rate table values must be non-decreasing")
        object.__setattr__(self, "breakpoints", pts)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        ts = np.array([p[0] for p in self.breakpoints])
        vs = np.array([p[1] for p in self.breakpoints])
        return np.interp(np.asarray(t, dtype=float), ts, vs)


RateFunction = Union[Power, Threshold, UserTable]


@dataclass(frozen=True)
class MajorantSequence:
    """A nonnegative sequence expected to decay to 0 (a stand-in for an
    element of (c0)_+); construction checks the tail actually dies down."""

    values: tuple
    require_decay: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise RateError("majorant must be a non-empty one-dimensional sequence")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise RateError("majorant entries must be finite and nonnegative")
        if self.require_decay and np.max(vals) > 0:
            q = max(1, len(vals) // 4)
            if np.max(vals[-q:]) > 1e-6 * np.max(vals):
                raise RateError(
                    "majorant tail does not decay (last-quarter max exceeds "
                    "1e-6 of the head max)"
                )
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def __len__(self) -> int:
        return len(self.values)


def decreasing_rearrangement(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0):
        raise RateError("decreasing rearrangement requires nonnegative entries")
    return np.sort(arr)[::-1]


@dataclass(frozen=True)
class Governed:
    c: float


@dataclass(frozen=True)
class NotGoverned:
    index: int


def governs(f: MajorantSequence, a: DecaySequence) -> Union[Governed, NotGoverned]:
    """Least c with a*_n <= c * f_n at this truncation length, or the first
    index where f vanishes but a* does not."""
    fv = np.asarray(f.values, dtype=float)
    av = decreasing_rearrangement(np.abs(np.asarray(a.values, dtype=float)))
    if len(fv) != len(av):
        raise RateError(f"length mismatch: majorant {len(fv)} vs sequence {len(av)}")
    zero_f = fv == 0.0
    bad = np.nonzero(zero_f & (av > 0.0))[0]
    if len(bad) > 0:
        return NotGoverned(int(bad[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(zero_f, 0.0, av / np.where(zero_f, 1.0, fv))
    return Governed(float(np.max(ratios)) if len(ratios) else 0.0)


@dataclass(frozen=True)
class SummabilityEntry:
    rate: RateFunction
    partial_sums: tuple
    tail_slope: float
    flag: str  # summable-trend | divergent-trend | inconclusive


@dataclass(frozen=True)
class SummabilityReport:
    entries: tuple
    lp_estimate: Optional[float]
    lp_note: str = "heuristic log-log regression; not a certificate"


_SLOPE_SUMMABLE = -1.2
_SLOPE_DIVERGENT = -1.02


def _trend_flag(terms: np.ndarray) -> tuple:
    """Classify the tail of a nonnegative term sequence.

    Geometric-type decay shows up as a linear trend in log(terms); power-law
    decay as a slope in log(terms) vs log(n+1) — summable below -1.2,
    divergent above -1.02, in between we refuse to guess.
    """
    n = len(terms)
    half = terms[n // 2 :]
    idx = np.arange(n // 2, n, dtype=float)
    if np.max(half) == 0.0:
        return 0.0, "summable-trend"
    positive = half > 0
    if np.sum(positive) < 4:
        return 0.0, ("summable-trend" if half[-1] == 0.0 else "inconclusive")
    logs = np.log(half[positive])
    xs = idx[positive]
    # geometric check: log-linear fit in n
    slope_exp = np.polyfit(xs, logs, 1)[0]
    if slope_exp < -1e-2:
        resid = logs - np.polyval(np.polyfit(xs, logs, 1), xs)
        if np.max(np.abs(resid)) < 0.2:
            return float(slope_exp), "summable-trend"
    # power-law check: log-log fit
    slope_pow = np.polyfit(np.log(xs + 1.0), logs, 1)[0]
    if slope_pow < _SLOPE_SUMMABLE:
        return float(slope_pow), "summable-trend"
    if slope_pow > _SLOPE_DIVERGENT:
        return float(slope_pow), "divergent-trend"
    return float(slope_pow), "inconclusive"


def summability_report(
    a: DecaySequence, phis: Sequence[RateFunction]
) -> SummabilityReport:
    av = np.asarray(a.values, dtype=float)
    entries = []
    for phi in phis:
        terms = np.asarray(phi(av), dtype=float)
        sums = np.cumsum(terms)
        slope, flag = _trend_flag(terms)
        entries.append(SummabilityEntry(phi, tuple(sums), slope, flag))
    lp = _lp_estimate(av)
    return SummabilityReport(tuple(entries), lp)


def _lp_estimate(av: np.ndarray) -> Optional[float]:
    """Smallest plausible p with a in l^p, from the log-log slope of the
    decreasing rearrangement: a*_n ~ n^s gives p ~ -1/s. Heuristic."""
    star = decreasing_rearrangement(av)
    positive = star > 0
    if np.sum(positive) < 8:
        return None
    n = np.arange(len(star), dtype=float)[positive]
    s = np.polyfit(np.log(n + 1.0), np.log(star[positive]), 1)[0]
    if s >= -1e-6:
        return None
    return float(max(-1.0 / s, 1e-6)) if s > -50 else 1e-6


def alpha(f: MajorantSequence, r: float) -> tuple:
    """(truncated value of sum f_n / r^(n+1), geometric tail bound)."""
    if r <= 1.0:
        raise RateError("alpha requires r > 1")
    fv = np.asarray(f.values, dtype=float)
    n = np.arange(len(fv), dtype=float)
    value = float(np.sum(fv / r ** (n + 1.0)))
    tail = float(fv[-1] / (r ** len(fv) * (r - 1.0)))
    return value, tail


def countable_family_reduce(fs: Sequence[MajorantSequence]) -> MajorantSequence:
    """Weighted sum sum_j f^(j) / (2^j * max f^(j)); each input is governed by
    the output with constant at most 2^j * max f^(j)."""
    if not fs:
        raise RateError("empty majorant family")
    length = len(fs[0])
    total = np.zeros(length)
    for j, f in enumerate(fs):
        fv = np.asarray(f.values, dtype=float)
        if len(fv) != length:
            raise RateError("majorants in a family must share one truncation length")
        peak = np.max(fv)
        if peak <= 0:
            raise RateError("zero sequence in majorant family")
        total += fv / (2.0 ** (j + 1) * peak)
    return MajorantSequence(tuple(total), require_decay=False)
