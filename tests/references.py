"""Test-only references that no `evpos` command runs: a brute-force cone
distance that the closed-form `lattice.cone_distance` is held to, and a
report reader that checks each record holds exactly the keys
`report.report_to_json` writes for its kind, for the round-trip and
key-check tests. `evpos` itself never reads a report back.
"""

import json

import numpy as np

from evpos.lattice import LatticeError, LatticeVector
from evpos.report import (
    _CHECK_FIELDS,
    _PERIPHERAL_FIELDS,
    _REPORT_FIELDS,
    _STATUS,
    SCHEMA_VERSION,
    AnalysisReport,
    ReportError,
)


def cone_distance_oracle(x: LatticeVector, resolution: float) -> float:
    """Brute-force cone distance: minimize ||x - y|| over a nonnegative grid.

    All supported norms are monotone in the per-coordinate deviations
    |x_k - y_k|, so the joint grid minimum is attained by minimizing each
    coordinate's deviation independently over the same grid, at a cost
    linear in the dimension.
    """
    if resolution <= 0:
        raise LatticeError("resolution must be positive")
    entries = x.entries
    if len(entries) == 0:
        return 0.0
    bound = 2.0 * float(np.max(np.abs(entries)))
    grid = np.arange(0.0, bound + resolution, resolution)
    if len(grid) == 0:
        grid = np.array([0.0])
    # deviation of entry k from every grid candidate; best candidate per entry
    dev = np.abs(entries[:, None] - grid[None, :])
    best = dev.min(axis=1)
    return float(x.norm.of_moduli(best))


def _require(rec, keys, what: str) -> None:
    """rec must be a JSON object with exactly these keys."""
    if not isinstance(rec, dict) or set(rec) != set(keys):
        got = sorted(rec) if isinstance(rec, dict) else type(rec).__name__
        raise ReportError(f"{what} must hold exactly {sorted(keys)}, not {got}")


def report_from_json(text: str) -> AnalysisReport:
    """A report read back from its text: each record must hold the keys of
    its kind in schema "4", as `report_to_json` writes them."""
    data = json.loads(text)
    _require(data, _REPORT_FIELDS, "a report")
    versions = data["versions"]
    _require(versions, ("tool", "schema", "rng"), "the versions block")
    if versions["schema"] != SCHEMA_VERSION:
        raise ReportError(f"schema version {versions['schema']!r} is not supported "
                          f"(expected {SCHEMA_VERSION!r})")
    _require(data["model_descriptor"], ("variant", "dim", "norm", "sha256"), "the model block")
    _require(data["model_descriptor"]["norm"], ("kind",), "the model's norm")
    for rec in data["classification"]:
        _require(rec, ("notion", "status", "tolerance"), "a classification record")
        kind = rec["status"].get("kind") if isinstance(rec["status"], dict) else None
        if kind not in _STATUS:
            raise ReportError(f"unknown status kind {kind!r}")
        _require(rec["status"], ("kind", _STATUS[kind][1]), f"a {kind} status")
    for rec in data["checks"]:
        _require(rec, _CHECK_FIELDS, "a check record")
        if not isinstance(rec["hypotheses"], dict):
            raise ReportError("the hypotheses of a check must be a JSON object")
    spectrum = data["spectrum"]
    if spectrum is not None:
        _require(spectrum, ("peripheral", "spectral_radius"), "the spectrum")
        for rec in spectrum["peripheral"]:
            _require(rec, _PERIPHERAL_FIELDS, "a peripheral eigenvalue")
            if not (isinstance(rec["value"], list) and len(rec["value"]) == 2):
                raise ReportError("a peripheral value must be an [re, im] pair")
    return AnalysisReport(**{**data, "classification": tuple(data["classification"]),
                             "checks": tuple(data["checks"]), "seed": int(data["seed"])})
