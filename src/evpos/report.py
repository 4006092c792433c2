"""Analysis-report assembly and JSON serialization.

Reports are plain records (strings, numbers, lists, string-keyed maps) so
that serialization is trivially lossless; classification verdicts and check
results are flattened into records when the report is built. Reports carry
no timestamps: identical inputs must produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from . import __version__ as _tool_version
from .classify import (
    DEFAULT_TOL,
    Confirmed,
    Notion,
    PositivityVerdict,
    RefutedWithWitness,
    UndeterminedUpToHorizon,
    hierarchy_violations,
)
from .operators import complex_pairs
from .rng import GENERATOR_NAME
from .spectral import Spectrum
from .verify import CheckResult

SCHEMA_VERSION = "3"


class ReportError(ValueError):
    pass


def verdict_record(v: PositivityVerdict) -> dict:
    status = v.status
    if isinstance(status, Confirmed):
        st = {"kind": "confirmed", "n0": int(status.n0)}
    elif isinstance(status, RefutedWithWitness):
        st = {"kind": "refuted", "witness": str(status.description)}
    elif isinstance(status, UndeterminedUpToHorizon):
        st = {"kind": "undetermined", "horizon": int(status.horizon)}
    else:
        raise ReportError(f"unknown verdict status {status!r}")
    return {
        "notion": v.notion.value,
        "status": st,
        "tolerance": DEFAULT_TOL,
    }


def verdict_from_record(rec: dict) -> PositivityVerdict:
    """The verdict of a classification record; a refutation keeps only its
    witness's description, and the tolerance (always DEFAULT_TOL) is unread."""
    st = rec["status"]
    status = {
        "confirmed": lambda: Confirmed(st["n0"]),
        "refuted": lambda: RefutedWithWitness(None, st["witness"]),
        "undetermined": lambda: UndeterminedUpToHorizon(st["horizon"]),
    }[st["kind"]]()
    return PositivityVerdict(Notion(rec["notion"]), status)


def check_record(c: CheckResult) -> dict:
    return {
        "name": c.name,
        "pass": bool(c.pass_),
        "margin": float(c.margin),
        "tolerance": float(c.tolerance),
        "contradiction": bool(c.contradiction),
        "hypotheses": {k: v for k, v in sorted(c.hypotheses.items())},
    }


def spectrum_record(s: Spectrum) -> dict:
    return {
        "eigenvalues": complex_pairs(s.eigenvalues),
        "spectral_radius": float(s.spectral_radius),
    }


@dataclass(frozen=True)
class AnalysisReport:
    operator_id: str
    model_descriptor: dict
    classification: tuple  # of verdict records
    spectrum: Optional[dict]
    checks: tuple  # of check records
    seed: int
    versions: dict = field(
        default_factory=lambda: {
            "tool": _tool_version,
            "schema": SCHEMA_VERSION,
            "rng": GENERATOR_NAME,
        }
    )

    @property
    def contradiction_count(self) -> int:
        """Checks whose conclusion fails under hypotheses that hold, plus each
        Confirmed verdict that sits above a Refuted one."""
        verdicts = [verdict_from_record(r) for r in self.classification]
        broken = hierarchy_violations(verdicts)
        return len(broken) + sum(1 for c in self.checks if c["contradiction"])


_REPORT_FIELDS = (
    "operator_id",
    "model_descriptor",
    "classification",
    "spectrum",
    "checks",
    "seed",
    "versions",
)


# the texts `json` writes for the floats whose repr is not JSON
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_NAMES.get(text, text)


# the writer of each exact leaf type; a subclass (np.float64, say) takes the
# isinstance tests in `_text`, as in `json`
_LEAVES = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _text(value, pad: str) -> str:
    """The text of value at indentation pad, as `json.dumps(indent=2,
    sort_keys=True)` writes it. Dict keys must be strings. A value of a type
    that `json` does not write (np.int64, np.bool_, a set) raises TypeError,
    as in `json`."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            item = value[key]
            leaf = _LEAVES.get(type(item))
            parts.append(_escape(key) + ": " + (leaf(item) if leaf else _text(item, inner)))
        return "{\n" + inner + sep.join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(x) is float for x in value):
            body = sep.join(map(float.__repr__, value))
            # the repr of a finite float has no "n", of nan and +-inf one
            if "n" in body:
                body = sep.join(map(_float_text, value))
        else:
            body = sep.join([_text(x, inner) for x in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True) + "\\n"`, byte for byte,
    written directly: `json` takes its pure-Python encoder whenever it
    indents."""
    return _text(value, "") + "\n"


def report_to_json(report: AnalysisReport) -> str:
    payload = {
        "operator_id": report.operator_id,
        "model_descriptor": report.model_descriptor,
        "classification": list(report.classification),
        "spectrum": report.spectrum,
        "checks": list(report.checks),
        "seed": int(report.seed),
        "versions": report.versions,
    }
    return json_text(payload)


def report_from_json(text: str) -> AnalysisReport:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ReportError("report must be a JSON object")
    unknown = set(data) - set(_REPORT_FIELDS)
    if unknown:
        raise ReportError(f"unknown report fields: {sorted(unknown)}")
    missing = set(_REPORT_FIELDS) - set(data)
    if missing:
        raise ReportError(f"missing report fields: {sorted(missing)}")
    versions = data["versions"]
    if set(versions) - {"tool", "schema", "rng"}:
        raise ReportError("unknown version fields")
    if versions.get("schema") != SCHEMA_VERSION:
        raise ReportError(
            f"schema version {versions.get('schema')!r} is not supported "
            f"(expected {SCHEMA_VERSION!r})"
        )
    if set(data["model_descriptor"]) != {"variant", "dim", "norm", "sha256"}:
        raise ReportError("the model block must hold variant, dim, norm and sha256")
    for rec in data["classification"]:
        if set(rec) - {"notion", "status", "tolerance"}:
            raise ReportError("unknown fields in a classification record")
    for rec in data["checks"]:
        allowed = {
            "name",
            "pass",
            "margin",
            "tolerance",
            "contradiction",
            "hypotheses",
        }
        if set(rec) - allowed:
            raise ReportError("unknown fields in a check record")
    return AnalysisReport(
        operator_id=data["operator_id"],
        model_descriptor=data["model_descriptor"],
        classification=tuple(data["classification"]),
        spectrum=data["spectrum"],
        checks=tuple(data["checks"]),
        seed=int(data["seed"]),
        versions=versions,
    )
