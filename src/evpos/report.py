"""Analysis-report assembly and JSON serialization.

Reports are plain records (strings, numbers, lists, string-keyed maps) so
that serialization is trivially lossless; classification verdicts and check
results are flattened into records when the report is built. Reports carry
no timestamps: identical inputs must produce byte-identical files.
"""

from __future__ import annotations

from functools import partial
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
from .record import Record
from .rng import GENERATOR_NAME
from .spectral import Spectrum
from .verify import DEFAULT_TOL as CHECK_TOL, EIGENVECTOR_TOL, CheckResult

SCHEMA_VERSION = "4"


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
    return {"notion": v.notion._value_, "status": st, "tolerance": DEFAULT_TOL}


def verdict_from_record(rec: dict) -> PositivityVerdict:
    """The verdict of a classification record; a refutation keeps only its
    witness's description, and the tolerance (always DEFAULT_TOL) is unread."""
    kind = rec["status"]["kind"]
    make = {"confirmed": Confirmed, "refuted": partial(RefutedWithWitness, None),
            "undetermined": UndeterminedUpToHorizon}[kind]
    return PositivityVerdict(Notion(rec["notion"]), make(rec["status"][_STATUS[kind][1]]))


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
    """spr and each peripheral eigenvalue (`Spectrum.peripheral_indices`)
    with its algebraic multiplicity, pole order and spread; none at spr = 0."""
    spr = float(s.spectral_radius)
    peripheral = [] if spr == 0.0 else [
        {"multiplicity": m, "pole_order": p, "spread": d, "value": v} for m, p, d, v in zip(
            s.multiplicities, s.pole_orders, s.spreads, complex_pairs(s.peripheral_eigenvalues))]
    return {"peripheral": peripheral, "spectral_radius": spr}


class AnalysisReport(Record):
    operator_id: str
    model_descriptor: dict
    classification: tuple  # of verdict records
    spectrum: Optional[dict]
    checks: tuple  # of check records
    seed: int
    versions: dict = {"tool": _tool_version, "schema": SCHEMA_VERSION, "rng": GENERATOR_NAME}

    @property
    def contradiction_count(self) -> int:
        """Checks whose conclusion fails under hypotheses that hold, plus each
        Confirmed verdict that sits above a Refuted one."""
        verdicts = [verdict_from_record(r) for r in self.classification]
        broken = hierarchy_violations(verdicts)
        return len(broken) + sum(1 for c in self.checks if c["contradiction"])


_REPORT_FIELDS = ("operator_id", "model_descriptor", "classification", "spectrum", "checks",
                  "seed", "versions")
_CHECK_FIELDS = ("name", "pass", "margin", "tolerance", "contradiction", "hypotheses")

# the texts `json` writes for the floats whose repr is not JSON
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_NAMES.get(text, text)


# the texts of the constant tolerances, written once; any other tolerance
# takes its `_leaf` text (an unhashable one raises TypeError, as there)
_TOLERANCES = {t: _float_text(t) for t in (DEFAULT_TOL, CHECK_TOL, EIGENVECTOR_TOL)}

# the writer of each exact leaf type, in the order of `json`'s isinstance
# tests, which a subclass (np.float64, say) takes
_LEAVES = {
    str: _escape,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _leaf(value) -> str:
    """The text `json` writes for a leaf; a value that it does not write
    (np.int64, np.bool_, a set), or a container, raises TypeError."""
    write = _LEAVES.get(type(value)) or next(
        (w for t, w in _LEAVES.items() if isinstance(value, t)), None)
    if write is None:
        raise TypeError(f"Object of type {type(value).__name__} is not a report leaf")
    return write(value)


def _block(items: list, depth: int, brackets: str = "[]") -> str:
    """The text of a list (or, with brackets "{}", a dict) of item texts at
    this depth, as `json.dumps(indent=2)` writes it."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _template(keys, depth: int) -> str:
    """The text of a record with these keys at this depth, as `json.dumps(
    indent=2, sort_keys=True)` writes it, with a %s slot for each value."""
    return _block([_escape(k) + ": %s" for k in sorted(keys)], depth, "{}")


# One template per record kind of schema "4"; each slot takes the `_leaf`
# text of one value, or the text of a nested record.
_REPORT = _template(_REPORT_FIELDS, 0) + "\n"
_DESCRIPTOR = _template(("dim", "norm", "sha256", "variant"), 1).replace(
    '"norm": %s', '"norm": ' + _template(("kind",), 2))
_VERSIONS = _template(("rng", "schema", "tool"), 1)
_SPECTRUM = _template(("peripheral", "spectral_radius"), 1)
_PERIPHERAL_FIELDS = ("multiplicity", "pole_order", "spread", "value")
_PERIPHERAL = _template(_PERIPHERAL_FIELDS, 3).replace(
    '"value": %s', '"value": ' + _block(["%s", "%s"], 4))
_CHECK = _template(_CHECK_FIELDS, 2)
_VERDICT = _template(("notion", "status", "tolerance"), 2)
# each status kind: its template, with the kind written in, and its other key
_STATUS = {
    kind: (_template(("kind", key), 3).replace('"kind": %s', f'"kind": "{kind}"'), key)
    for kind, key in (("confirmed", "n0"), ("refuted", "witness"), ("undetermined", "horizon"))
}


def _check_text(c: dict) -> str:
    h = c["hypotheses"]
    return _CHECK % (
        _leaf(c["contradiction"]), _block([_escape(k) + ": " + _leaf(h[k]) for k in sorted(h)], 3, "{}"),
        _leaf(c["margin"]), _leaf(c["name"]), _leaf(c["pass"]),
        _TOLERANCES.get(c["tolerance"]) or _leaf(c["tolerance"]),
    )


def _verdict_text(v: dict) -> str:
    template, key = _STATUS[v["status"]["kind"]]
    tolerance = _TOLERANCES.get(v["tolerance"]) or _leaf(v["tolerance"])
    return _VERDICT % (_leaf(v["notion"]), template % _leaf(v["status"][key]), tolerance)


def _spectrum_text(s: dict) -> str:
    peripheral = [_PERIPHERAL % tuple(map(_leaf, (p["multiplicity"], p["pole_order"], p["spread"],
                                                   *p["value"]))) for p in s["peripheral"]]
    return _SPECTRUM % (_block(peripheral, 2), _leaf(s["spectral_radius"]))


def report_to_json(report: AnalysisReport) -> str:
    """`json.dumps(fields, indent=2, sort_keys=True) + "\\n"` (seed as an int)
    byte for byte, from the templates of the records, each holding the keys
    of its kind; `json` takes its pure-Python encoder whenever it indents."""
    d, s, v = report.model_descriptor, report.spectrum, report.versions
    return _REPORT % (
        _block([_check_text(c) for c in report.checks], 1),
        _block([_verdict_text(r) for r in report.classification], 1),
        _DESCRIPTOR % tuple(map(_leaf, (d["dim"], d["norm"]["kind"], d["sha256"], d["variant"]))),
        _leaf(report.operator_id),
        _leaf(int(report.seed)),
        "null" if s is None else _spectrum_text(s),
        _VERSIONS % tuple(map(_leaf, (v["rng"], v["schema"], v["tool"]))),
    )
