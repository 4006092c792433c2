"""Span recorder for the traced benchmark run.

`Recorder.install` replaces each traced `evpos` function at every `evpos.*`
module attribute bound to it (the binding sweep), so calls that resolve the
name through any module's globals are recorded, e.g. `power_apply` is bound in
both `evpos.operators` and `evpos.classify`. Spans stay in memory; `dump`
writes them as JSONL once the run is over. Span times are CPU seconds of
the process (`time.process_time`), the clock of the untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs: one layer per module, as the metric names show.
TRACED = (
    ("cli", "run_classify"),
    ("classify", "uniform_eventual"),
    ("classify", "individual_eventual"),
    ("classify", "weak_eventual"),
    ("classify", "classify_asymptotic"),
    ("classify", "delta_n"),
    ("operators", "power_apply"),
    ("operators", "to_dense"),
    ("lattice", "cone_distance"),
    ("spectral", "eigenvalues"),
    ("spectral", "resolvent_matrix"),
    ("spectral", "laurent_leading_coefficient"),
    ("verify", "positive_eigenvector"),
    ("verify", "power_bounded_estimate"),
    ("verify", "peripheral_cyclicity_check"),
    ("verify", "multiplicity_monotonicity_check"),
    ("witnesses", "hat_family_witness"),
    ("witnesses", "signed_power_witness"),
    ("report", "report_to_json"),
    ("catalog", "build_catalog"),
    ("generators", "make_eventually_positive"),
)

# span name -> (metric name, size of the returned value in bytes)
SIZED = {
    "operators.to_dense": ("operators.to_dense.bytes", lambda d: d.matrix.nbytes),
    "report.report_to_json": ("report.bytes", lambda text: len(text.encode())),
}


def evpos_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "evpos" or name.startswith("evpos."))]


class Recorder:
    """Spans are tuples (name, start, end, parent index or -1, model id,
    bytes); a span's index in `spans` is its id."""

    def __init__(self):
        self.spans = []
        self.model = None
        self._stack = []
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        size = 0
        start = time.process_time()
        try:
            out = fn(*args, **kwargs)
            if name in SIZED:
                size = SIZED[name][1](out)
            return out
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.model, size)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, traced=TRACED):
        modules = evpos_modules()
        for module, fn_name in traced:
            original = getattr(sys.modules[f"evpos.{module}"], fn_name)
            wrapper = self._wrapper(f"{module}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, model, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "model": model, "bytes": size}) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, _, _, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children[sid]]
        out.append(end - start - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def layer_totals(spans, first=0, stop=None):
    """name -> (calls, self seconds, bytes) summed over spans[first:stop];
    children anywhere in `spans` count against their parents."""
    totals = defaultdict(lambda: [0, 0.0, 0])
    selfs = self_times(spans)
    for span, self_s in list(zip(spans, selfs))[first:stop]:
        t = totals[span[0]]
        t[0] += 1
        t[1] += self_s
        t[2] += span[5]
    return {name: tuple(t) for name, t in totals.items()}
