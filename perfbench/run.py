"""evpos benchmark: classify a seeded workload of operator models and print
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/``. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

The loop is closed: one process, pinned to one CPU, classifies one model at
a time. A warm-up pass is excluded from timing, then timed passes follow
until ``--seconds`` of wall time are used, at least two of them.

Times are the CPU time of the process (``time.process_time``): it runs one
thread with one BLAS thread and does no I/O while it classifies, so on an
idle host this equals wall time, and on a virtual machine it leaves out the
time the hypervisor gave the CPU to other guests. A CPU shared with other
tenants still runs slower while they are busy, for minutes at a time. So a
fixed reference computation that does not use evpos is timed between model
runs, and every end-to-end time is scaled to the reference's nominal speed:
a run's time, times REF_S over the mean of the reference times just before
and just after it. A model's time is the median of its scaled runs. On an
idle host the scale is close to 1. Measured figures are printed too.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import SIZED, TRACED, Recorder, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

# Plain single-threaded baseline: BLAS threads help the catalog but slow
# dense-sweep and widen the spread of random-small.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

WORKLOAD_NAMES = ("catalog", "dense-sweep", "random-small")
MIN_PASSES = 2
# A model shorter than REP_SECONDS in the warm-up runs about REP_SECONDS worth
# of times per timed pass, at most MAX_REPS, so that its median scaled time
# comes from more runs.
REP_SECONDS = 0.25
MAX_REPS = 8
SETUP_PROBES = 7
TAIL_BEYOND = 10
# Nominal CPU seconds of one reference() call, about its time on an idle
# 2-core Intel Xeon KVM guest. Timings are scaled to this speed.
REF_S = 0.0085
# reference() calls timed before and after each set-up probe
REF_AROUND_SETUP = 5
# Share of a model's time spent on the reference() calls around each run
REF_SHARE = 0.1


CLOCK = time.process_time


class Pass(list):
    """A pass's rows; `digest` is the sha256 of its concatenated report
    texts and `refs` the reference() times taken between the model runs.
    Only the digest of the texts is kept, so that memory does not grow with
    the number of passes."""

    digest = ""
    refs = ()


@dataclass
class Row:
    """One model in one pass: for each of its runs, the CPU seconds, the wall
    seconds and the CPU seconds scaled to the reference's nominal speed."""

    name: str
    seconds: list
    wall: list
    scaled: list
    report: object  # kept in the warm-up pass only
    problems: list


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_program():
    """Pin BLAS threads, then import evpos from this checkout's src/."""
    if not (SRC / "evpos" / "__init__.py").is_file():
        sys.exit(f"error: no evpos sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import evpos
    import workloads

    if Path(evpos.__file__).resolve().parent != SRC / "evpos":
        sys.exit(f"error: evpos imported from {evpos.__file__}, not {SRC}")
    return workloads


@functools.cache
def reference_inputs() -> tuple:
    """The reference's matrices and its product buffer, built once so that
    reference() touches no new page."""
    import numpy

    rng = numpy.random.default_rng(0)
    return rng.normal(size=(64, 64)), rng.normal(size=(256, 256)), numpy.zeros((256, 256))


def reference() -> float:
    """CPU seconds of a fixed computation that does not use evpos, with about
    equal times of the three kinds of work a model does: Python integer
    arithmetic, small eigenvalue solves and dense BLAS products. Its time
    tells how fast the host runs now; the mix matters, because contention
    slows interpreted Python more than BLAS."""
    import numpy

    small, large, product = reference_inputs()
    start = CLOCK()
    x = 0
    for k in range(45000):
        x += k * k
    for _ in range(3):
        numpy.linalg.eigvals(small)
    for _ in range(4):
        numpy.matmul(large, large, out=product)
    return CLOCK() - start


def measure_setup(args) -> tuple:
    """(CPU seconds, wall seconds, reference seconds): the first two from the
    start of a fresh process until its inputs are built, the CPU time as the
    process itself reports it; the last the mean reference() time around it.
    The process inherits this one's CPU."""
    refs = [reference() for _ in range(REF_AROUND_SETUP)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    word, _, cpu = line.partition(" ")
    if child.returncode != 0 or word != "ready":
        sys.exit(f"error: set-up probe failed with code {child.returncode}")
    refs += [reference() for _ in range(REF_AROUND_SETUP)]
    return float(cpu), elapsed, statistics.mean(refs)


def run_pass(workloads, cases, seed, reps=None, ref_calls=None, recorder=None,
             keep_reports=False) -> Pass:
    """Classify every model once, in workload order, then run again, in
    further rounds, each model i that has reps[i] > 1, so that a short model's
    runs spread over the pass. The digest covers the first round; a later run
    whose report differs from the model's first is a problem of the model.
    Model i's runs are scaled by the mean of ref_calls[i] reference() calls
    made right before and as many right after each run."""
    reps = reps or [1] * len(cases)
    ref_calls = ref_calls or [1] * len(cases)
    rows, texts, first, refs = Pass(), hashlib.sha256(), [], []
    for rnd in range(max(reps)):
        for i, case in enumerate(cases):
            if rnd >= reps[i]:
                continue
            before = [reference() for _ in range(ref_calls[i])]
            wall = time.perf_counter()
            start = CLOCK()
            report, text, error = None, None, None
            try:
                if recorder is None:
                    report, solver_failure, text = workloads.classify(case, seed)
                else:
                    recorder.model = case.name
                    report, solver_failure, text = recorder.span(
                        "bench.model", workloads.classify, case, seed)
            except Exception as exc:  # a model that raises is a failed model
                error = f"raised {type(exc).__name__}: {exc}"
            cpu, wall = CLOCK() - start, time.perf_counter() - wall
            around = before + [reference() for _ in range(ref_calls[i])]
            refs += around
            scaled = cpu * REF_S / statistics.mean(around)
            problems = [error] if error else workloads.check(case, report, solver_failure)
            if rnd == 0:
                texts.update((text or "").encode())
                first.append(text)
                rows.append(Row(case.name, [cpu], [wall], [scaled],
                                report if keep_reports else None, problems))
                continue
            row = rows[i]
            row.seconds.append(cpu)
            row.wall.append(wall)
            row.scaled.append(scaled)
            if text != first[i]:
                problems = problems + ["report differs from the model's first run in the pass"]
            row.problems += [p for p in problems if p not in row.problems]
    rows.digest = texts.hexdigest()
    rows.refs = refs
    return rows


def repeats(warm_up) -> tuple:
    """(runs per timed pass, reference() calls on each side of a run) for
    each model, from its warm-up time."""
    times = [max(r.seconds[0], 1e-6) for r in warm_up]
    return ([max(1, min(MAX_REPS, round(REP_SECONDS / t))) for t in times],
            [max(1, round(REF_SHARE * t / REF_S / 2)) for t in times])


def scaled_per_model(passes) -> list:
    """Each model's median scaled time over all its runs in the given passes."""
    return [statistics.median(t for p in passes for t in p[i].scaled)
            for i in range(len(passes[0]))]


def best_per_model(passes) -> list:
    """Each model's lowest time over all its runs in the given passes."""
    return [min(min(p[i].seconds) for p in passes) for i in range(len(passes[0]))]


def tail(times):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def check_passes(passes) -> tuple:
    """(correct, attempted, failed): reports must be byte-identical and fail
    the same way in every pass, warm-up included; failed counts the models
    whose output checks failed over the timed passes."""
    first = passes[0]
    correct = all(
        p.digest == first.digest
        and [r.problems for r in p] == [r.problems for r in first]
        for p in passes
    )
    timed = [r for p in passes[1:] for r in p]
    return correct, len(timed), sum(1 for r in timed if r.problems)


def report_passes(passes, attempted, failed):
    print(f"report_sha256 {passes[0].digest} (one pass of {len(passes[0])} reports; "
          f"identical in {sum(p.digest == passes[0].digest for p in passes)}"
          f" of {len(passes)} passes, warm-up included)")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} models)")
    for row in passes[0]:
        for problem in row.problems:
            print(f"  failed {row.name}: {problem}")


def timed_passes(args, run_one, probe=None, probes=0):
    """Call run_one() until --seconds of wall time are used, at least
    MIN_PASSES times; no call starts that the last one says would overrun.
    Between calls, probe() runs `probes` times in all, spread evenly over the
    run so that the probes see its varying load; their time does not count
    against --seconds. Returns (results, probe results)."""
    deadline = time.perf_counter() + args.seconds
    results, probed, last = [], [], 0.0
    while len(results) < MIN_PASSES or time.perf_counter() + last <= deadline:
        left = deadline - time.perf_counter()
        while len(probed) < min(probes, int(probes * (1 - left / args.seconds)) + 1):
            t0 = time.perf_counter()
            probed.append(probe())
            deadline += time.perf_counter() - t0
        t0 = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - t0
    while len(probed) < probes:
        probed.append(probe())
    return results, probed


def end_to_end(args, workloads):
    cases = workloads.WORKLOADS[args.workload](args.seed)
    passes = [run_pass(workloads, cases, args.seed, keep_reports=True)]  # warm-up
    reps, ref_calls = repeats(passes[0])
    timed, setups = timed_passes(args, lambda: run_pass(workloads, cases, args.seed,
                                                        reps, ref_calls),
                                 lambda: measure_setup(args), SETUP_PROBES)
    passes += timed
    runs = f"{len(timed) * min(reps)}-{len(timed) * max(reps)} runs each"
    best = best_per_model(timed)
    pooled = [t for p in timed for r in p for t in r.seconds]
    pass_rate = [sum(len(r.seconds) for r in p) / sum(sum(r.seconds) for r in p)
                 for p in timed]
    pass_s = [sum(sum(r.seconds) for r in p) for p in timed]
    pass_wall = [sum(sum(r.wall) for r in p) for p in timed]
    refs = [t for p in timed for t in p.refs]
    scaled = scaled_per_model(timed)
    setup_scaled = [cpu * REF_S / ref for cpu, _, ref in setups]
    correct, attempted, failed = check_passes(passes)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "models_per_s": (len(cases) / sum(scaled), "1/s"),
        "model_s_p50": (statistics.median(scaled), "s"),
        "model_s_tail": (max(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    slowest = cases[scaled.index(max(scaled))].name
    print(f"reference: REF_S {REF_S} s nominal; {len(refs)} times, median "
          f"{statistics.median(refs):.6f} s, best {min(refs):.6f} s. Measured, from "
          f"each model's best CPU time: models_per_s {len(cases) / sum(best):.6g} 1/s, "
          f"model_s_p50 {statistics.median(best):.6g} s, model_s_tail {max(best):.6g} s")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, CPU s x REF_S / reference "
                   "time around each: " + ", ".join(f"{s:.3f}" for s in setup_scaled)
                   + "; measured CPU s " + ", ".join(f"{cpu:.3f}" for cpu, _, _ in setups)
                   + "; wall s " + ", ".join(f"{wall:.3f}" for _, wall, _ in setups),
        "models_per_s": f"{len(cases)} models over the sum of their scaled times",
        "model_s_p50": f"median over {len(cases)} models of their scaled times, "
                       f"{len(timed)} passes, {runs}",
        "model_s_tail": f"p100 over {len(cases)} models: {slowest}, median of "
                        f"{len(timed) * reps[scaled.index(max(scaled))]} runs",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({notes[name]})")
    tail_s, tail_pct = tail(pooled)
    print(f"all samples: models_per_s {statistics.median(pass_rate):.6g} 1/s "
          f"(median pass; CPU s per pass {', '.join(f'{s:.3f}' for s in pass_s)}; "
          f"runs per model per pass {reps}), "
          f"p50 {statistics.median(pooled):.6g} s (n={len(pooled)}), "
          f"tail {tail_s:.6g} s (p{tail_pct:.1f}, n={len(pooled)}, {TAIL_BEYOND} beyond)")
    print(f"wall s per pass: {', '.join(f'{s:.3f}' for s in pass_wall)} "
          f"(CPU s above, unscaled; the gap is time the CPU was given to other work)")
    report_passes(passes, attempted, failed)
    return correct, attempted, failed, metrics


def per_layer(args, workloads):
    recorder = Recorder()
    recorder.install()
    cases = workloads.WORKLOADS[args.workload](args.seed)
    recorder.uninstall()
    setup_spans = len(recorder.spans)

    def untraced_then_traced():
        # alternating, so that both kinds of pass see the same host load
        untraced = run_pass(workloads, cases, args.seed, ref_calls=ref_calls)
        recorder.install()
        try:
            return [untraced, run_pass(workloads, cases, args.seed, ref_calls=ref_calls,
                                       recorder=recorder)]
        finally:
            recorder.uninstall()

    passes = [run_pass(workloads, cases, args.seed, keep_reports=True)]  # warm-up
    _, ref_calls = repeats(passes[0])
    pairs, _ = timed_passes(args, untraced_then_traced)
    passes += [p for pair in pairs for p in pair]
    half = len(pairs)
    correct, attempted, failed = check_passes(passes)

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{args.workload}.jsonl"  # the last traced run
    recorder.dump(trace_file)

    setup = layer_totals(recorder.spans, 0, setup_spans)
    timed = layer_totals(recorder.spans, setup_spans)
    metrics = {}
    for module, fn in TRACED:
        name = f"{module}.{fn}"
        calls, self_s, _ = setup.get(name, (0, 0.0, 0))
        t_calls, t_self, _ = timed.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls + t_calls / half, "count")
        metrics[f"{name}.self_s"] = (self_s + t_self / half, "s")
    for name, (metric, _) in SIZED.items():
        metrics[metric] = (timed.get(name, (0, 0.0, 0))[2] / half, "B")

    # verdicts from the warm-up pass; the digests show every pass matches it
    traced_rows = [r for p in passes[2::2] for r in p]
    reports = [r.report for r in passes[0] if r.report is not None]
    statuses = [v["status"]["kind"] for rep in reports for v in rep.classification]
    metrics["classify.undetermined_frac"] = (
        statuses.count("undetermined") / max(1, len(statuses)), "ratio")
    metrics["classify.hierarchy_violations"] = (
        sum(len(workloads.hierarchy_violations(workloads.verdicts(rep)))
            for rep in reports), "count")
    metrics["verify.checks_run"] = (
        sum(len(rep.checks) for rep in reports) / max(1, len(reports)), "count")
    metrics["verify.solver_failures"] = (
        sum("solver failure" in r.problems for r in traced_rows) / half, "count")

    # scaled time per model over the untraced passes and over the traced ones,
    # where a model's time is that of its top-level span
    untraced = scaled_per_model(passes[1::2])
    top = scaled_per_model(passes[2::2])
    overhead = sum(top) / sum(untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.top_span_s_p50"] = (statistics.median(top), "s")
    metrics["trace.untraced_model_s_p50"] = (statistics.median(untraced), "s")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"per pass: counts and self times (measured CPU s, not scaled) averaged over "
          f"{half} traced passes; catalog.* and generators.* are per set-up")
    print(f"tracing overhead {overhead:.4f} = traced / untraced scaled model times over "
          f"{half} passes each (base: {sum(untraced):.3f} s untraced); "
          f"top-level span p50 {statistics.median(top):.4g} s vs untraced p50 "
          f"{statistics.median(untraced):.4g} s x overhead = "
          f"{statistics.median(untraced) * overhead:.4g} s")
    print(f"trace: {len(recorder.spans)} spans written to {trace_file}")
    report_passes(passes, attempted, failed)
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process and the set-up probes it starts, so that the
    # reference times the CPU the models run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = import_program()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(f"ready {time.process_time()!r}", flush=True)  # CPU s since exec
        return 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    run = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = run(args, workloads)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
