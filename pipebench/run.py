#!/usr/bin/env python3
"""Pipeline benchmark for cicsim.

Usage, from the repository root::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Workloads: ``campaign``, ``long-safe``, ``report-none`` (see README.md).
One process, one thread, a closed loop of ops.  The untraced run
(``--trace 0``) reports the end-to-end metrics; the traced run
(``--trace 1``) reports per-layer timings, exact counters and the tracing
overhead, and writes its spans to ``pipebench/out/``.  The line before
the last holds the run record (environment, sample counts, counters,
report digest); the last line is the result object.  A held-out check is
a run with a --seed that no development run used (say 10**9 + n).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 15
# Inputs are sized so that one pass takes about PASS_SECONDS on the
# baseline machine, and --seconds buys one pass per PASS_SECONDS (at least
# MIN_PASSES).  The count depends on --seconds alone: an item's best time
# over the passes depends on how many passes it had.
PASS_SECONDS = 5
MIN_PASSES = 3
TRACED_RUN_PASSES = 2  # untraced, before the traced pass
# Times are reported at the speed at which the reference loop takes
# REFERENCE_S, about its uncontended time on the baseline machine.  The
# loop does what the ops do most (reads list items, builds small tuples,
# strings and dict entries), so other tenants' contention slows it as it
# slows them; an arithmetic-only loop tracked op times about half as well.
REFERENCE_DATA = list(range(1 << 16))
REFERENCE_STRIDE = 97
REFERENCE_S = 120e-6
REFERENCE_WINDOW = 2
SETUP_REFERENCE_LOOPS = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cicsim; "
    "print(time.perf_counter() - t, cicsim.__file__)"
)


class Tracer:
    """In-memory spans (name, start, end, parent span, op index)."""

    def __init__(self):
        self.spans: list = []
        self.parent = -1
        self.op = -1
        self.scale: list[float] = []  # per op: wall time -> reference speed

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self.parent = self.parent, idx
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.parent = parent
            self.spans[idx] = (name, start, end, parent, self.op)


def direct(name, fn, *args):
    return fn(*args)


def import_seconds() -> float:
    """Time to import cicsim from this checkout in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, where = out.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported cicsim from {where}, not from {SRC}")
    return float(seconds)


def _reference_body() -> None:
    kept = {}
    for i in range(0, len(REFERENCE_DATA), REFERENCE_STRIDE):
        kept[i & 255] = (REFERENCE_DATA[i], str(i))


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop.  It runs once untimed first,
    so what the preceding code left in the caches does not change its
    time, and the cyclic collector is off meanwhile, so neither does what
    the heap holds: no change to cicsim can move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_body()
        t0 = perf_counter()
        _reference_body()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_time() -> float:
    """Median of SETUP_REFERENCE_LOOPS reference loops."""
    return statistics.median(reference_loop() for _ in range(SETUP_REFERENCE_LOOPS))


def setup(workload, start: int, reps: int):
    """Import plus input building, ``reps`` times; returns the inputs and
    the median set-up time at reference speed."""
    times = []
    for _ in range(reps):
        before = reference_time()
        seconds = import_seconds()
        t0 = perf_counter()
        items = workload.build(start)
        seconds += perf_counter() - t0
        times.append(seconds * 2 * REFERENCE_S / (before + reference_time()))
    return items, statistics.median(times)


def one_pass(workload, items, tracer=None, counters=None):
    """Every item once, in order.  Returns each op's time at reference
    speed, each op's wall time, and the failures.

    The reference loop runs right before and right after each op; the op's
    wall time is scaled by REFERENCE_S over the median loop time of the
    ops within REFERENCE_WINDOW of it (each op's loop time being the mean
    of its two).  Other tenants of a shared machine slow op and loop alike,
    so the scaled time keeps the program's cost and drops theirs."""
    call = tracer.call if tracer else direct
    refs, walls, failures = [], [], []
    for i, item in enumerate(items):
        problems = []
        if tracer:
            tracer.op += 1
        before = reference_loop()
        t0 = perf_counter()
        try:
            if tracer:
                result = tracer.call("op", workload.op, item, call)
            else:
                result = workload.op(item, call)
        except Exception:  # an op that raises is a failed op, not a crash
            problems = [traceback.format_exc(limit=3)]
        walls.append(perf_counter() - t0)
        refs.append((before + reference_loop()) / 2)
        if not problems:
            try:
                problems = workload.check(item, result, call)
                if tracer:
                    seen = tracer.call("probe", workload.probe, item, result, call)
                    for triple in seen:
                        counters.add(*triple)
            except Exception:  # a check or probe that raises fails the op
                problems = [traceback.format_exc(limit=3)]
        if problems:
            failures.append((i, problems))
    w = REFERENCE_WINDOW
    scales = [REFERENCE_S / statistics.median(refs[max(0, i - w): i + w + 1])
              for i in range(len(refs))]
    if tracer:
        tracer.scale += scales
    return [wall * scale for wall, scale in zip(walls, scales)], walls, failures


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def timing_metrics(times) -> dict:
    """Throughput, median and 90th percentile of one time per op."""
    q = statistics.quantiles(times, n=10)
    return {"ops_per_s": len(times) / sum(times), "op_p50_ms": q[4] * 1e3, "op_p90_ms": q[8] * 1e3}


def best_of(passes) -> list[float]:
    """Each item's fastest time over the passes."""
    return [min(times) for times in zip(*passes)]


def layer_metrics(tracer, ops: int, names) -> tuple[dict, dict]:
    """Mean seconds per op (at reference speed) in each named call, and
    each call's share of the op time (only calls the op itself makes; the
    rest is benchmark glue)."""
    spans, scale = tracer.spans, tracer.scale
    total = dict.fromkeys(names, 0.0)
    in_op = {}
    op_time = 0.0
    for name, start, end, parent, op in spans:
        took = (end - start) * scale[op]
        if name == "op":
            op_time += took
        elif name in total:
            total[name] += took
            if parent >= 0 and spans[parent][0] == "op":
                in_op[name] = in_op.get(name, 0.0) + took
    share = {name: t / op_time for name, t in sorted(in_op.items())}
    share["bench"] = 1.0 - sum(share.values())
    return {name: t / ops for name, t in total.items()}, share


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import cicsim

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        # Results from different closure kernels are not comparable.
        "kernel": getattr(cicsim, "KERNEL", "python"),
    }


def measure(workload, seed: int, passes: int, trace: bool, setup_reps: int = SETUP_REPS):
    """One benchmark run; returns (result object, run record).

    ``passes`` untraced passes over the inputs, then, for a traced run,
    one traced pass; the tracing overhead is its difference from the last
    untraced pass (the first one also warms the heap up)."""
    import workloads

    items, setup_s = setup(workload, seed, setup_reps)
    plain, walls, failures = [], [], []
    for _ in range(passes):
        times, wall, failed = one_pass(workload, items)
        plain.append(times)
        walls.append(wall)
        failures += failed
    best = best_of(plain)
    record = {
        "inputs_per_pass": len(items),
        "passes": len(plain),
        "setup_reps": setup_reps,
        # The same figures from unscaled wall times, to show the scaling.
        "wall": timing_metrics(best_of(walls)),
    }
    if not trace:
        metrics = {name: (value, UNITS[name]) for name, value in timing_metrics(best).items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (setup_s, "s")
        record["samples_beyond_p90"] = sum(d > metrics["op_p90_ms"][0] / 1e3 for d in best)
    else:
        tracer, counters = Tracer(), workloads.Counters()
        traced, _, failed = one_pass(workload, items, tracer, counters)
        failures += failed
        per_op, share = layer_metrics(tracer, len(items), workloads.TIMINGS)
        metrics = {name: (value, "s") for name, value in per_op.items()}
        for name, value in counters.metrics().items():
            metrics[name] = (value, workloads.UNITS.get(name, "count"))
        untraced = sum(plain[-1])
        overhead = sum(traced) - untraced
        metrics["bench.tracing_overhead_s"] = (overhead, "s")
        record.update(untraced_pass_s=untraced, tracing_overhead_share=overhead / untraced,
                      op_share=share, counters=counters.metrics(),
                      report_sha256=counters.digest())
        write_spans(workload.name, tracer, record)
    record["failures"] = [[i, p[:3]] for i, p in failures[:5]]
    result = {
        "correct": not failures,
        "attempted": len(items) * (passes + trace),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def write_spans(name: str, tracer, record) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, s - t0, e - t0, p, op] for n, s, e, p, op in tracer.spans]
    with open(out / f"spans-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "spans": spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("campaign", "long-safe", "report-none"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cicsim" / "__init__.py").is_file():
        print(f"pipebench: no cicsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    passes = TRACED_RUN_PASSES if args.trace else max(MIN_PASSES, round(args.seconds / PASS_SECONDS))
    result, record = measure(workload, args.seed, passes, bool(args.trace))
    record["environment"] = environment(args)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
