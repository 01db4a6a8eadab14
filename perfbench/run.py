"""gpdkit benchmark: closed-loop workloads, one client on one thread.

Run from the repository root::

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run imports gpdkit from ``src/``, builds the workload's seeded inputs,
runs one warm-up pass, and then runs whole rounds of operations until
``--seconds`` have passed and at least MIN_OPS operations were timed.
Every operation's result is checked against its oracle.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller result
file, and the spans of a traced run, go to ``.perfbench-out/``.

Times are reported at reference speed.  The CPU speed of a shared virtual
machine drifts by up to 2x over minutes, and the drift is common to all
Python code.  So every REF_EVERY_S between operations, and around each
set-up, the run times ``reference()``, a fixed piece of pure-Python work
that does not touch gpdkit, and divides every duration measured in between
by the reference's duration in milliseconds.  The unit is thus the time
the same work takes where ``reference()`` takes 1 ms.  A change to gpdkit
moves these figures as it moves wall-clock time; a drift of the machine
moves both the duration and the reference, and cancels.  The result file
also records the raw wall-clock figures and every reference timing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench-out")

SETUPS = 3  # set-up repetitions per run; setup_s is their median
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_FAILURES_KEPT = 20
REF_ITERATIONS = 2000  # reference() then takes about 1 ms on the reference machine
REF_EVERY_S = 0.1  # time the reference again after this much operation time

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ops_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def reference():
    """Fixed pure-Python work that does not touch gpdkit: tuple-keyed dict
    updates in an interpreted loop, then building and using a small
    argparse parser.  Machine-speed drift slows the two unequally, and
    their sum tracks every workload's mix better than either alone."""
    table = {}
    for i in range(REF_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for k in range(3):
        command = commands.add_parser(f"c{k}")
        command.add_argument("path")
        command.add_argument("--option")
    return table, parser.parse_args(["c1", "path", "--option", "1"])


def reference_ms():
    """The duration of one ``reference()`` call in ms, median of five."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1000


def fresh_gpdkit():
    """Import gpdkit (and its CLI) anew from ``src/``."""
    for name in [m for m in sys.modules if m == "gpdkit" or m.startswith("gpdkit.")]:
        del sys.modules[name]
    gk = importlib.import_module("gpdkit")
    importlib.import_module("gpdkit.cli")
    return gk


def setup(workload, seed):
    """Import, generate the seeded inputs, and run one warm-up pass: one
    operation of every class, each checked against its oracle."""
    gk = fresh_gpdkit()
    rng = random.Random(f"{workload}:{seed}")
    workdir = OUT / "inputs" / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](gk, rng, workdir)
    failures = []
    for op in one_per_class(ops):
        _attempt(op, failures, op.run)
    return gk, ops, rng, failures


def one_per_class(ops):
    """The first operation of every class, in round order."""
    first = {}
    for op in ops:
        first.setdefault(op.cls, op)
    return list(first.values())


def _attempt(op, failures, call):
    """Run one operation and check it; returns its latency in seconds."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises is a failed op
        latency = time.perf_counter() - t0
        failures.append(f"{op.cls}: raised {type(exc).__name__}: {exc}")
        return latency
    latency = time.perf_counter() - t0
    problem = op.check(result)
    if problem:
        failures.append(f"{op.cls}: {problem}")
    return latency


@dataclass
class Segment:
    """Operations run between two reference timings."""

    traced: bool
    latencies: list  # (class, seconds)
    wall: float  # seconds, reference timings excluded
    ref_ms: float  # mean of the reference timings before and after


def closed_loop(ops, rng, seconds, min_ops, tracer=None):
    """Run shuffled whole rounds until ``seconds`` have passed and at least
    ``min_ops`` operations ran.  The reference is timed again whenever
    REF_EVERY_S have passed, between operations.  With a tracer, rounds
    alternate between untraced and traced, so both see the same machine.
    Returns the segments and the failures."""
    segments = []
    failures = []
    ref_before = reference_ms()
    start = time.perf_counter()
    while True:
        walls = [sum(g.wall for g in segments if g.traced == t) for t in (False, True)]
        traced = tracer is not None and walls[0] > 0 and walls[1] < walls[0]
        if tracer is not None:
            tracer.enable(traced)
        order = list(ops)
        rng.shuffle(order)
        latencies, wall = [], 0.0
        for k, op in enumerate(order):
            if traced:
                tracer.segment = len(segments)
            call = (lambda: tracer.call_op(op.cls, op.run)) if traced else op.run
            t0 = time.perf_counter()
            latencies.append((op.cls, _attempt(op, failures, call)))
            wall += time.perf_counter() - t0
            if wall >= REF_EVERY_S or k == len(order) - 1:
                ref_after = reference_ms()
                segments.append(Segment(traced, latencies, wall, (ref_before + ref_after) / 2))
                ref_before = ref_after
                latencies, wall = [], 0.0
        if (time.perf_counter() - start >= seconds
                and sum(len(g.latencies) for g in segments) >= min_ops
                and (tracer is None or any(g.traced for g in segments))):
            break
    if tracer is not None:
        tracer.enable(False)
    return segments, failures


def timing(segments, calibrated=True):
    """Latency percentiles, throughput and per-class medians of untraced
    segments, at reference speed or raw."""
    values, by_class = [], {}
    ops, wall = 0, 0.0
    for g in segments:
        if g.traced:
            continue
        scale = 1 / g.ref_ms if calibrated else 1.0
        for cls, t in g.latencies:
            values.append(t * scale * 1000)
            by_class.setdefault(cls, []).append(t * scale * 1000)
        ops += len(g.latencies)
        wall += g.wall * scale
    values.sort()
    return {
        "op_p50_ms": statistics.median(values),
        "op_p90_ms": values[math.ceil(0.9 * len(values)) - 1],  # nearest rank
        "ops_per_s": ops / wall,
    }, {cls: statistics.median(ts) for cls, ts in sorted(by_class.items())}


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
    }


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    "unknown" outside a git checkout."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args):
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        gc.collect()
        ref_before = reference_ms()
        t0 = time.perf_counter()
        gk, ops, rng, failures = setup(args.workload, args.seed)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] / ((ref_before + reference_ms()) / 2))
    gc.collect()
    attempted = len(one_per_class(ops))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "setup_runs_s": setups,
              "raw_setup_runs_s": raw_setups}

    tracer = tracing.Tracer(gk) if args.trace else None
    segments, loop_failures = closed_loop(
        ops, rng, args.seconds, 1 if args.trace else MIN_OPS, tracer=tracer
    )
    failures += loop_failures
    attempted += sum(len(g.latencies) for g in segments)
    refs = [g.ref_ms for g in segments]
    result.update(reference_ms={"median": statistics.median(refs), "min": min(refs),
                                "max": max(refs)})
    missing = []
    if not args.trace:
        metrics, per_class = timing(segments)
        metrics["ok_ops_ratio"] = (attempted - len(failures)) / attempted
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        raw, _ = timing(segments, calibrated=False)
        raw["setup_s"] = statistics.median(raw_setups)
        result.update(ops_timed=sum(len(g.latencies) for g in segments),
                      op_p50_ms_by_class=per_class, raw_wall_clock=raw)
    else:
        op_scale = [None] + [1 / segments[i].ref_ms for i in tracer.op_segments[1:]]
        all_metrics, missing = tracing.reduce_spans(tracer, args.workload, op_scale)
        throughput = {}
        for traced in (False, True):
            part = [g for g in segments if g.traced == traced]
            throughput[traced] = (sum(len(g.latencies) for g in part)
                                  / sum(g.wall / g.ref_ms for g in part))
        all_metrics["trace.untraced_ops_per_s"] = throughput[False]
        all_metrics["trace.traced_ops_per_s"] = throughput[True]
        all_metrics["trace.overhead_ratio"] = throughput[False] / throughput[True]
        spec = tracing.per_layer_spec()
        units = {name: unit for name, unit, _ in spec}
        metrics = {name: all_metrics.get(name, 0.0) for name, _, _ in spec}
        result.update(untraced_ops=sum(len(g.latencies) for g in segments if not g.traced),
                      traced_ops=len(tracer.op_classes) - 1,
                      all_layer_metrics=all_metrics, missing_calls=missing)
        write_spans(tracer, args)

    correct = not failures and not missing
    result.update(correct=correct, attempted=attempted, failed=len(failures),
                  failed_ops_ratio=len(failures) / attempted,
                  failures=failures[:MAX_FAILURES_KEPT], metrics=metrics)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for problem in failures[:MAX_FAILURES_KEPT]:
        print(f"failed: {problem}", file=sys.stderr)
    for binding in missing:
        print(f"no calls recorded for {binding}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


def write_spans(tracer, args):
    """One header line (environment, class and segment of each op id),
    then one raw span per line."""
    path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with path.open("w") as fh:
        header = {"environment": environment(), "op_classes": tracer.op_classes,
                  "op_segments": tracer.op_segments}
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def smoke():
    """Every workload: one set-up (whose warm-up pass checks one operation
    of every class), then one traced pass over every class with the
    coverage check.  Exit 0 only if every oracle and check holds."""
    bad = 0
    for workload in WORKLOADS:
        gk, ops, rng, failures = setup(workload, seed=0)
        tracer = tracing.Tracer(gk)
        tracer.enable(True)
        classes = one_per_class(ops)
        for op in classes:
            _attempt(op, failures, lambda: tracer.call_op(op.cls, op.run))
        _, missing = tracing.reduce_spans(tracer, workload)
        for problem in failures + [f"no calls recorded for {b}" for b in missing]:
            print(f"{workload}: {problem}")
        bad += len(failures) + len(missing)
        print(f"{workload}: {len(classes)} operation classes, "
              f"{'ok' if not failures and not missing else 'FAILED'}")
    return 0 if not bad else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check every operation class once on every workload")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "src" / "gpdkit" / "__init__.py").is_file():
        print(f"error: no gpdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
