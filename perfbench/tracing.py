"""The traced run: wrap gpdkit's functions from outside, record one span
per call, and reduce the spans to per-layer metrics.

Each module of the package is a layer.  A wrapped function is replaced in
every namespace of the package that binds it (modules import one another's
functions by name), and a wrapped method is replaced on its class.  The
hot inner helpers (``eval_word``, ``compose_presmap``, ``mul``) are not
wrapped: they run 10^5 times per operation.

A span is ``[id, parent id, name, start, end, op id, count]``.  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus its child spans' durations (one thread, so children never
overlap).  Busy time sums the spans of a function that have no ancestor
span of the same function.

Every per-layer count and time is reported per operation of the traced
rounds, so it does not depend on how many operations fit in the run.
Times are converted to reference speed (see ``run.py``).
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "documents", "core", "presentations", "vankampen", "xmod", "dblgpd")

# (binding, reported stats, workloads on which the binding must be called)
TABLE = (
    ("cli.main", ("calls", "self_s"), ("cli-corpus", "large-complex")),
    ("cli.build_parser", ("calls", "busy_s"), ("cli-corpus", "large-complex")),
    ("documents.load_document", ("calls", "busy_s"), ("cli-corpus", "large-complex")),
    ("core.finite_group", ("calls", "busy_s"), ("xmod-squares",)),
    ("core.FiniteGroup.validate", ("calls", "busy_s"), ("xmod-squares",)),
    ("core.from_group", ("calls", "busy_s"), ("xmod-squares",)),
    ("core.battery", ("calls", "busy_s"), ("xmod-squares",)),
    ("core.check_morphism", ("calls", "busy_s"), ("xmod-squares",)),
    ("presentations.enumerate_pres_morphisms", ("calls", "busy_s", "found"), ("pushout-search",)),
    ("presentations.verify_pushout_universal", ("calls", "busy_s", "self_s", "pairs"),
     ("pushout-search",)),
    ("presentations.pushout", ("busy_s",), ("pushout-search",)),
    ("presentations.spanning_tree", ("calls", "busy_s"), ("large-complex",)),
    ("presentations.Quiver.validate", ("calls", "busy_s"), ("large-complex",)),
    ("presentations.vertex_group_presentation", ("calls", "busy_s"), ("large-complex",)),
    ("vankampen.skeleton_components", ("calls", "busy_s"), ("large-complex",)),
    ("vankampen.fundamental_groupoid", ("calls", "busy_s"), ("large-complex",)),
    ("vankampen.check_cover", ("calls", "busy_s"), ("large-complex",)),
    ("vankampen.vkt_square", ("calls", "busy_s", "self_s"), ("pushout-search",)),
    ("xmod.check_axioms", ("calls", "busy_s"), ("xmod-squares",)),
    ("xmod.kernel_central_check", ("calls", "busy_s"), ("xmod-squares",)),
    ("xmod.automorphism_group", ("calls", "busy_s"), ("xmod-squares",)),
    ("xmod.check_xmod_morphism", ("calls", "busy_s"), ("xmod-squares",)),
    ("xmod.morphisms_over", ("calls", "busy_s"), ("xmod-squares",)),
    ("xmod.morphisms_from_free", ("calls", "busy_s"), ("xmod-squares",)),
    ("dblgpd.from_xmod", ("calls", "busy_s", "squares"), ("xmod-squares",)),
    ("dblgpd.to_xmod", ("calls", "busy_s"), ("xmod-squares",)),
    ("dblgpd.commutative_cube_check", ("calls", "busy_s"), ("xmod-squares",)),
    ("dblgpd.compose_array", ("calls", "busy_s"), ("xmod-squares",)),
    ("dblgpd.interchange_check", ("calls", "busy_s"), ("xmod-squares",)),
)

# binding -> (metric, count taken from the call's arguments and return
# value).  The CLI prints its report into the operation's fresh StringIO,
# so the position of standard output after ``main`` is the report's size.
COUNTS = {
    "cli.main": ("cli.report_bytes", lambda args, r: sys.stdout.tell()),
    "documents.load_document":
        ("documents.bytes_read", lambda args, r: os.path.getsize(args[0])),
    "presentations.enumerate_pres_morphisms":
        ("presentations.enumerate_pres_morphisms.found", lambda args, r: len(r)),
    "presentations.verify_pushout_universal":
        ("presentations.verify_pushout_universal.pairs",
         lambda args, r: sum(t.compatible_pairs for t in r.per_target)),
    "dblgpd.from_xmod": ("dblgpd.from_xmod.squares", lambda args, r: len(r)),
    # sizes for the scaling ladders
    "core.finite_group": ("core.finite_group.order", lambda args, r: len(r)),
    "vankampen.vkt_square":
        ("vankampen.vkt_square.candidates",
         lambda args, r: sum(t.direct_morphisms for t in r.evidence)),
}

# Counts reported under the layer's name rather than a function's.
LAYER_COUNTERS = (
    ("cli.report_bytes", "bytes", ("cli-corpus", "large-complex")),
    ("documents.bytes_read", "bytes", ("cli-corpus", "large-complex")),
)

# ladder -> (binding, {row: (op class, fixed size or None to use the span count)})
# A row's value is the median duration of one call in it; the slope is the
# least-squares fit of log(duration) against log(size) over the rows.  Sizes:
# compatible pairs over the battery, direct morphism candidates over the
# battery, complex vertices, group order.
LADDERS = {
    "wedge": ("presentations.verify_pushout_universal",
              {"1x1": ("wedge-1x1", None), "1x2": ("wedge-1x2", None)}),
    "bouquet": ("vankampen.vkt_square",
                {f"k{k}": (f"bouquet-k{k}", None) for k in (2, 3, 4, 5)}),
    "torus": ("cli.main",
              {f"n{n}": (f"pi1-n{n}", n * n) for n in (8, 10, 12, 14, 16, 18, 20)}),
    "group": ("core.finite_group",
              {f"order{n}": (None, n) for n in (8, 12, 16, 24)}),
}

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "found": "count",
         "pairs": "count", "squares": "count"}


def per_layer_spec():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for binding, stats, _ in TABLE:
        for stat in stats:
            better = "higher" if UNITS[stat] == "count" and stat != "calls" else "lower"
            out.append((f"{binding}.{stat}", UNITS[stat], better))
    out += [(name, unit, "lower") for name, unit, _ in LAYER_COUNTERS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for ladder, (_, rows) in LADDERS.items():
        out += [(f"ladder.{ladder}.{row}.busy_s", "s", "lower") for row in rows]
        out.append((f"ladder.{ladder}.slope", "log-log", "lower"))
    out += [
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Holds the spans of one run and the wrappers it swaps into gpdkit.

    ``enable(True)`` wraps every function of TABLE plus the CLI's ``cmd_*``
    handlers in every namespace of the package that binds them;
    ``enable(False)`` puts the originals back, so traced and untraced
    rounds can alternate within one run.
    """

    def __init__(self, gk):
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.op_classes = [None]  # op id -> operation class
        self.op_segments = [None]  # op id -> index of its timing segment
        self.segment = None
        self.patches = _patches(self, gk)
        self.enabled = False

    def enable(self, on):
        if on != self.enabled:
            for owner, attr, original, traced in self.patches:
                setattr(owner, attr, traced if on else original)
            self.enabled = on

    def _span(self, name, fn, args, kwargs, count):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            span = [sid, parent, name, t0, t1, len(self.op_classes) - 1, None]
            self.spans.append(span)
        if count is not None:
            span[6] = count(args, result)
        return result

    def call_op(self, cls, fn):
        """Run one operation under a root span named ``op``."""
        self.op_classes.append(cls)
        self.op_segments.append(self.segment)
        return self._span("op", fn, (), {}, None)

    def wrap(self, name, fn):
        count = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, count)

        return traced


def _patches(tracer, gk):
    """``(owner, attribute, original, wrapper)`` for every binding to wrap."""
    modules = {layer: getattr(gk, layer) for layer in LAYERS}
    namespaces = [gk] + list(modules.values())
    handlers = [f"cli.{n}" for n in vars(modules["cli"]) if n.startswith("cmd_")]
    patches = []
    for binding in [b for b, _, _ in TABLE] + handlers:
        layer, *path = binding.split(".")
        if len(path) == 2:
            cls = getattr(modules[layer], path[0])
            original = cls.__dict__[path[1]]
            patches.append((cls, path[1], original, tracer.wrap(binding, original)))
            continue
        original = getattr(modules[layer], path[0])
        traced = tracer.wrap(binding, original)
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if value is original:
                    patches.append((ns, attr, original, traced))
    return patches


def _slope(points):
    if len(points) < 2:
        return 0.0
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def reduce_spans(tracer, workload, op_scale=None):
    """Per-layer metrics from the spans, and the expected bindings that
    recorded no call on this workload.  ``op_scale[op]`` converts the
    durations of an operation's spans to reference speed."""
    spans = tracer.spans
    op_classes = tracer.op_classes
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += s[4] - s[3]
    stats = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    durations = defaultdict(list)  # (binding, op class, count) -> call durations
    for s in spans:
        sid, parent, name, t0, t1, op, count = s
        if name == "op":
            continue
        scale = op_scale[op] if op_scale else 1.0
        stat = stats[name]
        stat["calls"] += 1
        self_t = ((t1 - t0) - child_time[sid]) * scale
        stat["self_s"] += self_t
        layer_self[name.split(".", 1)[0]] += self_t
        while parent and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if not parent:
            stat["busy_s"] += (t1 - t0) * scale
        if count is not None:
            counts[COUNTS[name][0]] += count
        durations[(name, op_classes[op], count)].append((t1 - t0) * scale)

    ops = max(1, len(op_classes) - 1)
    metrics = {}
    for binding, stat in stats.items():
        for key, value in stat.items():
            metrics[f"{binding}.{key}"] = value / ops
    for name, value in counts.items():
        metrics[name] = value / ops
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / ops
    for ladder, (binding, rows) in LADDERS.items():
        points = []
        for row, (cls, size) in rows.items():
            times, sizes = [], []
            for (name, op_cls, count), ts in durations.items():
                if name != binding:
                    continue
                if cls is not None and op_cls != cls:
                    continue
                if cls is None and count != size:
                    continue
                times += ts
                sizes.append(size if size is not None else count)
            value = statistics.median(times) if times else 0.0
            metrics[f"ladder.{ladder}.{row}.busy_s"] = value
            if times:
                points.append((statistics.median(sizes), value))
        metrics[f"ladder.{ladder}.slope"] = _slope(points)

    missing = [
        binding for binding, _, workloads in TABLE
        if workload in workloads and not stats[binding]["calls"]
    ]
    missing += [
        name for name, _, workloads in LAYER_COUNTERS
        if workload in workloads and not counts[name]
    ]
    return metrics, missing
