"""Span tracer for the traced benchmark run.

The tracer wraps metriclab's public functions from outside the package: it
rebinds each function's name in every ``metriclab`` module that holds it
(the defining module included, so calls made through module attributes such
as ``tapes.build_p_tape`` are seen too) and restores the originals on
``uninstall``. Nothing under ``src/`` is modified.

Each call of a wrapped function becomes a span (name, start, end, parent,
job id). Spans live in flat ``array`` columns, so a traced ``all`` run with
about 600k ``distance`` calls costs about 30 bytes per span, and are written
out once at the end of the run. A span's self time is its duration minus the
durations of its direct children; the children of one span never overlap
because the benchmark is a single closed-loop caller with no threads.

Self time of a span includes the wrapper cost of its traced children, so
self times of callers of cheap hot functions (``ray_pseudodistance`` calling
``distance``) read high; ``trace.overhead_ratio`` reports the total cost.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Class name of a model space -> the label used in per-model metric names.
MODEL_LABELS = {
    "Euclidean": "euclidean",
    "MinkowskiLp": "minkowski-lp",
    "MinkowskiLinf": "minkowski-linf",
    "HyperbolicPlane": "hyperbolic",
    "SphereIntrinsic": "sphere",
    "RealLine": "real-line",
    "MaxProduct": "max-product",
    "MetricTree": "tree",
}

# (module, attribute, span name, options) for every traced public function.
# "tag" picks a per-call suffix, "evals" counts calls of the first argument,
# "result" feeds the return value to a counter.
LAYERS = (
    ("metriclab.spaces", "distance", "spaces.distance", {"tag": "model"}),
    ("metriclab.horofn", "ray_pseudodistance", "horofn.ray_pseudodistance", {}),
    ("metriclab.horofn", "busemann_value", "horofn.busemann_value", {"tag": "method"}),
    ("metriclab.horofn", "spherical_shadow_sample", "horofn.spherical_shadow_sample", {}),
    ("metriclab.verify", "is_isometry", "verify.is_isometry", {"result": "pairs"}),
    ("metriclab.verify", "preserves_unit_distance", "verify.preserves_unit_distance",
     {"result": "pairs"}),
    ("metriclab.verify", "check_metric_axioms", "verify.check_metric_axioms", {}),
    ("metriclab.grasshopper", "grasshopper_distance", "grasshopper.grasshopper_distance", {}),
    ("metriclab.grasshopper", "tree_offset_class_nodes", "grasshopper.tree_offset_class_nodes",
     {"result": "nodes"}),
    ("metriclab.transfers", "transfer_param", "transfers.transfer_param", {}),
    ("metriclab.numeric", "bisect_root", "numeric.bisect_root", {"evals": True}),
    ("metriclab.numeric", "golden_min", "numeric.golden_min", {"evals": True}),
    ("metriclab.tapes", "build_p_tape", "tapes.build_p_tape", {}),
    ("metriclab.tapes", "validate_p_tape", "tapes.validate_p_tape", {}),
    ("metriclab.cli", "emit_report", "cli.emit_report", {}),
)

SPAN_COLUMNS = ("name", "start", "end", "parent", "job")


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counters = defaultdict(int)
        self._undo = []

    def intern(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, label: str):
        i = self._open(self.intern(label))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, label: str, tag=None, evals=False, result=None):
        """``fn`` recording one span per call. The body repeats ``_open`` and
        ``_close`` inline with local names: ``distance`` is called millions
        of times per traced cycle, and the saved lookups cut the overhead."""
        nid = self.intern(label)
        name_col, start_col, end_col = self.name, self.start, self.end
        parent_col, job_col, stack = self.parent, self.job, self.stack
        counters, clock, intern, tracer = self.counters, time.perf_counter, self.intern, self
        model_ids = {}

        def tag_model(args, kwargs):
            cls = type(args[0] if args else kwargs["space"]).__name__
            sid = model_ids.get(cls)
            if sid is None:
                sid = model_ids[cls] = intern(f"{label}@{MODEL_LABELS.get(cls, 'other')}")
            return sid

        def tag_method(args, kwargs):
            kind = "limit" if kwargs.get("method") == "limit" else "closed"
            return intern(f"{label}@{kind}")

        tagger = {"model": tag_model, "method": tag_method, None: None}[tag]
        eval_key = label + ".evals"

        def traced(*args, **kwargs):
            if evals:
                inner = args[0]

                def counted(x):
                    counters[eval_key] += 1
                    return inner(x)
                args = (counted,) + args[1:]
            i = len(start_col)
            name_col.append(tagger(args, kwargs) if tagger else nid)
            parent_col.append(stack[-1])
            job_col.append(tracer.job_id)
            end_col.append(0.0)
            stack.append(i)
            start_col.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                stack.pop()
            if result == "pairs":
                counters["verify.pairs"] += out.counts.get("pairs", 0)
            elif result == "nodes":
                counters[label + ".nodes"] += len(out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "metriclab" and not modname.startswith("metriclab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import metriclab.grasshopper as gh
        import metriclab.spaces as sp
        import metriclab.suites as su

        for modname, attr, label, opts in LAYERS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self.wrap(orig, label, **opts))

        raw_build = vars(gh.UnitJumpGraph)["build"]
        gh.UnitJumpGraph.build = staticmethod(
            self.wrap(raw_build.__func__, "grasshopper.UnitJumpGraph.build"))
        self._undo.append((gh.UnitJumpGraph, "build", raw_build))

        for name, fn in list(su.SUITES.items()):
            su.SUITES[name] = self.wrap(fn, f"suites.{name}")
            self._undo.append((su.SUITES, name, fn))

        raw_post_init = sp.Point.__post_init__
        counters = self.counters

        def counted_post_init(point_self):
            counters["spaces.point.validations"] += 1
            raw_post_init(point_self)
        sp.Point.__post_init__ = counted_post_init
        self._undo.append((sp.Point, "__post_init__", raw_post_init))

        # Tree geodesic evaluators are closures handed to GeodesicRef; wrap
        # them as they are stored so every tree point_at call is a span.
        raw_init = sp.GeodesicRef.__init__
        tree_cls = sp.MetricTree
        wrap = self.wrap

        def geodesic_init(geo_self, space, kind, point_at, *rest, **kw):
            if isinstance(space, tree_cls):
                point_at = wrap(point_at, "spaces.point_at@tree")
            raw_init(geo_self, space, kind, point_at, *rest, **kw)
        sp.GeodesicRef.__init__ = geodesic_init
        self._undo.append((sp.GeodesicRef, "__init__", raw_init))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def aggregate(self):
        """Per span name (and per base name, without the ``@`` tag): calls,
        total duration and total self time. Second result: calls and total
        duration keyed by (span name, parent span name)."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        edge_calls, edge_total = defaultdict(int), defaultdict(float)
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child_time[i]
            p = parent[i]
            if p >= 0:
                edge = (nid, name[p])
                edge_calls[edge] += 1
                edge_total[edge] += dur
        stats = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for nid, label in enumerate(self.names):
            for key in {label, label.split("@")[0]}:
                s = stats[key]
                s["calls"] += calls[nid]
                s["total"] += total[nid]
                s["self"] += own[nid]
        by_parent = {(self.names[c], self.names[p]): {"calls": k, "total": edge_total[(c, p)]}
                     for (c, p), k in edge_calls.items()}
        return dict(stats), by_parent

    def check_nesting(self, eps: float = 1e-9):
        """Problems with span structure: a child outside its parent's
        interval, or a negative self time. Empty when spans nest."""
        problems = []
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            if end[i] < start[i]:
                problems.append(f"span {i} ends before it starts")
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
                if start[i] < start[p] or end[i] > end[p] or self.job[i] != self.job[p]:
                    problems.append(f"span {i} is not inside its parent {p}")
        for i in range(n):
            if end[i] - start[i] - child_time[i] < -eps:
                problems.append(f"span {i} has negative self time")
        return problems

    def dump(self, path: Path, meta: dict):
        """Write the spans: ``<path>.json`` holds the names, column layout
        and run metadata; ``<path>.bin`` holds the columns back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[col, getattr(self, col).typecode] for col in SPAN_COLUMNS],
            "counters": dict(self.counters),
            "meta": meta,
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for col in SPAN_COLUMNS:
                getattr(self, col).tofile(fh)
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh)

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        """Read spans written by ``dump`` (for inspection and tests)."""
        with open(path.with_suffix(".json"), encoding="utf-8") as fh:
            header = json.load(fh)
        tracer = cls()
        tracer.names = header["names"]
        tracer._ids = {label: i for i, label in enumerate(tracer.names)}
        tracer.counters.update(header["counters"])
        with open(path.with_suffix(".bin"), "rb") as fh:
            for col, typecode in header["columns"]:
                column = array(typecode)
                column.fromfile(fh, header["count"])
                setattr(tracer, col, column)
        return tracer
