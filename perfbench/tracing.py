"""Span tracing of gapgauge from outside the package.

The tracer wraps the module attributes that ``harness``, ``cli``, ``io``,
``synth`` and the imputers look up at call time (plus a few class methods),
so a traced rep runs the package's own code with a span around each call
into a layer.  Nothing under ``src/`` knows about it.  ``install`` returns
the originals and ``uninstall`` puts them back, so untraced reps run
unwrapped code.

A span is (id, name, start_ns, end_ns, parent id, thread id, rep id, failed,
extra, cpu_ns).  Names read ``<layer>:<operation>``; the layer is the
gapgauge module the call enters.  Spans opened on a pool worker thread with
no open span of their own take the innermost open span of the main thread
as parent, so per-thread work still hangs under ``harness:run_evaluation``.
Self time is a span's duration minus the union of its children's intervals
inside it.  Work done on different threads is summed per layer, so on a
parallel run the layer self times add up to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

# Which imputer module serves each kind; arima and sarima share one module.
KIND_MODULE = {"polynomial": "polynomial", "seasonal_naive": "seasonal",
               "arima": "arima", "sarima": "arima", "gbt": "gbt"}
KINDS = tuple(KIND_MODULE)
LAYERS = ("gaps", "harness", "imputers.polynomial", "imputers.seasonal",
          "imputers.arima", "imputers.gbt", "metrics", "ranking", "io",
          "cli", "synth", "series")
ROOT_LAYER = "bench"  # the benchmark's own span around each rep


class Span(NamedTuple):
    sid: int
    name: str
    start: int
    end: int
    parent: int
    thread: int
    rep: str
    failed: bool
    extra: object
    cpu_ns: int

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def _impute_name(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return f"imputers.{KIND_MODULE.get(config.kind, 'other')}:fill"


def _impute_kind(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return config.kind


def _view_bytes(args, kwargs, result):
    series = args[0]
    return int(series.values.nbytes + series.observed.nbytes)


def _emitted_bytes(args, kwargs, result):
    return sum(Path(p).stat().st_size for p in result or ())


# (module, attribute or Class.method, span name, extra, record cpu time)
TARGETS = (
    ("gapgauge.cli", "main", "cli:main", None, False),
    ("gapgauge.cli", "run_evaluation", "harness:run_evaluation", None, True),
    ("gapgauge.cli", "ingest_csv", "io:ingest", None, False),
    ("gapgauge.cli", "load_config", "io:load_config", None, False),
    ("gapgauge.cli", "emit_report", "io:emit", _emitted_bytes, False),
    ("gapgauge.cli", "write_series_csv", "io:write_series", None, False),
    ("gapgauge.cli", "synthesize_series", "synth:series", None, False),
    ("gapgauge.synth", "synthesize_series", "synth:series", None, False),
    ("gapgauge.io", "emit_report", "io:emit", _emitted_bytes, False),
    ("gapgauge.harness", "run_evaluation", "harness:run_evaluation", None, True),
    ("gapgauge.harness", "validate", "series:validate", None, False),
    ("gapgauge.harness", "generate_gaps", "gaps:generate", None, False),
    ("gapgauge.harness", "apply_gaps", "gaps:apply", None, False),
    ("gapgauge.harness", "pre_gap_window", "gaps:window", None, False),
    ("gapgauge.harness", "_single_gap_view", "harness:view", _view_bytes, False),
    ("gapgauge.harness", "impute", _impute_name, _impute_kind, False),
    ("gapgauge.harness", "wasserstein_1d", "metrics:wd", None, False),
    ("gapgauge.harness", "jsd", "metrics:jsd", None, False),
    ("gapgauge.harness", "rmse", "metrics:rmse", None, False),
    ("gapgauge.harness", "mae", "metrics:mae", None, False),
    ("gapgauge.harness", "aggregate", "harness:aggregate", None, False),
    ("gapgauge.harness", "rank_agreement", "harness:agreement", None, False),
    ("gapgauge.harness", "spearman", "ranking:spearman", None, False),
    ("gapgauge.harness", "kendall", "ranking:kendall", None, False),
    ("gapgauge.series", "TimeSeries.copy", "series:copy", None, False),
    ("gapgauge.imputers.arima", "slice_series", "series:slice", None, False),
    ("gapgauge.imputers.arima", "forecast", "imputers.arima:forecast", None, False),
    ("gapgauge.imputers.gbt", "causal_features", "imputers.gbt:features", None, False),
    ("gapgauge.imputers.gbt", "GradientBoostedTrees.fit", "imputers.gbt:boost_fit", None, False),
    ("gapgauge.imputers.gbt", "RegressionTree.fit", "imputers.gbt:tree_fit", None, False),
    ("gapgauge.imputers.gbt", "RegressionTree.predict", "imputers.gbt:tree_predict", None, False),
)


# Span names that the traced reps of each workload record on the current
# code.  One that stays empty means a wrapped name has left the call path,
# and the metrics built on it would read 0 as if the work were gone.
_EVERY_RUN = ("harness:run_evaluation", "gaps:generate", "gaps:apply", "gaps:window",
              "harness:view", "imputers.polynomial:fill", "imputers.seasonal:fill",
              "metrics:wd", "metrics:jsd", "metrics:rmse", "metrics:mae",
              "harness:aggregate", "harness:agreement")
_MODELS = ("imputers.arima:fill", "imputers.arima:forecast", "imputers.gbt:fill",
           "imputers.gbt:features", "imputers.gbt:boost_fit", "imputers.gbt:tree_fit",
           "imputers.gbt:tree_predict")
EXPECTED_SPANS = {
    "protocol": _EVERY_RUN + _MODELS,
    "cli_default": _EVERY_RUN + _MODELS + ("cli:main", "io:ingest", "io:load_config", "io:emit"),
    "many_gaps": _EVERY_RUN + ("io:emit",),
}


def absent_spans(spans: list["Span"], workload: str) -> list[str]:
    """Expected span names that no traced rep (or, for synthesis, set-up) recorded."""
    seen = {s.name for s in spans if s.rep.startswith("traced")}
    absent = [name for name in EXPECTED_SPANS[workload] if name not in seen]
    if not any(s.rep == "setup" and s.name == "synth:series" for s in spans):
        absent.append("synth:series")
    return absent


class Tracer:
    """Collects spans in memory; ``rep`` labels the spans of the current rep."""

    def __init__(self):
        self._records: list[tuple] = []
        self.rep = ""
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {self._main: []}
        self._installed: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        return [Span._make(r) for r in self._records]

    def wrap(self, name, fn, extra=None, cpu=False):
        """Return ``fn`` with a span around every call.

        ``name`` is a string or a function of (args, kwargs); ``extra`` is a
        function of (args, kwargs, result) whose value the span keeps.
        """
        records, ids, stacks = self._records, self._ids, self._stacks
        main_stack = stacks[self._main]
        get_ident, clock, cpu_clock = threading.get_ident, time.perf_counter_ns, time.process_time_ns
        name_of = name if callable(name) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            result, failed = None, True
            cpu_start = cpu_clock() if cpu else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                cpu_ns = cpu_clock() - cpu_start if cpu else 0
                stack.pop()
                records.append((sid, name_of(args, kwargs) if name_of else name, start, end,
                                parent, tid, tracer.rep, failed,
                                extra(args, kwargs, result) if extra else None, cpu_ns))
        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, extra, cpu in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, extra, cpu))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi)."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus covered child time)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered_ns(children[s.sid], s.start, s.end)
            for s in spans}


def _p(values, q: float) -> float:
    """Percentile by linear interpolation; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[Span], reps: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced reps named in ``reps``.

    Totals and counts are per rep (summed over the traced reps, divided by
    their number); ``_p50``/``_p95``/``_us`` metrics are per call.
    """
    wanted = set(reps)
    spans = [s for s in spans if s.rep in wanted]
    n = max(len(reps), 1)
    by_id = {s.sid: s for s in spans}
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ancestor(span: Span, name: str) -> Span | None:
        node = by_id.get(span.parent)
        while node is not None and node.name != name:
            node = by_id.get(node.parent)
        return node

    def total_ms(name: str) -> float:
        return sum(s.ms for s in by_name[name]) / n

    def p50_ms(name: str) -> float:
        return _p([s.ms for s in by_name[name]], 0.5)

    out: dict[str, tuple[float, str]] = {}
    layer_self = defaultdict(int)
    for s in spans:
        layer_self[s.layer] += own[s.sid]
    roots = by_name[f"{ROOT_LAYER}:rep"]
    wall_ns = sum(s.end - s.start for s in roots)
    for layer in LAYERS:
        if layer != "synth":  # synthesis runs in set-up; see synth.ms
            out[f"self_ms.{layer}"] = (layer_self[layer] / 1e6 / n, "ms")
    out["trace.uncovered_share"] = (layer_self[ROOT_LAYER] / wall_ns if wall_ns else 0.0, "ratio")
    out["trace.accounted_ratio"] = (sum(layer_self.values()) / wall_ns if wall_ns else 0.0, "ratio")
    out["trace.threads"] = (float(max((len({s.thread for s in spans if s.rep == r})
                                       for r in reps), default=0)), "count")
    out["trace.spans"] = (len(spans) / n, "count")

    out["gaps.generate_ms"] = (total_ms("gaps:generate"), "ms")
    out["gaps.apply_ms"] = (total_ms("gaps:apply"), "ms")
    out["gaps.window_ms"] = (total_ms("gaps:window"), "ms")

    views = by_name["harness:view"]
    runs = by_name["harness:run_evaluation"]
    out["harness.view_ms"] = (total_ms("harness:view"), "ms")
    out["harness.view_calls"] = (len(views) / n, "count")
    out["harness.view_mb"] = (sum(s.extra or 0 for s in views) / 1e6 / n, "MB")
    out["harness.aggregate_ms"] = (total_ms("harness:aggregate"), "ms")
    out["harness.agreement_ms"] = (total_ms("harness:agreement"), "ms")
    out["harness.self_ms"] = (sum(own[s.sid] for s in runs) / 1e6 / n, "ms")
    run_ns = sum(s.end - s.start for s in runs)
    out["harness.cpu_util"] = (sum(s.cpu_ns for s in runs) / run_ns if run_ns else 0.0, "ratio")

    fills: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.name.startswith("imputers.") and s.name.endswith(":fill"):
            fills[s.extra].append(s)
    for kind in KINDS:
        times = [s.ms for s in fills[kind]]
        out[f"imputers.{kind}.fill_ms_p50"] = (_p(times, 0.5), "ms")
        out[f"imputers.{kind}.fill_ms_p95"] = (_p(times, 0.95), "ms")
        out[f"imputers.{kind}.fill_s_total"] = (sum(times) / 1e3 / n, "s")
        out[f"imputers.{kind}.calls"] = (len(times) / n, "count")
        out[f"imputers.{kind}.failed"] = (sum(s.failed for s in fills[kind]) / n, "count")

    predicts = by_name["imputers.gbt:tree_predict"]
    in_fit = [s for s in predicts if ancestor(s, "imputers.gbt:boost_fit")]
    out["imputers.gbt.boost_fit_ms"] = (p50_ms("imputers.gbt:boost_fit"), "ms")
    out["imputers.gbt.features_ms"] = (p50_ms("imputers.gbt:features"), "ms")
    out["imputers.gbt.tree_fit_ms_total"] = (total_ms("imputers.gbt:tree_fit"), "ms")
    out["imputers.gbt.tree_predict_ms_total"] = (total_ms("imputers.gbt:tree_predict"), "ms")
    out["imputers.gbt.tree_predict_calls"] = (len(predicts) / n, "count")
    out["imputers.gbt.tree_predict_in_fit_ms_total"] = (sum(s.ms for s in in_fit) / n, "ms")
    out["imputers.gbt.tree_predict_in_fit_calls"] = (len(in_fit) / n, "count")

    forecasts: dict[str, dict[int, float]] = {"arima": {}, "sarima": {}}
    for s in by_name["imputers.arima:forecast"]:
        fill = ancestor(s, "imputers.arima:fill")
        if fill is not None and fill.extra in forecasts:
            forecasts[fill.extra][fill.sid] = forecasts[fill.extra].get(fill.sid, 0.0) + s.ms
    for kind, per_fill in forecasts.items():
        out[f"imputers.{kind}.forecast_ms"] = (_p(list(per_fill.values()), 0.5), "ms")
        out[f"imputers.{kind}.select_ms"] = (
            _p([s.ms - per_fill.get(s.sid, 0.0) for s in fills[kind] if not s.failed], 0.5), "ms")

    for metric in ("wd", "jsd", "rmse", "mae"):
        out[f"metrics.{metric}_us"] = (p50_ms(f"metrics:{metric}") * 1e3, "us")
    out["metrics.score_ms_total"] = (sum(total_ms(f"metrics:{m}")
                                         for m in ("wd", "jsd", "rmse", "mae")), "ms")

    out["io.ingest_ms"] = (total_ms("io:ingest"), "ms")
    out["io.load_config_ms"] = (total_ms("io:load_config"), "ms")
    out["io.emit_ms"] = (total_ms("io:emit"), "ms")
    out["io.bytes_written"] = (sum(s.extra or 0 for s in by_name["io:emit"]) / n, "B")
    return out


def setup_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Metrics of the traced set-up pass (spans with rep id ``setup``)."""
    synth = [s.ms for s in spans if s.rep == "setup" and s.name == "synth:series"]
    return {"synth.ms": (sum(synth), "ms")}


def overhead_ratio(traced_walls: list[float], untraced_walls: list[float]) -> float:
    return statistics.median(traced_walls) / statistics.median(untraced_walls)
