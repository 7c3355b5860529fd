"""Layer spans for the benchmark, installed from outside the package.

`Tracer.install()` replaces public functions of the `wifi_proximity`
modules with timing wrappers. A function is rebound in every module that
holds it, because callers look names up in their own module (`cli` does
`from .ingest import parse_wifi_log`, `models` binds `grow_tree`,
`features` binds `intersect`, `evaluation` imports from `models` inside a
function). Methods are wrapped on their classes. `uninstall()` puts the
originals back.

A span records its name, thread id, parent span and start and end times.
Its self time is its duration minus the time its child spans cover:
children on the same thread nest, so their durations add; children on
pool threads overlap, so the union of their intervals is taken. The
thread that submits to a pool blocks until the pool is done in every
stage, so the two never overlap. Pool threads inherit the span that was
open in the submitting thread as their parent.

Generators are timed where they are consumed: `iter_jsonl` is charged per
line to `fileio.read`, and the row generators that `fileio` writers drain
are charged to the code that built them, so featurize's `extract_features`
spans nest inside `write_csv` and the writer's self time excludes them.
Spans are folded into totals as they close; nothing per call is kept.
"""
from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class _Span:
    __slots__ = ("name", "parent", "tid", "t0", "nested", "pooled", "extra")

    def __init__(self, name, parent, tid, t0):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.t0 = t0
        self.nested = 0.0  # summed durations of same-thread children
        self.pooled = []  # (start, end) of children on other threads
        self.extra = 0.0  # self time of row generators this span built


class Tracer:
    """Thread-safe span aggregation: self time, wall time, calls, threads."""

    def __init__(self):
        self.main_tid = threading.get_ident()
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.threads = defaultdict(set)
        self.counts = defaultdict(float)
        self.popularity_keys = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def open(self, name):
        span = _Span(name, self.current(), threading.get_ident(), _now())
        self._stack().append(span)
        return span

    def close(self, span, credit=None):
        """End span; a generator span (credit set) adds its self time there."""
        t1 = _now()
        self._stack().pop()
        dur = t1 - span.t0
        covered = span.nested + (_union(span.pooled) if span.pooled else 0.0)
        own = dur - covered + span.extra
        parent = span.parent
        if parent is not None and parent.tid == span.tid:
            parent.nested += dur
        with self._lock:
            if parent is not None and parent.tid != span.tid:
                parent.pooled.append((span.t0, t1))
            if credit is not None:
                credit.extra += own
                return
            self.self_s[span.name] += own
            self.wall_s[span.name] += dur
            self.calls[span.name] += 1
            self.threads[span.name].add(span.tid)

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def pool_threads(self, name) -> int:
        return len(self.threads[name] - {self.main_tid})

    # -- wrappers ------------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace `original` wherever a wifi_proximity module binds it."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("wifi_proximity"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, name, func, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def wrap(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._rebind(original, self._timed(name, original, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Wrap every layer's public functions; see the module docstring."""
        from wifi_proximity import (cli, evaluation, features, fileio, ingest,
                                    models, pairing, synthgen, trees)

        tracer = self

        def stage_main(argv=None):
            stage = argv[0] if argv else "unknown"
            span = tracer.open(f"cli.{stage}")
            try:
                return cli_main(argv)
            finally:
                tracer.close(span)

        cli_main = cli.main
        self._rebind(cli_main, stage_main)
        self.wrap(synthgen, "generate", "synthgen.generate")

        def parsed(result, *args, **kwargs):
            tracer.count("ingest.records", len(result.records))

        self.wrap(ingest, "parse_wifi_log", "ingest.parse_wifi", parsed)
        self.wrap(ingest, "parse_bluetooth_log", "ingest.parse_bt")
        self.wrap(ingest, "filter_ambiguous_macs", "ingest.filter")
        self.wrap(ingest, "build_home_router_map", "ingest.homes")
        self._install_fileio(fileio)

        self.wrap(pairing, "build_hour_windows", "pairing.windows",
                  lambda r, *a, **k: tracer.count("pairing.windows", len(r)))
        self.wrap(pairing, "generate_candidates", "pairing.candidates",
                  lambda r, *a, **k: tracer.count("pairing.candidates", len(r)))

        self.wrap(features, "extract_features", "features.extract")
        self.wrap(features, "intersect", "features.intersect")
        self.wrap(features, "rssi_correlations", "features.correlations")
        self.wrap(features, "rssi_distances", "features.distances")
        self.wrap(features, "top_ap_features", "features.top_ap")
        self.wrap(features, "popularity_features", "features.popularity")
        self.wrap(features, "timing_location_features", "features.context")
        index_cls = features.PopularityIndex
        self._patch_attr(index_cls, "__init__", self._timed(
            "features.popularity_index", index_cls.__init__))
        count_users = index_cls.count_users

        def counted_users(index, bssid, lo_ts, hi_ts):
            with tracer._lock:
                tracer.counts["features.popularity_queries"] += 1
                tracer.popularity_keys.add((bssid, lo_ts, hi_ts))
            return count_users(index, bssid, lo_ts, hi_ts)

        self._patch_attr(index_cls, "count_users", counted_users)

        def grown(tree, X, *args, **kwargs):
            tracer.count("trees.nodes", tree.n_nodes)
            tracer.count("trees.grow_cells", X.shape[0] * X.shape[1])

        self.wrap(trees, "grow_tree", "trees.grow", grown)
        self._patch_attr(trees.Tree, "predict", self._timed(
            "trees.predict", trees.Tree.predict,
            lambda r, tree, X: tracer.count("trees.predict_rows", X.shape[0])))

        self.wrap(models, "fit_model", "models.fit")
        self.wrap(models, "predict", "models.predict")
        self.wrap(models, "fit_threshold", "models.threshold")
        self.wrap(evaluation, "auc_roc", "evaluation.auc")
        self.wrap(evaluation, "stratified_report", "evaluation.strata")
        self.wrap(evaluation, "learning_curve", "evaluation.learning_curve")

        class SpanExecutor(ThreadPoolExecutor):
            """Pool whose tasks run under the submitter's open span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    tracer._local.base = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.base = None

                return super().submit(task)

        for mod in (cli, models, evaluation):
            self._patch_attr(mod, "ThreadPoolExecutor", SpanExecutor)

    def _install_fileio(self, fileio):
        tracer = self

        class Lines:
            """iter_jsonl's generator, timed per line where it is consumed."""

            def __init__(self, it):
                self.it = it
                self.spent = 0.0

            def __iter__(self):
                return self

            def __next__(self):
                t0 = _now()
                try:
                    return next(self.it)
                except BaseException:
                    with tracer._lock:
                        tracer.self_s["fileio.read"] += self.spent + _now() - t0
                    raise
                finally:
                    dt = _now() - t0
                    self.spent += dt
                    span = tracer.current()
                    if span is not None:
                        span.nested += dt

        class Rows:
            """A writer's row generator, charged to the span that built it."""

            def __init__(self, rows, owner):
                self.it = iter(rows)
                self.owner = owner

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer.open("rows")
                try:
                    return next(self.it)
                finally:
                    tracer.close(span, credit=self.owner)

        iter_jsonl = fileio.iter_jsonl

        def timed_iter_jsonl(path):
            tracer.count("fileio.bytes_read", _size(path))
            return Lines(iter_jsonl(path))

        self._rebind(iter_jsonl, timed_iter_jsonl)

        def read(result, path, *args, **kwargs):
            tracer.count("fileio.bytes_read", _size(path))
            schema = args[0] if args else kwargs.get("expect_schema")
            if schema == fileio.SCHEMA_FEATURES:
                tracer.count("fileio.features_reads")

        self.wrap(fileio, "read_csv", "fileio.read", read)
        self.wrap(fileio, "read_json", "fileio.read", read)
        self.wrap(fileio, "read_jsonl_header", "fileio.read")

        def writer(attr, rows_at):
            original = getattr(fileio, attr)

            def wrapper(path, *args, **kwargs):
                args = list(args)
                if rows_at is not None and len(args) > rows_at:
                    args[rows_at] = Rows(args[rows_at], tracer.current())
                elif rows_at is not None:
                    kwargs["rows"] = Rows(kwargs["rows"], tracer.current())
                span = tracer.open("fileio.write")
                try:
                    return original(path, *args, **kwargs)
                finally:
                    tracer.close(span)
                    tracer.count("fileio.bytes_written", _size(path))

            wrapper.__wrapped__ = original
            self._rebind(original, wrapper)

        # index of the rows argument after the path
        writer("write_jsonl", 2)
        writer("write_csv", 3)
        writer("write_json", None)

    # -- results -------------------------------------------------------------

    def popularity_hit_rate(self) -> float:
        queries = self.counts["features.popularity_queries"]
        return 1.0 - len(self.popularity_keys) / queries if queries else 0.0


STAGES = ("clean", "pair", "featurize", "train", "evaluate", "report")

# span name -> per-layer metric holding its self time
SELF_TIMES = {
    "synthgen.generate": "synthgen.generate_s",
    "ingest.parse_wifi": "ingest.parse_wifi_s",
    "ingest.parse_bt": "ingest.parse_bt_s",
    "ingest.filter": "ingest.filter_s",
    "ingest.homes": "ingest.homes_s",
    "fileio.read": "fileio.read_s",
    "fileio.write": "fileio.write_s",
    "pairing.windows": "pairing.windows_s",
    "pairing.candidates": "pairing.candidates_s",
    "features.extract": "features.extract_s",
    "features.intersect": "features.intersect_s",
    "features.correlations": "features.correlations_s",
    "features.distances": "features.distances_s",
    "features.top_ap": "features.top_ap_s",
    "features.popularity": "features.popularity_s",
    "features.context": "features.context_s",
    "features.popularity_index": "features.popularity_index_s",
    "trees.grow": "trees.grow_s",
    "trees.predict": "trees.predict_s",
    "models.fit": "models.fit_s",
    "models.predict": "models.predict_s",
    "models.threshold": "models.threshold_s",
    "evaluation.auc": "evaluation.auc_s",
    "evaluation.strata": "evaluation.strata_s",
    "evaluation.learning_curve": "evaluation.learning_curve_s",
}

COUNTS = ("fileio.bytes_read", "fileio.bytes_written", "fileio.features_reads",
          "pairing.windows", "pairing.candidates", "features.popularity_queries",
          "trees.nodes", "trees.grow_cells", "trees.predict_rows")


def layer_metrics(tracer: Tracer, scans_kept: int) -> dict:
    """Per-layer figures of one traced section, keyed by metric name.

    `cli.<stage>_s` is the stage's wall time and `cli.<stage>.unattributed_s`
    the part of it that no layer span covers; every other `_s` figure is
    self time summed over calls and threads.
    """
    out = {}
    for stage in STAGES:
        out[f"cli.{stage}_s"] = tracer.wall_s[f"cli.{stage}"]
        out[f"cli.{stage}.unattributed_s"] = tracer.self_s[f"cli.{stage}"]
    for span, metric in SELF_TIMES.items():
        out[metric] = tracer.self_s[span]
    for name in COUNTS:
        out[name] = int(tracer.counts[name])
    records = tracer.counts["ingest.records"]
    out["ingest.records_per_scan"] = records / scans_kept if scans_kept else 0.0
    out["features.popularity_hit_rate"] = tracer.popularity_hit_rate()
    out["trees.grow_calls"] = tracer.calls["trees.grow"]
    out["models.fits"] = tracer.calls["models.fit"]
    out["evaluation.auc_calls"] = tracer.calls["evaluation.auc"]
    out["pairing.pool_threads"] = tracer.pool_threads("pairing.candidates")
    out["trees.pool_threads"] = tracer.pool_threads("trees.grow")
    return out
