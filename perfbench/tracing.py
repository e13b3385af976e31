"""In-process traced `cam run` for per-layer self times and counts.

The tracer replaces cam's functions at the names where their callers look
them up (for example `cam.pipeline.file_history` or `cam.filters.parse`),
so cam's own code is unchanged and every wrapper is removed afterwards.
Each wrapped call records a span (name, start, end, parent id) on a
thread-local stack; spans stay in memory until the run ends. A layer's
self time is its spans' time minus the time of their child spans.

The run uses one repository worker, so the top-level spans never overlap
and the self times plus the unwrapped remainder add up to the run's wall
time; `check_accounting` holds the tracer to that.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import subprocess
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

MIB = 1 << 20

# (module, attribute, span name) for every wrapped import site.
SPANS = (
    ("cam.pipeline", "discover", "repos.discover"),
    ("cam.pipeline", "clone_repo", "repos.clone"),
    ("cam.pipeline", "filter_tree", "filters"),
    ("cam.pipeline", "file_history", "gitstats.history"),
    ("cam.pipeline", "measure_repo", "measure"),
    ("cam.pipeline", "rows_to_csv_bytes", "dataset.csv"),
    ("cam.pipeline", "read_csv_rows", "dataset.csv"),
    ("cam.pipeline", "pack_archive", "dataset.pack"),
    ("cam.filters", "parse", "javasrc.parse"),
    ("cam.measure", "parse", "javasrc.parse"),
    ("cam.javasrc.parser", "tokenize", "javasrc.lex"),
    ("cam.measure", "line_metrics", "metrics.code"),
    ("cam.measure", "halstead", "metrics.code"),
    ("cam.measure", "class_cyclomatic", "metrics.code"),
    ("cam.measure", "class_cognitive", "metrics.code"),
    ("cam.measure", "maintainability_index", "metrics.code"),
    ("cam.measure", "member_counts", "metrics.code"),
    ("cam.measure", "access_matrix", "metrics.oo"),
    ("cam.measure", "param_type_matrix", "metrics.oo"),
    ("cam.measure", "lcom5", "metrics.oo"),
    ("cam.measure", "lcom1", "metrics.oo"),
    ("cam.measure", "tcc", "metrics.oo"),
    ("cam.measure", "nhd", "metrics.oo"),
    ("cam.measure", "wmc", "metrics.oo"),
    ("cam.measure", "rfc", "metrics.oo"),
    ("cam.measure", "structural_counts", "metrics.structural"),
)
_GRAPH_METHODS = ("cbo", "dit", "noc", "cycle_members")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # ---- spans and counts ------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def traced(self, func, name: str, on_result=None):
        """*func* wrapped in a span.

        on_result(args, result) runs after every call, with None as the
        result when the call raised.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span = Span(len(self.spans), stack[-1] if stack else None, name, 0.0)
                self.spans.append(span)
            stack.append(span.id)
            result = None
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if on_result is not None:
                    on_result(args, result)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ---- install and remove ---------------------------------------------

    def install(self) -> None:
        import cam.filters
        import cam.measure
        import cam.repos
        from cam.gitstats import UntrackedFile

        hooks = {
            "javasrc.parse": lambda args, _r: self._count_text("parse", args[0]),
            "javasrc.lex": lambda args, _r: self._count_text("lex", args[0]),
            "measure": lambda _a, result: self.count("measure.rows", len(result.rows) if result else 0),
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.traced(getattr(module, attr), name, hooks.get(name)))

        # Failures and untracked files surface as exceptions; count them
        # outside the span so the span still measures the whole call.
        self._patch_counting_exception("cam.pipeline", "clone_repo", cam.repos.CloneFailed, "repos.clone_failures", "repos.clones")
        self._patch_counting_exception("cam.pipeline", "file_history", UntrackedFile, "gitstats.untracked", "gitstats.calls")

        evaluate = cam.filters.evaluate_file

        def counting_evaluate(relpath, data):
            reason, content = evaluate(relpath, data)
            self.count("filters.files")
            self.count("filters.bytes", len(data))
            if reason is None:
                self.count("filters.kept")
            return reason, content

        self._patch(cam.filters, "evaluate_file", counting_evaluate)

        base = cam.measure.ClassGraph
        graph = type("TracedClassGraph", (base,), {
            "__init__": self.traced(base.__init__, "metrics.oo"),
            **{m: self.traced(getattr(base, m), "metrics.oo") for m in _GRAPH_METHODS},
        })
        self._patch(cam.measure, "ClassGraph", graph)

        tracer = self

        class CountingPopen(subprocess.Popen):
            def __init__(self, args, *rest, **kwargs):
                if isinstance(args, (list, tuple)) and args and args[0] == "git":
                    tracer.count("git.spawns")
                super().__init__(args, *rest, **kwargs)

        self._patch(subprocess, "Popen", CountingPopen)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch_counting_exception(self, module_name, attr, exc_type, failed_key, calls_key) -> None:
        module = importlib.import_module(module_name)
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            self.count(calls_key)
            try:
                return inner(*args, **kwargs)
            except exc_type:
                self.count(failed_key)
                raise

        self._patch(module, attr, wrapper)

    def _count_text(self, layer: str, source: str) -> None:
        self.count(f"javasrc.{layer}_calls")
        self.count(f"javasrc.{layer}_bytes", len(source))

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    # ---- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start - child_time[span.id]
        return dict(totals)

    def dump(self, path: Path) -> None:
        rows = [[s.id, s.parent, s.name, s.start, s.end] for s in self.spans]
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end"], "spans": rows}), encoding="utf-8")


UNITS = {
    "repos.discover_s": "s",
    "repos.clone_s": "s",
    "repos.clones": "count",
    "repos.clone_failures": "count",
    "filters.self_s": "s",
    "filters.files": "count",
    "filters.mb": "MB",
    "filters.kept_ratio": "ratio",
    "gitstats.history_s": "s",
    "gitstats.calls": "count",
    "gitstats.ms_per_file": "ms",
    "gitstats.untracked": "count",
    "git.spawns": "count",
    "javasrc.lex_s": "s",
    "javasrc.parse_s": "s",
    "javasrc.parse_calls": "count",
    "javasrc.parses_per_kept_file": "ratio",
    "javasrc.lex_mb_per_s": "MB/s",
    "javasrc.parse_mb_per_s": "MB/s",
    "metrics.code_s": "s",
    "metrics.oo_s": "s",
    "metrics.structural_s": "s",
    "measure.self_s": "s",
    "measure.rows": "count",
    "dataset.csv_s": "s",
    "dataset.pack_s": "s",
    "dataset.zip_bytes": "bytes",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "pipeline.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced run whose wall time was *wall*."""
    self_s = tracer.self_times()
    c = tracer.counts
    lex_s = self_s.get("javasrc.lex", 0.0)
    parse_s = self_s.get("javasrc.parse", 0.0)
    history_s = self_s.get("gitstats.history", 0.0)
    files = c["filters.files"]
    return {
        "repos.discover_s": self_s.get("repos.discover", 0.0),
        "repos.clone_s": self_s.get("repos.clone", 0.0),
        "repos.clones": c["repos.clones"],
        "repos.clone_failures": c["repos.clone_failures"],
        "filters.self_s": self_s.get("filters", 0.0),
        "filters.files": files,
        "filters.mb": c["filters.bytes"] / MIB,
        "filters.kept_ratio": c["filters.kept"] / files if files else 0.0,
        "gitstats.history_s": history_s,
        "gitstats.calls": c["gitstats.calls"],
        "gitstats.ms_per_file": 1000 * history_s / c["gitstats.calls"] if c["gitstats.calls"] else 0.0,
        "gitstats.untracked": c["gitstats.untracked"],
        "git.spawns": c["git.spawns"],
        "javasrc.lex_s": lex_s,
        "javasrc.parse_s": parse_s,
        "javasrc.parse_calls": c["javasrc.parse_calls"],
        "javasrc.parses_per_kept_file": c["javasrc.parse_calls"] / c["filters.kept"] if c["filters.kept"] else 0.0,
        "javasrc.lex_mb_per_s": c["javasrc.lex_bytes"] / MIB / lex_s if lex_s else 0.0,
        "javasrc.parse_mb_per_s": c["javasrc.parse_bytes"] / MIB / parse_s if parse_s else 0.0,
        "metrics.code_s": self_s.get("metrics.code", 0.0),
        "metrics.oo_s": self_s.get("metrics.oo", 0.0),
        "metrics.structural_s": self_s.get("metrics.structural", 0.0),
        "measure.self_s": self_s.get("measure", 0.0),
        "measure.rows": c["measure.rows"],
        "dataset.csv_s": self_s.get("dataset.csv", 0.0),
        "dataset.pack_s": self_s.get("dataset.pack", 0.0),
        "runtime.gc_s": tracer.gc_seconds,
        "runtime.gc_collections": tracer.gc_collections,
        "pipeline.self_s": wall - sum(self_s.values()),
        "trace.wall_s": wall,
        "trace.accounted_ratio": sum(self_s.values()) / wall,
    }


def check_accounting(tracer: Tracer, wall: float) -> str | None:
    """Why the self times fail to account for *wall*, or None when they do.

    With one worker the top-level spans must not overlap, every span must
    have ended, and no self time may be negative; so the self times sum to
    at most the wall time.
    """
    if any(s.end < s.start for s in tracer.spans):
        return "a span ended before it started"
    self_s = tracer.self_times()
    negative = [name for name, value in self_s.items() if value < -1e-6]
    if negative:
        return f"negative self time in {', '.join(sorted(negative))}"
    top = sorted((s.start, s.end) for s in tracer.spans if s.parent is None)
    for (_s0, e0), (s1, _e1) in zip(top, top[1:]):
        if s1 < e0:
            return "top-level spans overlap"
    if sum(self_s.values()) > wall:
        return "self times exceed the traced wall time"
    return None
