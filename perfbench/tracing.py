"""Outside-in layer tracing: wrappers on public functions, spans in memory.

A :class:`Recorder` replaces a layer's public function *at the name its
caller looks it up by* (for example ``repro.core.celltree.solve_feasibility``,
which the CellTree imported from the geometry layer) with a wrapper that
records one span per call: name, start, end and thread.  Parents, op ids
and self times are derived after the run from interval nesting per thread,
so the wrappers stay as cheap as two clock reads and a list append.  Spans
from the program's own ``repro.obs`` tracer can be merged into the same
forest.  Nothing is written until :func:`write_chrome_trace` is called at
the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: Span-name prefix -> layer (the modules of ``src/repro``).
_LAYER_PREFIXES = (
    ("op.", "unattributed"),
    ("query.", "core"),
    ("geometry.", "geometry"),
    ("core.", "core"),
    ("index.", "index"),
    ("engine.", "engine"),
    ("stream.", "stream"),
    ("approx.", "approx"),
    ("parallel.", "parallel"),
    ("live.", "live"),
    ("snapshot.", "snapshot"),
    ("serve.", "serve"),
)


def layer_of(name: str) -> str:
    for prefix, layer in _LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


@dataclass
class SpanRecord:
    """One finished span; ``parent``/``op``/``self_time`` are filled by :func:`build_forest`."""

    name: str
    start: float
    end: float
    thread: int
    parent: int = -1
    op: int = -1
    self_time: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Install wrappers, collect spans, restore the originals.

    Patching is by ``setattr`` on the owning module or class, so a wrapper
    sees every call the program makes through that name and nothing else.
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, span_name: str) -> None:
        """Time every call of ``owner.attribute`` as a ``span_name`` span."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        if isinstance(original, classmethod):
            raise TypeError(f"{attribute} is a classmethod; wrap the function instead")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append(SpanRecord(span_name, start, clock(), ident()))

        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def count_constructions(self, owner: Any, attribute: str, counter: str) -> None:
        """Count instantiations of the class bound at ``owner.attribute``."""
        original = getattr(owner, attribute)
        counts = self.counts

        class Counted(original):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                counts[counter] += 1
                super().__init__(*args, **kwargs)

        Counted.__name__ = original.__name__
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, Counted)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- explicit spans ----------------------------------------------------
    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        self.spans.append(SpanRecord(name, start, end, threading.get_ident(), attrs=attrs))

    def add_program_spans(self, tracer_spans: Iterable[Any]) -> None:
        """Merge finished spans of a ``repro.obs.Tracer`` (same clock, this thread).

        A span's noted ``seconds`` is kept: marker spans such as
        ``live.repair`` carry the measured duration there, not in their interval.
        """
        ident = threading.get_ident()
        for span in tracer_spans:
            if span.end is not None:
                attrs = {"seconds": span.volatile["seconds"]} if "seconds" in span.volatile else {}
                self.spans.append(SpanRecord(span.name, span.start, span.end, ident, attrs=attrs))


def install_layer_wrappers(recorder: Recorder, *, serve: bool = False) -> None:
    """Wrap each layer's public functions at the names their callers look up."""
    # import_module, not ``import a.b as c``: packages re-export functions
    # under their submodules' names (``repro.index.skyline`` is both).
    bounds = importlib.import_module("repro.core.bounds")
    celltree = importlib.import_module("repro.core.celltree")
    result = importlib.import_module("repro.core.result")
    linprog = importlib.import_module("repro.geometry.linprog")
    rtree = importlib.import_module("repro.index.rtree")
    skyline = importlib.import_module("repro.index.skyline")
    subtree = importlib.import_module("repro.parallel.subtree")
    Engine = importlib.import_module("repro.engine.engine").Engine

    recorder.wrap(celltree, "solve_feasibility", "geometry.lp.feasibility")
    recorder.wrap(bounds, "minimize_linear", "geometry.lp.optimize")
    recorder.wrap(bounds, "maximize_linear", "geometry.lp.optimize")
    recorder.wrap(linprog, "linprog", "geometry.scipy.linprog")
    recorder.wrap(result, "intersect_halfspaces", "geometry.qhull")
    recorder.wrap(celltree.CellTree, "insert", "core.celltree.insert")
    recorder.wrap(bounds.TransformedBoundEvaluator, "evaluate", "core.bounds.evaluate")
    recorder.wrap(bounds.OriginalSpaceBoundEvaluator, "evaluate", "core.bounds.evaluate")
    recorder.wrap(skyline.SkybandIndex, "insert", "index.skyband.update")
    recorder.wrap(skyline.SkybandIndex, "delete", "index.skyband.update")
    recorder.wrap(rtree.AggregateRTree, "insert_position", "index.rtree.update")
    recorder.wrap(rtree.AggregateRTree, "delete_position", "index.rtree.update")
    recorder.wrap(Engine, "update_affects", "live.classify")
    recorder.count_constructions(subtree, "ProcessPoolExecutor", "parallel.pool_spawns")
    if serve:
        http = importlib.import_module("repro.serve.http")
        AdmissionController = importlib.import_module("repro.serve.admission").AdmissionController

        # The server runs Engine.query on its worker threads, where the
        # program's own engine.cache.lookup span is not recorded.
        recorder.wrap(importlib.import_module("repro.engine.cache").ResultCache, "get", "engine.cache.lookup")
        recorder.wrap(http, "parse_request", "serve.parse")
        recorder.wrap(AdmissionController, "admit", "serve.admit")
        recorder.wrap(Engine, "query", "serve.engine")
        recorder.wrap(http, "format_sse", "serve.sse")


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
def build_forest(spans: list[SpanRecord]) -> list[SpanRecord]:
    """Assign parents, op ids and self times by interval nesting per thread.

    Spans on one thread come from nested calls, so the innermost span that
    contains another is its parent.  An op id is the index of the enclosing
    ``op.*`` span.  Self time is duration minus the children's durations.
    """
    ordered = sorted(range(len(spans)), key=lambda i: (spans[i].thread, spans[i].start, -spans[i].end))
    stack: list[int] = []
    thread = None
    for index in ordered:
        span = spans[index]
        if span.thread != thread:
            stack, thread = [], span.thread
        while stack and spans[stack[-1]].end < span.end:
            stack.pop()
        span.self_time = span.duration
        if stack:
            parent = spans[stack[-1]]
            span.parent = stack[-1]
            span.op = parent.op
            parent.self_time -= span.duration
        if span.name.startswith("op."):
            span.op = index
        stack.append(index)
    return spans


def by_name(spans: Iterable[SpanRecord]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total", "self"}}`` over the given spans (seconds)."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total"] += span.duration
        row["self"] += span.self_time
    return dict(table)


def mean(values: Iterable[float]) -> float:
    """Mean of ``values``; 0 for none (a layer that did no work)."""
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def per_call(rows: dict, names: tuple[str, ...], field: str = "total", scale: float = 1e6) -> float:
    """Seconds per call over the named ``by_name`` rows, times ``scale`` (default: us)."""
    calls = sum(rows.get(name, {}).get("calls", 0) for name in names)
    total = sum(rows.get(name, {}).get(field, 0.0) for name in names)
    return total / calls * scale if calls else 0.0


def attribution(spans: list[SpanRecord]) -> dict[str, dict[str, dict[str, float]]]:
    """Per op kind: self seconds, calls and share of op wall time, by layer.

    The op span's own self time is the ``unattributed`` row: time inside the
    op that no recorded child span covers.
    """
    walls: dict[str, float] = defaultdict(float)
    rows: dict[str, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    )
    for span in spans:
        if span.op < 0:
            continue
        kind = spans[span.op].name[3:]
        if span.name.startswith("op."):
            walls[kind] += span.duration
        row = rows[kind][layer_of(span.name)]
        row["self_s"] += span.self_time
        row["calls"] += 1
    table = {}
    for kind, layers in rows.items():
        table[kind] = {
            layer: {**row, "share": row["self_s"] / walls[kind] if walls[kind] else 0.0}
            for layer, row in sorted(layers.items())
        }
        table[kind]["wall"] = {"self_s": walls[kind], "calls": layers["unattributed"]["calls"], "share": 1.0}
    return table


def write_chrome_trace(spans: list[SpanRecord], path: Path, pid: int = 0) -> None:
    """Write spans as complete ("X") events that chrome://tracing opens."""
    origin = min((span.start for span in spans), default=0.0)
    threads: dict[int, int] = {}
    events = []
    for index, span in enumerate(spans):
        tid = threads.setdefault(span.thread, len(threads))
        events.append({
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"id": index, "parent": span.parent, "op": span.op, **span.attrs},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def wrapped_op(recorder: Recorder | None, kind: str, call: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``call`` as one timed op; record an ``op.<kind>`` span when tracing."""
    start = time.perf_counter()
    value = call()
    end = time.perf_counter()
    if recorder is not None:
        recorder.record(f"op.{kind}", start, end)
    return value, end - start
