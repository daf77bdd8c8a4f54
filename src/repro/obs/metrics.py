"""Unified metrics registry — one canonical name per number.

Before this module the same quantity appeared under several spellings:
the engine's former ``stats.cache_hits``, ``ResultCache.info()["hits"]`` and
``MeasuredRun.metrics["response_seconds"]`` all travelled on private dicts
with no shared schema.  The :class:`MetricsRegistry` gives every counter a
single dotted canonical name (``engine.cache.hits``,
``query.lp.feasibility_calls``, …), exposes the three standard instrument
kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram` — and feeds
the exporters in :mod:`repro.obs.export`.

Histograms carry **fixed bucket bounds** chosen at construction (default:
powers of two), so merging histograms from parallel shards is exact — the
merged bucket counts equal the single-process run's counts, mirroring the
ordered-commit determinism contract of :mod:`repro.parallel`.

Like the tracer, the registry is distributed through a context variable:
hot paths call :func:`active_registry` and skip all work when it returns
``None`` (the default), so the disabled overhead is one context-variable
read per LP probe.

:data:`LEGACY_ALIASES` maps every pre-existing spelling from
the former engine stats/cache dicts/``MeasuredRun`` to its canonical name, and
:func:`stats_to_registry` lifts a :class:`~repro.core.result.QueryStats`
into canonical form — this is what makes ``MeasuredRun`` a *view* over the
registry rather than a fourth naming scheme.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import threading
from contextvars import ContextVar
from typing import Any, Iterator, Mapping

from .names import (
    LP_CONSTRAINTS,
    QUERY_REGIONS,
    QUERY_SECONDS_CPU,
    QUERY_SECONDS_INDEX_BUILD,
    QUERY_SECONDS_PHASE_PREFIX,
    QUERY_SECONDS_RESPONSE,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LP_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "LP_CONSTRAINTS",
    "LEGACY_ALIASES",
    "active_registry",
    "use_registry",
    "canonical_name",
    "stats_to_registry",
]

#: Upper bucket bounds (inclusive) for LP constraint-count histograms.
#: Powers of two up to 4096 plus +inf: fixed for every histogram instance,
#: so shard merges are exact.
DEFAULT_LP_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, math.inf)

# ``LP_CONSTRAINTS`` (the canonical histogram name for LP probe constraint
# counts) is defined in — and re-exported from — the metric-name catalogue,
# :mod:`repro.obs.names`, alongside every other canonical name.

#: Upper bucket bounds (inclusive, seconds) for request-latency histograms —
#: powers of two from 0.25ms to ~8s plus +inf.  Fixed like the LP buckets so
#: latency histograms recorded by concurrent serving tasks (or shipped back
#: from workers) merge exactly; used by ``repro.serve`` for time-to-first-
#: answer and refinement-latency distributions.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    0.00025 * 2.0 ** exponent for exponent in range(16)
) + (math.inf,)

#: Every legacy spelling -> its canonical dotted name.  The former engine
#: stats fields, the former ``ResultCache.info()`` / ``PartialStore.info()``
#: keys and ``MeasuredRun`` metric keys all resolve here.
LEGACY_ALIASES: dict[str, str] = {
    # Former engine stats fields.
    "queries": "engine.queries",
    "cache_hits": "engine.result_cache.hits",
    "cold_queries": "engine.queries.cold",
    "prepared_builds": "engine.prepared.builds",
    "prepared_reuses": "engine.prepared.reuses",
    "inserts": "engine.updates.inserts",
    "deletes": "engine.updates.deletes",
    "entries_invalidated": "engine.result_cache.invalidated",
    "entries_retained": "engine.result_cache.retained",
    "adopted_results": "engine.result_cache.adopted",
    "stream_queries": "engine.stream.queries",
    "stream_resumes": "engine.stream.resumes",
    "partials_saved": "engine.partial_store.saved",
    "partials_invalidated": "engine.partial_store.invalidated",
    "cold_seconds": "engine.seconds.cold",
    "prepare_seconds": "engine.seconds.prepare",
    # The former ResultCache.info() keys (cache-local counters).
    "hits": "engine.result_cache.hits",
    "misses": "engine.result_cache.misses",
    "insertions": "engine.result_cache.insertions",
    "evictions": "engine.result_cache.evictions",
    "invalidated": "engine.result_cache.invalidated",
    "rekeyed": "engine.result_cache.rekeyed",
    "entries": "engine.result_cache.entries",
    "capacity": "engine.result_cache.capacity",
    # MeasuredRun / QueryStats spellings.
    "response_seconds": "query.seconds.response",
    "cpu_seconds": "query.seconds.cpu",
    "io_seconds": "query.seconds.io",
    "processed_records": "query.processed_records",
    "competitor_records": "query.competitor_records",
    "dominator_records": "query.dominator_records",
    "celltree_nodes": "query.celltree.nodes",
    "cells_pruned_by_bounds": "query.celltree.pruned_by_bounds",
    "cells_reported_early": "query.celltree.reported_early",
    "batches": "query.batches",
    "lp_feasibility_calls": "query.lp.feasibility_calls",
    "lp_optimize_calls": "query.lp.optimize_calls",
    "lp_total_constraints": "query.lp.total_constraints",
    "index_node_accesses": "query.index.node_accesses",
    "index_build_seconds": "query.seconds.index_build",
    "space_bytes": "query.space_bytes",
    "regions": "query.regions",
}


def canonical_name(name: str) -> str:
    """Resolve *name* through :data:`LEGACY_ALIASES` (canonical names pass through)."""
    return LEGACY_ALIASES.get(name, name)


class Counter:
    """Monotonically increasing numeric instrument."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one."""
        self.value += other.value


class Gauge:
    """Point-in-time numeric instrument (capacities, current sizes, seconds)."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in (last-writer-wins, standard gauge semantics)."""
        self.value = other.value


class Histogram:
    """Cumulative-bucket histogram with fixed bounds, so merges are exact.

    Bucket bounds are upper-inclusive and must end with ``+inf``; two
    histograms merge only when their bounds are identical, which keeps the
    merged distribution byte-equal to a single-process run's.
    """

    __slots__ = ("name", "help", "bounds", "counts", "total", "sum")

    kind = "histogram"

    def __init__(self, name: str, help: str = "", bounds: tuple[float, ...] = DEFAULT_LP_BUCKETS):
        if not bounds or bounds[-1] != math.inf:
            raise ValueError("histogram bounds must be non-empty and end with +inf")
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * len(bounds)
        self.total = 0
        self.sum: float = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bounds differ "
                f"({other.bounds} vs {self.bounds})"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum

    def merge_counts(self, counts: list[int], total: int, value_sum: float) -> None:
        """Fold raw bucket counts (e.g. shipped back from a worker process)."""
        if len(counts) != len(self.counts):
            raise ValueError(f"histogram {self.name!r}: bucket count mismatch")
        for index, count in enumerate(counts):
            self.counts[index] += count
        self.total += total
        self.sum += value_sum

    def as_dict(self) -> dict[str, Any]:
        """Bucket bounds, per-bucket counts, total count and value sum."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Named collection of instruments with get-or-create accessors.

    Thread-safe: instrument creation and snapshots take an internal lock
    (individual ``inc``/``observe`` calls rely on the instruments being
    accessed under the GIL and are registered once).  Registries merge
    exactly — counters add, gauges last-write, histograms add per fixed
    bucket — which is what makes shard-merged metrics equal serial ones.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        name = canonical_name(name)
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, help, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {instrument.kind}, "
                    f"requested {cls.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name* (legacy spellings are canonicalised)."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", bounds: tuple[float, ...] = DEFAULT_LP_BUCKETS
    ) -> Histogram:
        """Get or create the histogram *name* with fixed *bounds*."""
        return self._get_or_create(Histogram, name, help, bounds=bounds)

    def instruments(self) -> list[Counter | Gauge | Histogram]:
        """All instruments sorted by name (stable exporter order)."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of *other* into this registry."""
        for instrument in other.instruments():
            mine = self._get_or_create(type(instrument), instrument.name, instrument.help)
            mine.merge(instrument)

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{canonical name: value}`` dict; histograms expand to sub-keys.

        A histogram named ``h`` contributes ``h.count``, ``h.sum`` and one
        ``h.bucket.<bound>`` per bucket (cumulative, Prometheus-style).
        """
        out: dict[str, Any] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                running = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    running += count
                    label = "inf" if bound == math.inf else f"{bound:g}"
                    out[f"{instrument.name}.bucket.{label}"] = running
                out[f"{instrument.name}.count"] = instrument.total
                out[f"{instrument.name}.sum"] = instrument.sum
            else:
                out[instrument.name] = instrument.value
        return out


#: Registry active in the current execution context (None = metrics off).
_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar("repro_obs_registry", default=None)


def active_registry() -> MetricsRegistry | None:
    """The registry installed for the current context, or ``None``."""
    return _REGISTRY.get()


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install *registry* as :func:`active_registry` for the enclosed block."""
    token = _REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _REGISTRY.reset(token)


def stats_to_registry(
    stats, *, regions: int | None = None, registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Lift a :class:`~repro.core.result.QueryStats` into canonical metrics.

    Counters become ``query.*`` counters, timings become gauges (including
    one ``query.seconds.phase.<name>`` gauge per recorded phase), and the
    LP aggregate lands on the same canonical names the live instrumentation
    uses — so a :class:`~repro.experiments.metrics.MeasuredRun` built from
    a result is a *view* over this registry rather than a separate schema.
    """
    registry = registry if registry is not None else MetricsRegistry()
    counters: Mapping[str, float] = {
        "query.processed_records": stats.processed_records,
        "query.competitor_records": stats.competitor_records,
        "query.dominator_records": stats.dominator_records,
        "query.celltree.nodes": stats.celltree_nodes,
        "query.celltree.pruned_by_bounds": stats.cells_pruned_by_bounds,
        "query.celltree.reported_early": stats.cells_reported_early,
        "query.batches": stats.batches,
        "query.lp.feasibility_calls": stats.lp.feasibility_calls,
        "query.lp.optimize_calls": stats.lp.optimize_calls,
        "query.lp.total_constraints": stats.lp.total_constraints,
        "query.index.node_accesses": stats.index_node_accesses,
        "query.space_bytes": stats.space_bytes,
    }
    for name, value in counters.items():
        registry.counter(name).inc(value)
    if regions is not None:
        registry.counter(QUERY_REGIONS).inc(regions)
    registry.gauge(QUERY_SECONDS_RESPONSE).set(stats.response_seconds)
    registry.gauge(QUERY_SECONDS_CPU).set(stats.cpu_seconds)
    registry.gauge(QUERY_SECONDS_INDEX_BUILD).set(stats.index_build_seconds)
    for phase, seconds in stats.phase_seconds.items():
        registry.gauge(f"{QUERY_SECONDS_PHASE_PREFIX}{phase}").set(seconds)
    return registry
