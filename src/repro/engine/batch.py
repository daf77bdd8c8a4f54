"""Concurrent batch execution of independent kSPR queries.

:class:`QueryBatch` drives an :class:`~repro.engine.Engine` with a pool of
worker threads (``concurrent.futures.ThreadPoolExecutor``): independent
queries share the engine's prepared state and result cache, and the report
aggregates per-query statistics (timings, processed records, LP calls, cache
hits) across the whole batch.

The engine's ``query`` method is thread-safe; queries that land on the same
focal record share one prepared context, and repeated queries are answered
from the result cache without recomputation.

:meth:`QueryBatch.run_anytime` is the deadline-aware mode: the batch shares
one wall-clock budget, every query is served through the engine's streaming
path, and when the budget (or a cancellation flag) cuts the batch short each
unfinished query returns its :class:`~repro.core.result.PartialKSPRResult`
snapshot — with the engine checkpointing the paused stream, so re-issuing the
batch warm-starts instead of recomputing.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.result import KSPRResult, PartialKSPRResult
from ..stream.anytime import StreamBudget

__all__ = ["QuerySpec", "QueryOutcome", "BatchReport", "QueryBatch", "run_batch", "coerce_spec"]


@dataclass(frozen=True)
class QuerySpec:
    """One query of a batch: focal record, shortlist size, optional overrides."""

    focal: np.ndarray
    k: int
    method: str | None = None
    options: tuple = ()

    def option_dict(self) -> dict:
        """The per-query keyword options as a dict."""
        return dict(self.options)


@dataclass
class QueryOutcome:
    """Result (or failure, or deadline-truncated partial) of one batch query."""

    index: int
    spec: QuerySpec
    result: KSPRResult | None = None
    error: Exception | None = None
    seconds: float = 0.0
    #: Anytime snapshot when the budget ran out before the query finished
    #: (resumable through the engine's partial-result cache).
    partial: PartialKSPRResult | None = None
    #: True when a deadline skipped the query before any work was done.
    skipped: bool = False

    @property
    def ok(self) -> bool:
        """True when the query did not raise.

        Deadline-skipped and partial outcomes are ``ok`` — they failed
        nothing — but did not finish; use :attr:`completed` as the success
        predicate when a full result is what counts.
        """
        return self.error is None

    @property
    def completed(self) -> bool:
        """True when a full (non-partial) result was produced."""
        return self.error is None and self.result is not None


@dataclass
class BatchReport:
    """Aggregated outcome of a whole batch."""

    outcomes: list[QueryOutcome] = field(default_factory=list)
    #: Wall-clock seconds for the entire batch (submission to last completion).
    wall_seconds: float = 0.0
    #: Engine cache hits / cold queries attributable to this batch.
    cache_hits: int = 0
    cold_queries: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[QueryOutcome]:
        return iter(self.outcomes)

    @property
    def results(self) -> list[KSPRResult]:
        """Results of the successful queries, in submission order."""
        return [outcome.result for outcome in self.outcomes if outcome.result is not None]

    @property
    def errors(self) -> list[QueryOutcome]:
        """Outcomes that raised."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def failures(self) -> list[QueryOutcome]:
        """Outcomes that raised (alias of :attr:`errors`)."""
        return self.errors

    @property
    def partials(self) -> list[QueryOutcome]:
        """Outcomes truncated by a deadline/cancellation, carrying a partial result."""
        return [outcome for outcome in self.outcomes if outcome.partial is not None]

    @property
    def skipped(self) -> list[QueryOutcome]:
        """Outcomes a deadline skipped before any work was done."""
        return [
            outcome
            for outcome in self.outcomes
            if outcome.skipped and outcome.partial is None
        ]

    def summary(self) -> dict[str, float]:
        """Aggregate statistics across the batch (for logs and benchmarks).

        Per-query timing aggregates cover outcomes that actually ran
        (completed or partial); deadline-skipped entries contribute no
        0-second samples to the mean/max.
        """
        ran = [
            outcome for outcome in self.outcomes if outcome.ok and not outcome.skipped
        ]
        per_query = [outcome.seconds for outcome in ran]
        results = self.results
        return {
            "queries": float(len(self.outcomes)),
            "failed": float(len(self.errors)),
            "partial": float(len(self.partials)),
            "skipped": float(len(self.skipped)),
            "wall_seconds": self.wall_seconds,
            "query_seconds_total": float(sum(per_query)),
            "query_seconds_max": float(max(per_query)) if per_query else 0.0,
            "query_seconds_mean": float(np.mean(per_query)) if per_query else 0.0,
            "cache_hits": float(self.cache_hits),
            "cold_queries": float(self.cold_queries),
            "regions_total": float(sum(len(result) for result in results)),
            "processed_records_total": float(
                sum(result.stats.processed_records for result in results)
            ),
            "lp_calls_total": float(sum(result.stats.lp.total_calls for result in results)),
        }


def coerce_spec(index: int, spec: QuerySpec | Sequence) -> QueryOutcome:
    """Normalise a spec (or ``(focal, k[, method])`` tuple) into a blank outcome."""
    if isinstance(spec, QuerySpec):
        return QueryOutcome(index=index, spec=spec)
    focal, k, *rest = spec
    method = rest[0] if rest else None
    return QueryOutcome(
        index=index,
        spec=QuerySpec(focal=np.asarray(focal, dtype=float), k=int(k), method=method),
    )


class QueryBatch:
    """Execute independent queries against one engine, concurrently.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.Engine` to query.
    max_workers:
        Thread-pool size; ``None`` uses the executor default.  ``1`` gives
        deterministic sequential execution (useful for timing comparisons).
    workers:
        When greater than 1, the batch is executed by worker *processes*
        instead of threads (see :class:`repro.parallel.ShardedExecutor`):
        queries are sharded per focal record, answered in parallel on
        separate cores, and the results — identical to what the engine would
        compute — are adopted into the engine's result cache so follow-up
        queries hit.  Threads share the GIL; processes do not, which is what
        makes CPU-bound kSPR batches scale with cores.
    """

    def __init__(self, engine, max_workers: int | None = None, workers: int | None = None) -> None:
        self.engine = engine
        self.max_workers = max_workers
        self.workers = workers

    def run(self, specs: Iterable[QuerySpec | tuple]) -> BatchReport:
        """Run every query and return a :class:`BatchReport` in submission order.

        Each element may be a :class:`QuerySpec` or a ``(focal, k)`` /
        ``(focal, k, method)`` tuple.  Failures are captured per-query (the
        batch always completes).
        """
        if self.workers is not None and self.workers > 1:
            return self._run_sharded(specs)
        normalized = [coerce_spec(index, spec) for index, spec in enumerate(specs)]
        before = self.engine.metrics()

        start = time.perf_counter()
        if self.max_workers == 1:
            outcomes = [self._run_one(spec) for spec in normalized]
        else:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                outcomes = list(pool.map(self._run_one, normalized))
        wall = time.perf_counter() - start

        after = self.engine.metrics()
        return BatchReport(
            outcomes=outcomes,
            wall_seconds=wall,
            cache_hits=after["engine.result_cache.hits"] - before["engine.result_cache.hits"],
            cold_queries=after["engine.queries.cold"] - before["engine.queries.cold"],
        )

    def _run_sharded(self, specs: Iterable[QuerySpec | tuple]) -> BatchReport:
        """Multi-process execution: shard per focal, adopt results into the engine.

        The dataset snapshot and its dominator counts are captured atomically
        (one engine lock acquisition) so worker pruning always matches the
        snapshot it runs against, even while updates race the batch.  Specs
        the engine has already answered are served from its result cache;
        only the misses are dispatched to the worker pool.
        """
        from ..parallel.executor import ShardedExecutor  # local import: avoids a cycle

        engine = self.engine
        snapshot, counts = engine.snapshot_state()
        fingerprint = snapshot.fingerprint()
        start = time.perf_counter()

        normalized = [coerce_spec(index, spec) for index, spec in enumerate(specs)]
        pending: list[QueryOutcome] = []
        engine_hits = 0
        for outcome in normalized:
            spec = outcome.spec
            cached = engine.cached_result(
                spec.focal, spec.k, spec.method, spec.option_dict(), fingerprint=fingerprint
            )
            if cached is not None:
                outcome.result = cached
                engine_hits += 1
            else:
                pending.append(outcome)

        executor_hits = 0
        cold_queries = 0
        if pending:
            executor = ShardedExecutor(
                snapshot,
                workers=self.workers,
                method=engine.default_method,
                k_max=engine.k_max,
                fanout=engine.fanout,
                prune_skyband=engine.prune_skyband,
                dominator_counts=counts,
                tolerance=engine.tolerance,
            )
            sub_report = executor.run([outcome.spec for outcome in pending])
            executor_hits = sub_report.cache_hits
            cold_queries = sub_report.cold_queries
            for outcome, computed in zip(pending, sub_report.outcomes):
                outcome.result = computed.result
                outcome.error = computed.error
                outcome.seconds = computed.seconds
                if computed.result is not None:
                    engine.adopt_result(
                        fingerprint,
                        outcome.spec.focal,
                        outcome.spec.k,
                        outcome.spec.method,
                        outcome.spec.option_dict(),
                        computed.result,
                    )

        return BatchReport(
            outcomes=normalized,
            wall_seconds=time.perf_counter() - start,
            cache_hits=engine_hits + executor_hits,
            cold_queries=cold_queries,
        )

    def _run_one(self, outcome: QueryOutcome) -> QueryOutcome:
        spec = outcome.spec
        start = time.perf_counter()
        try:
            outcome.result = self.engine.query(
                spec.focal, spec.k, method=spec.method, **spec.option_dict()
            )
        except Exception as error:  # noqa: BLE001 - reported per query
            outcome.error = error
        outcome.seconds = time.perf_counter() - start
        return outcome

    # ------------------------------------------------------------------ #
    # anytime (deadline-aware) execution
    # ------------------------------------------------------------------ #
    def run_anytime(
        self,
        specs: Iterable[QuerySpec | tuple],
        *,
        deadline: float | None = None,
        max_batches: int | None = None,
        cancel: threading.Event | Callable[[], bool] | None = None,
        capture: bool = True,
    ) -> BatchReport:
        """Serve the batch under one shared wall-clock budget, never all-or-nothing.

        Queries run sequentially (in submission order) through
        :meth:`~repro.engine.Engine.query_stream`, sharing the batch-wide
        ``deadline`` (seconds).  When the budget — or the ``cancel`` flag, or
        a per-query ``max_batches`` cap — cuts a query short, its outcome
        carries the last :class:`~repro.core.result.PartialKSPRResult`
        snapshot in ``partial`` and the engine checkpoints the paused stream:
        re-running the same batch resumes each unfinished query from its
        cached frontier instead of starting over.  Queries the budget never
        reached are marked ``skipped``.  Failures are captured per query; the
        batch always returns a complete report.  ``capture=False`` skips the
        per-tick frontier freeze when nobody will read the partials' impact
        brackets — the cheapest way to run a purely deadline-bounded batch.
        """
        normalized = [coerce_spec(index, spec) for index, spec in enumerate(specs)]
        before = self.engine.metrics()
        start = time.perf_counter()
        expires_at = None if deadline is None else start + float(deadline)
        # One budget probes the batch-level cancellation flag; the per-query
        # deadline is recomputed each iteration from the shared expiry.
        batch_budget = StreamBudget(cancel=cancel)

        for outcome in normalized:
            remaining = None if expires_at is None else expires_at - time.perf_counter()
            if batch_budget.cancelled() or (remaining is not None and remaining <= 0):
                outcome.skipped = True
                continue
            spec = outcome.spec
            query_start = time.perf_counter()
            try:
                last: PartialKSPRResult | None = None
                for snapshot in self.engine.query_stream(
                    spec.focal,
                    spec.k,
                    method=spec.method,
                    deadline=remaining,
                    max_batches=max_batches,
                    cancel=cancel,
                    capture=capture,
                    **spec.option_dict(),
                ):
                    last = snapshot
                if last is not None and last.done:
                    outcome.result = last.to_result()
                elif last is not None:
                    outcome.partial = last
                else:
                    outcome.skipped = True
            except Exception as error:  # noqa: BLE001 - reported per query
                outcome.error = error
            outcome.seconds = time.perf_counter() - query_start

        after = self.engine.metrics()
        return BatchReport(
            outcomes=normalized,
            wall_seconds=time.perf_counter() - start,
            cache_hits=after["engine.result_cache.hits"] - before["engine.result_cache.hits"],
            cold_queries=after["engine.queries.cold"] - before["engine.queries.cold"],
        )


def run_batch(engine, specs: Iterable[QuerySpec | tuple], max_workers: int | None = None) -> BatchReport:
    """Convenience wrapper: ``QueryBatch(engine, max_workers).run(specs)``."""
    return QueryBatch(engine, max_workers=max_workers).run(specs)
