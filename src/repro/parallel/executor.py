"""Process-pool execution of multi-query kSPR workloads (per-focal shards).

:class:`ShardedExecutor` spreads a batch of independent queries over worker
processes.  Each worker runs one :class:`repro.engine.Engine` over the
shipped dataset and answers its shard through :meth:`Engine.query` — the
engine's own focal partitioning, k-skyband pruning, prepared per-focal state
and result cache — so every answer is identical to what the engine (or a
plain :func:`repro.kspr` call, with pruning disabled) would produce for the
same query.

The expensive O(n²) dominator-count pass is performed **once** in the parent
and shipped to the workers, whose engines take the counts instead of
recounting.  Shards are planned per focal record (see
:func:`~repro.parallel.shards.plan_focal_shards`) so prepared state is never
duplicated across workers.

Approximate specs (``method="sample"``, see :mod:`repro.approx`) are served
through the same path, and the seeded chunk substreams make the estimate
identical to the serial run for every worker count and shard plan.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

import numpy as np

from ..core.query import resolve_method
from ..engine.batch import BatchReport, QuerySpec, coerce_spec
from ..engine.engine import Engine
from ..exceptions import ReproError
from ..index.dominance import dominated_counts
from ..records import Dataset
from ..robust import Tolerance
from .shards import plan_focal_shards, resolve_workers

__all__ = ["ShardedExecutor"]

def _portable_error(error: Exception) -> Exception:
    """The original exception when it survives pickling, else a RuntimeError.

    Keeps error handling type-stable across worker counts: a query that
    raises :class:`~repro.exceptions.InvalidQueryError` surfaces that same
    exception type whether it ran in-process or in a worker.
    """
    try:
        pickle.dumps(error)
        return error
    except Exception:  # noqa: BLE001 - unpicklable exotic exception
        return RuntimeError(repr(error))


def _serve(payload: tuple) -> tuple[list[tuple], int, int]:
    """Answer one shard of queries in order on an engine of its own.

    ``payload`` is ``(dataset, counts, engine options, tasks, deadline)``,
    each task an ``(index, QuerySpec)`` pair; the result is one ``(index,
    result, error, seconds, skipped)`` outcome per task plus the engine's
    cache hits and cold queries.  The deadline is a ``time.time()`` epoch
    anchored at ``run()`` start, so pool startup, state transfer and the
    engine build spend the caller's budget.  It is checked *between*
    queries, and queries past it come back skipped: every shard serves a
    deterministic prefix.
    """
    dataset, counts, options, tasks, deadline_epoch = payload
    try:
        engine = Engine._seeded(dataset, counts, **options)
    except ReproError as failure:  # e.g. an empty dataset: no query of the shard can run
        return [(index, None, failure, 0.0, False) for index, _ in tasks], 0, 0
    outcomes = []
    for index, spec in tasks:
        if deadline_epoch is not None and time.time() >= deadline_epoch:
            outcomes.append((index, None, None, 0.0, True))
            continue
        start, result, error = time.perf_counter(), None, None
        try:
            result = engine.query(spec.focal, spec.k, spec.method, **spec.option_dict())
        except Exception as failure:  # noqa: BLE001 - reported per query
            error = _portable_error(failure)
        outcomes.append((index, result, error, time.perf_counter() - start, False))
    metrics = engine.metrics()
    return outcomes, int(metrics["engine.result_cache.hits"]), int(metrics["engine.queries.cold"])


class ShardedExecutor:
    """Answer batches of kSPR queries across worker processes.

    Parameters
    ----------
    dataset:
        The records to query (a :class:`~repro.records.Dataset` or raw array).
    workers:
        Number of worker processes; ``None`` uses every available core, and
        ``1`` runs sequentially in-process (the timing baseline).
    method / k_max / fanout / prune_skyband:
        Same semantics as :class:`repro.engine.Engine`; answers for a given
        query are identical to the engine's.
    dominator_counts:
        Optional precomputed per-record dominator counts (aligned with the
        dataset rows) to skip the O(n²) pass, e.g. from
        :meth:`repro.engine.Engine.snapshot_state`.
    tolerance:
        Default numerical policy applied to every query of the batch (see
        :mod:`repro.robust`); a per-spec ``tolerance`` option overrides it.
        Shipped to the workers with the rest of the settings so sharded
        answers match what the engine computes in-process.
    """

    def __init__(
        self,
        dataset: Dataset | np.ndarray,
        *,
        workers: int | None = None,
        method: str = "lpcta",
        k_max: int = 16,
        fanout: int = 32,
        prune_skyband: bool = True,
        dominator_counts: np.ndarray | None = None,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        if not isinstance(dataset, Dataset):
            dataset = Dataset(np.asarray(dataset, dtype=float))
        self.dataset = dataset
        self.workers = resolve_workers(workers)
        resolve_method(method)  # an unknown default method fails here, not per query
        self._options = dict(
            method=method, k_max=k_max, fanout=fanout, prune_skyband=prune_skyband,
            tolerance=tolerance,
        )
        if dominator_counts is not None:
            self._counts = np.asarray(dominator_counts, dtype=np.int64)
        elif prune_skyband:
            self._counts = dominated_counts(dataset)
        else:
            # Never read: an engine that does not prune ignores the counts.
            self._counts = np.zeros(dataset.cardinality, dtype=np.int64)

    def run(
        self, specs: Iterable[QuerySpec | tuple], deadline: float | None = None
    ) -> BatchReport:
        """Execute every query and return a :class:`BatchReport` in submission order.

        ``deadline`` (seconds) makes the run anytime: every worker serves its
        shard in submission order until the budget elapses; queries past it
        are returned with ``skipped=True`` (neither answered nor failed), so
        the caller gets a well-defined completed prefix per shard instead of
        an all-or-nothing timeout.  Granularity is one query — an in-flight
        query always completes.
        """
        normalized = [coerce_spec(index, spec) for index, spec in enumerate(specs)]
        tasks = [(outcome.index, outcome.spec) for outcome in normalized]
        start = time.perf_counter()
        # One budget anchor for the whole call: pool startup and state
        # transfer spend the caller's deadline, not extra time on top of it.
        deadline_epoch = None if deadline is None else time.time() + float(deadline)
        state = (self.dataset, self._counts, self._options)
        if self.workers == 1 or len(tasks) <= 1:
            served = [_serve((*state, tasks, deadline_epoch))]
        else:
            plan = plan_focal_shards(
                [np.asarray(spec.focal, dtype=float).tobytes() for _, spec in tasks], self.workers
            )
            payloads = [(*state, [tasks[i] for i in shard], deadline_epoch) for shard in plan]
            with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
                served = list(pool.map(_serve, payloads))
        wall = time.perf_counter() - start

        answered = {row[0]: row[1:] for shard, _, _ in served for row in shard}
        for out in normalized:
            out.result, out.error, out.seconds, out.skipped = answered[out.index]
        return BatchReport(
            outcomes=normalized,
            wall_seconds=wall,
            cache_hits=sum(hits for _, hits, _ in served),
            cold_queries=sum(cold for _, _, cold in served),
        )
