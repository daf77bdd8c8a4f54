"""Per-subtree sharded execution of CTA: one query, many cores.

The CellTree insertion algorithm recurses independently into the two
subtrees of every split node — once a node exists, nothing that happens in
its sibling's subtree can influence it.  That makes the tree a natural
sharding boundary for a *single* query:

1. a short **seed phase** inserts hyperplanes serially until the tree has at
   least ``workers * shard_factor`` active leaves;
2. every active leaf becomes a :class:`~repro.parallel.shards.SubtreeShard`
   and is shipped to a worker process, which re-roots a fresh CellTree at
   the leaf (same constraint stack, same witnesses, same rank offset) and
   inserts the remaining hyperplanes;
3. the per-shard answers are merged back in the seed tree's depth-first
   order, so the reported cells — bounding halfspaces, ranks and witnesses —
   are **identical** to what the single-process run produces.

The equivalence argument: a worker performs exactly the LP probes, witness
tests, splits and eliminations the serial run performs inside that subtree,
in the same order, on the same constraint rows; and a depth-first traversal
of the full tree is the concatenation of the seed tree's depth-first leaf
order with each leaf's subtree traversal.

Execution is a *stream*: :func:`parallel_ticks` commits finished shards
strictly in the seed tree's depth-first order (an out-of-order shard result
is buffered until every earlier shard has landed) and yields one
:class:`~repro.core.base.StreamTick` per commit, so consumers receive region
prefixes of the deterministic serial order while later shards are still
running.  :func:`parallel_cta` is the all-at-once drain of that stream, opened
like every CTA query by :func:`repro.core.cta.open_cta`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from typing import Iterator, Sequence

import numpy as np

from ..core.base import (
    PreparedQuery,
    Pull,
    QueryContext,
    ReportedCell,
    StreamTick,
    drain,
    report_leaves,
)
from ..core.celltree import CellTree
from ..core.cta import open_cta
from ..core.result import FrontierCell, KSPRResult
from ..geometry.halfspace import Hyperplane
from ..geometry.linprog import ConstraintStack, LPCounters
from ..obs.metrics import LP_CONSTRAINTS, Counter, MetricsRegistry, active_registry, use_registry
from ..obs.trace import current_tracer
from ..records import Dataset
from ..robust import Tolerance
from .shards import SubtreeShard, resolve_workers

__all__ = ["parallel_cta", "parallel_ticks", "DEFAULT_SHARD_FACTOR"]

#: Target number of shards per worker.  Over-partitioning keeps workers busy
#: when shards die early (their whole subtree gets eliminated).
DEFAULT_SHARD_FACTOR = 4


def _expand_shard_group(
    payload: tuple[int, int, list[Hyperplane], list[SubtreeShard], Tolerance | None, bool],
) -> list[tuple]:
    """Worker entry point: expand a group of subtree shards to completion.

    Returns, per shard, its index, the reported cells (local bounding
    halfspaces, absolute rank, witness), the LP counter totals, the number
    of CellTree nodes created, the shard's wall-clock seconds, and — when
    the calling process has an active registry — the shard's registry: its LP
    constraint-count bucket counts (fixed bounds, so the driver-side merge
    is exact and worker-count-invariant) and its counter values, such as
    ``query.lp.vertex_certificates``.
    """
    dimensionality, k, hyperplanes, shards, tolerance, collect_metrics = payload
    results = []
    for shard in shards:
        shard_start = time.perf_counter()
        counters = LPCounters()
        registry = MetricsRegistry() if collect_metrics else None
        constraints = ConstraintStack.for_space(dimensionality)
        for halfspace in shard.prefix:
            constraints = constraints.push(halfspace)
        k_local = k - shard.rank_offset
        tree = CellTree(
            dimensionality,
            k_local,
            counters=counters,
            root_constraints=constraints,
            root_witnesses=shard.witnesses,
            tolerance=tolerance,
        )
        with use_registry(registry) if registry is not None else nullcontext():
            for hyperplane in hyperplanes:
                tree.insert(hyperplane)
                if tree.is_exhausted:
                    break
        cells = [
            (cell.halfspaces, cell.rank + shard.rank_offset, cell.witness)
            for cell in report_leaves(tree, k_local)
        ]
        if registry is not None:
            histogram = registry.histogram(LP_CONSTRAINTS)
            metrics_payload = (
                (list(histogram.counts), histogram.total, histogram.sum),
                {
                    instrument.name: instrument.value
                    for instrument in registry.instruments()
                    if isinstance(instrument, Counter)
                },
            )
        else:
            metrics_payload = None
        results.append(
            (
                shard.index,
                cells,
                (counters.feasibility_calls, counters.optimize_calls, counters.total_constraints),
                tree.node_count(),
                time.perf_counter() - shard_start,
                metrics_payload,
            )
        )
    return results


def parallel_ticks(
    context: QueryContext,
    workers: int | None = None,
    shard_factor: int = DEFAULT_SHARD_FACTOR,
    capture: bool = False,
) -> Iterator[StreamTick]:
    """Sharded CTA expansion as a resumable, deterministically merged stream.

    After the serial seed phase, every active leaf becomes a shard and the
    shard groups are dispatched to worker processes.  Shards *commit* —
    i.e. their reported cells are released to the consumer — strictly in the
    seed tree's depth-first order, buffering out-of-order completions, so the
    concatenated ``new_cells`` across ticks is exactly the cell sequence of
    the single-process run regardless of worker scheduling.  ``capture=True``
    freezes the uncommitted shards as the snapshot frontier (each shard's
    subtree region bounds everything it may still report).

    Suspending the generator between ticks pauses the *merge*; already
    dispatched shard groups keep computing in the background and are
    collected on resume.  Closing the generator cancels undispatched work and
    releases the pool.
    """
    workers = resolve_workers(workers)
    if context.effective_k < 1:
        yield StreamTick(done=True)
        return

    tracer = current_tracer()
    registry = active_registry()
    context.prime_hyperplanes()
    hyperplanes = [context.hyperplane_for(int(record_id)) for record_id in context.competitors.ids]
    tree = context.new_celltree()
    insertion_seconds = 0.0
    segment_start = time.perf_counter()

    # --- seed phase: grow enough independent subtrees to shard over --------
    target_shards = workers * max(1, shard_factor)
    seeded = 0
    exhausted = False
    while seeded < len(hyperplanes):
        context.stats.processed_records += 1
        tree.insert(hyperplanes[seeded])
        seeded += 1
        if tree.is_exhausted:
            exhausted = True
            break
        if workers > 1 and sum(1 for _ in tree.iter_active_leaves()) >= target_shards:
            break
    remaining = [] if exhausted else hyperplanes[seeded:]

    def finish(new_cells: list[ReportedCell], extra_nodes: int, batches: int) -> StreamTick:
        context.stats.add_phase(
            "insertion", insertion_seconds + (time.perf_counter() - segment_start)
        )
        context.stats.celltree_nodes = tree.node_count() + extra_nodes
        context.stats.space_bytes = tree.memory_bytes() + context.tree.memory_bytes()
        # Stats are charged here; the terminal tick carries no tree.
        return StreamTick(
            new_cells=new_cells,
            done=True,
            batches=batches,
            processed=context.stats.processed_records,
        )

    if not remaining:
        yield finish(report_leaves(tree, context.effective_k), extra_nodes=0, batches=1)
        return

    shards = []
    for index, leaf in enumerate(tree.iter_active_leaves()):
        rank_offset = leaf.rank() - 1
        if rank_offset + 1 > context.effective_k:
            # Ranks only grow down the tree: nothing under this leaf can
            # ever be reported, so the shard is skipped outright.
            continue
        shards.append(
            SubtreeShard(
                index=index,
                prefix=tuple(leaf.path_halfspaces()),
                witnesses=tuple(leaf.witnesses),
                rank_offset=rank_offset,
            )
        )
    context.stats.processed_records += len(remaining)
    if tracer.enabled:
        tracer.event(
            "parallel.seeded", seeded=seeded, shards=len(shards), workers=workers
        )

    # Round-robin shards into one task per worker; cell order is restored by
    # the in-order commit of the merge loop below.
    groups = [shards[start::workers] for start in range(workers)]
    groups = [group for group in groups if group]
    payloads = [
        (
            context.cell_dimensionality,
            context.effective_k,
            remaining,
            group,
            context.tolerance,
            registry is not None,
        )
        for group in groups
    ]

    shard_by_index = {shard.index: shard for shard in shards}
    shard_order = sorted(shard_by_index)
    cells_by_index: dict[int, list] = {}
    meta_by_index: dict[int, tuple] = {}
    committed = 0
    extra_nodes = 0
    batches = 0

    def consume_group(group_result) -> None:
        nonlocal extra_nodes
        for shard_index, cells, counter_totals, nodes_created, elapsed, metrics in group_result:
            cells_by_index[shard_index] = cells
            meta_by_index[shard_index] = (counter_totals, nodes_created, elapsed)
            worker_counters = LPCounters(*counter_totals)
            context.counters.merge(worker_counters)
            if registry is not None and metrics is not None:
                # Fixed bucket bounds make this merge exact: the summed
                # distribution, like the summed counters, is the same
                # however shards were grouped onto workers.
                histogram, counter_values = metrics
                registry.histogram(LP_CONSTRAINTS).merge_counts(*histogram)
                for name, value in counter_values.items():
                    registry.counter(name).inc(value)
            extra_nodes += nodes_created - 1  # the worker root IS the seed leaf

    def commit_ready() -> list[ReportedCell]:
        nonlocal committed
        new_cells: list[ReportedCell] = []
        while committed < len(shard_order) and shard_order[committed] in cells_by_index:
            shard_index = shard_order[committed]
            prefix = shard_by_index[shard_index].prefix
            for local_path, rank, witness in cells_by_index[shard_index]:
                new_cells.append(
                    ReportedCell(halfspaces=prefix + local_path, rank=rank, witness=witness)
                )
            if tracer.enabled:
                # Shard spans surface in commit order — i.e. deterministic
                # by shard id, mirroring the ordered-commit merge.  They are
                # `detail` spans because the shard layout itself depends on
                # the worker count.
                counter_totals, nodes_created, elapsed = meta_by_index[shard_index]
                with tracer.span("parallel.shard", detail=True) as shard_span:
                    shard_span.set(
                        shard=shard_index,
                        cells=len(cells_by_index[shard_index]),
                        nodes=nodes_created,
                        lp_feasibility=counter_totals[0],
                        lp_optimize=counter_totals[1],
                    )
                    shard_span.note(seconds=elapsed)
            committed += 1
        return new_cells

    def frontier() -> tuple[FrontierCell, ...]:
        if not capture:
            return ()
        return tuple(
            FrontierCell(
                halfspaces=shard_by_index[shard_index].prefix,
                rank=shard_by_index[shard_index].rank_offset + 1,
                witness=(
                    shard_by_index[shard_index].witnesses[0]
                    if shard_by_index[shard_index].witnesses
                    else None
                ),
            )
            for shard_index in shard_order[committed:]
        )

    if len(payloads) <= 1 or workers == 1:
        # In-process expansion: stream one shard group at a time.
        for position, payload in enumerate(payloads):
            consume_group(_expand_shard_group(payload))
            batches += 1
            new_cells = commit_ready()
            if position + 1 == len(payloads):
                yield finish(new_cells, extra_nodes, batches)
                return
            insertion_seconds += time.perf_counter() - segment_start
            yield StreamTick(
                new_cells=new_cells,
                frontier=frontier(),
                done=False,
                batches=batches,
                processed=context.stats.processed_records,
            )
            segment_start = time.perf_counter()
        yield finish([], extra_nodes, batches)  # pragma: no cover - payloads never empty
        return

    pool = ProcessPoolExecutor(max_workers=len(payloads))
    try:
        pending = {pool.submit(_expand_shard_group, payload) for payload in payloads}
        ready: set = set()
        while pending or ready:
            # One tick per finished group, as in-process: groups that finish
            # inside one wait() must not merge into one tick, or the number
            # of ticks (and where max_batches pauses) depends on timing.
            if not ready:
                ready, pending = wait(pending, return_when=FIRST_COMPLETED)
            consume_group(ready.pop().result())
            batches += 1
            new_cells = commit_ready()
            if not pending and not ready:
                yield finish(new_cells, extra_nodes, batches)
                return
            insertion_seconds += time.perf_counter() - segment_start
            yield StreamTick(
                new_cells=new_cells,
                frontier=frontier(),
                done=False,
                batches=batches,
                processed=context.stats.processed_records,
            )
            segment_start = time.perf_counter()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

def parallel_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    workers: int | None = None,
    space: str = "transformed",
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    shard_factor: int = DEFAULT_SHARD_FACTOR,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """Answer one kSPR query with CTA, sharded across worker processes.

    Accepts the same arguments as :func:`repro.core.cta.cta` plus ``workers``
    (``None`` means all available cores) and ``shard_factor`` (shards per
    worker).  The answer — every region's bounding halfspaces, rank and
    witness — is identical to the single-process :func:`~repro.core.cta.cta`
    call; with ``workers=1`` it is that call.  Implemented as the drain of
    CTA's opener (:func:`repro.core.cta.open_cta`), whose ``workers > 1``
    stream is :func:`parallel_ticks`, the one the anytime serving layer
    pulls incrementally.
    """
    opened = open_cta(
        dataset, focal, k, space=space, finalize_geometry=finalize_geometry, prepared=prepared,
        tolerance=tolerance, pull=Pull(workers=resolve_workers(workers), shard_factor=shard_factor),
    )
    return drain(opened)
