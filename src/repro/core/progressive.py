"""Shared progressive processing loop of P-CTA and LP-CTA (Algorithms 2 and 3).

Both algorithms iterate over *batches* of records chosen so that a record is
never processed before all of its dominators (Invariant 1):

1. the first batch is the skyline of the competitor set;
2. each batch's hyperplanes are inserted into the CellTree (with the
   dominance-graph shortcut of Section 5);
3. promising leaves (rank <= k) are examined: a leaf whose pivots dominate
   every unprocessed record can be reported immediately (Lemma 5); leaves that
   cannot be reported contribute their non-pivot records to a union ``NP``;
4. optionally — this is what turns P-CTA into LP-CTA — look-ahead rank bounds
   prune or report leaves before step 3;
5. the next batch is the set of unprocessed records in the skyline of the
   dataset with ``NP`` ignored.

The loop ends when the CellTree has no active leaves left or every competitor
has been processed (at which point surviving leaves have exact ranks).

The loop is implemented as a *generator*, :func:`progressive_ticks`, yielding
one :class:`~repro.core.base.StreamTick` per batch with the cells certified by
that batch (Lemma 5 makes certification final, so they can be acted on long
before the query ends).  :func:`repro.core.base.drain` is the all-at-once
driver — it drains the generator and builds the complete result — while the
anytime serving layer (:mod:`repro.stream`) pulls ticks under a
deadline/budget and resumes the suspended generator on a later call,
producing a final answer byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from typing import Iterator, Protocol

import numpy as np

from ..index.dominance import DominanceGraph
from ..index.rtree import AggregateRTree, RTreeNode
from ..index.skyline import skyline
from ..obs.trace import current_tracer
from .base import QueryContext, ReportedCell, StreamTick, capture_frontier, report_leaves
from .bounds import RankBounds
from .celltree import Cell, CellTreeNode

__all__ = [
    "BoundEvaluator",
    "progressive_ticks",
    "exists_unprocessed_not_dominated",
]


class BoundEvaluator(Protocol):
    """Anything that can bracket the rank of the focal record within a cell."""

    def evaluate(self, cell: Cell, k: int) -> RankBounds:  # pragma: no cover - protocol
        """Return ``[lower, upper]`` rank bounds for the focal record in ``cell``."""
        ...


def exists_unprocessed_not_dominated(
    tree: AggregateRTree,
    pivot_values: np.ndarray,
    processed_ids: set[int],
) -> bool:
    """Is there an unprocessed record that no pivot dominates?

    This is the reporting test of Algorithm 2 (line 16): if the answer is
    *no*, Lemma 5 guarantees no unprocessed record can change the cell's rank
    or extent and the cell may be reported immediately.  The aggregate R-tree
    is used to discard whole subtrees whose MBR is dominated by a pivot.
    """
    dataset = tree.dataset
    if len(processed_ids) >= dataset.cardinality:
        return False
    has_pivots = pivot_values.size > 0

    def subtree_dominated(corner: np.ndarray) -> bool:
        if not has_pivots:
            return False
        geq = np.all(pivot_values >= corner, axis=1)
        gt = np.any(pivot_values > corner, axis=1)
        return bool(np.any(geq & gt))

    stack: list[RTreeNode] = [tree.root]
    while stack:
        node = tree.visit(stack.pop())
        if subtree_dominated(node.mbr.high):
            continue
        if node.is_leaf:
            for position in node.record_positions:
                record_id = int(dataset.ids[int(position)])
                if record_id in processed_ids:
                    continue
                values = dataset.values[int(position)]
                if not subtree_dominated(values):
                    return True
            continue
        stack.extend(node.children)
    return False


def progressive_ticks(
    context: QueryContext,
    bound_evaluator: BoundEvaluator | None = None,
    capture: bool = False,
) -> Iterator[StreamTick]:
    """The progressive loop of P-CTA / LP-CTA as a resumable tick stream.

    Yields one :class:`~repro.core.base.StreamTick` per record batch carrying
    the cells that batch certified (bounds reporting, Lemma 5, or exact ranks
    once every competitor is processed).  The terminal tick has ``done=True``
    and carries the CellTree for result statistics.  ``capture=True``
    additionally freezes the undecided frontier on every non-terminal tick
    (used for anytime impact brackets; skipped by default because the
    all-at-once driver has no use for it).

    Suspending the generator between ticks pauses the query with no work
    lost; the concatenation of all ``new_cells`` across ticks is exactly the
    reported-cell list of the uninterrupted loop, in the same order.
    """
    if context.effective_k < 1:
        yield StreamTick(done=True)
        return

    k = context.effective_k
    tracer = current_tracer()
    tree = context.new_celltree()
    graph = DominanceGraph(context.competitors)
    processed: set[int] = set()
    total_competitors = context.competitors.cardinality

    insertion_seconds = 0.0
    bounds_seconds = 0.0
    lookahead_seconds = 0.0

    if total_competitors == 0:
        # No competitor can ever out-score the focal record: the whole
        # preference space (the root, rank 1) is the answer.
        yield StreamTick(new_cells=report_leaves(tree, k), done=True, tree=tree)
        return

    def finish(new_cells: list[ReportedCell]) -> StreamTick:
        context.stats.add_phase("insertion", insertion_seconds)
        if bound_evaluator is not None:
            context.stats.add_phase("bounds", bounds_seconds)
        context.stats.add_phase("lookahead", lookahead_seconds)
        return StreamTick(
            new_cells=new_cells,
            done=True,
            batches=context.stats.batches,
            processed=len(processed),
            tree=tree,
        )

    batch = skyline(context.tree)
    while batch:
        context.stats.batches += 1
        emitted: list[ReportedCell] = []

        # --- insert the batch (Invariant 1 holds by construction) ---------
        phase_start = time.perf_counter()
        context.prime_hyperplanes(batch)
        for record_id in batch:
            dominators = graph.dominators_of(record_id)
            context.stats.processed_records += 1
            tree.insert(context.hyperplane_for(record_id), dominators)
            graph.add(record_id)
            processed.add(record_id)
        insertion_seconds += time.perf_counter() - phase_start

        if tree.is_exhausted:
            yield finish(emitted)
            return

        # --- collect promising leaves, eliminating stale ones --------------
        promising: list[tuple[CellTreeNode, int]] = []
        for leaf in list(tree.iter_active_leaves()):
            rank = leaf.rank()
            if rank > k:
                tree.eliminate(leaf)
            else:
                promising.append((leaf, rank))

        # --- look-ahead rank bounds (LP-CTA only) --------------------------
        # Following Section 6.4, bounds are computed once per leaf, right after
        # the batch that created it; surviving leaves are not re-evaluated.
        if bound_evaluator is not None and promising:
            phase_start = time.perf_counter()
            undecided: list[tuple[CellTreeNode, int]] = []
            for leaf, rank in promising:
                if leaf.bounds_checked:
                    undecided.append((leaf, rank))
                    continue
                leaf.bounds_checked = True
                bounds = bound_evaluator.evaluate(leaf.cell, k)
                if bounds.lower > k:
                    tree.eliminate(leaf)
                    context.stats.cells_pruned_by_bounds += 1
                elif bounds.upper <= k:
                    emitted.append(ReportedCell.of(leaf, bounds.upper))
                    tree.report(leaf)
                    context.stats.cells_reported_early += 1
                else:
                    undecided.append((leaf, rank))
            promising = undecided
            bounds_seconds += time.perf_counter() - phase_start

        if not promising:
            yield finish(emitted)
            return
        if len(processed) >= total_competitors:
            # Every competitor has been processed: surviving leaf ranks are exact.
            for leaf, rank in promising:
                emitted.append(ReportedCell.of(leaf, rank))
                tree.report(leaf)
            yield finish(emitted)
            return

        # --- Lemma-5 reporting and the non-pivot union ---------------------
        phase_start = time.perf_counter()
        non_pivot_union: set[int] = set()
        for leaf, rank in promising:
            pivot_ids = leaf.record_ids(positive=False)
            pivot_values = (
                np.vstack([context.record_values(record_id) for record_id in pivot_ids])
                if pivot_ids
                else np.empty((0, context.data_dimensionality))
            )
            if not exists_unprocessed_not_dominated(context.tree, pivot_values, processed):
                emitted.append(ReportedCell.of(leaf, rank))
                tree.report(leaf)
                context.stats.cells_reported_early += 1
            else:
                non_pivot_union |= leaf.record_ids(positive=True)
        lookahead_seconds += time.perf_counter() - phase_start

        if tree.is_exhausted:
            yield finish(emitted)
            return

        if tracer.enabled:
            # One event per batch: batches are coarse (tens of insertions),
            # so this stays far off the per-insertion hot path.
            tracer.event(
                "progressive.batch",
                batch=context.stats.batches,
                processed=len(processed),
                certified=len(emitted),
                nodes=tree.node_count(),
            )

        # --- choose the next batch (Section 5) -----------------------------
        next_skyline = skyline(context.tree, exclude_ids=non_pivot_union)
        batch = [record_id for record_id in next_skyline if record_id not in processed]
        if not batch:
            # Fall back to the skyline of the unprocessed records: Invariant 1
            # still holds and progress is guaranteed.
            batch = skyline(context.tree, exclude_ids=processed)

        yield StreamTick(
            new_cells=emitted,
            frontier=capture_frontier(tree, k) if capture else (),
            done=False,
            batches=context.stats.batches,
            processed=len(processed),
            tree=tree,
        )

    yield finish([])

