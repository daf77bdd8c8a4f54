"""CTA — the basic Cell Tree Approach (Section 4, Algorithm 1).

CTA maps every competitor record into a hyperplane and inserts the hyperplanes
one by one into a :class:`~repro.core.celltree.CellTree`.  Nodes whose rank
exceeds ``k`` are eliminated during insertion; when all hyperplanes have been
inserted (or the whole tree has been eliminated), the surviving leaves with
rank at most ``k`` form the kSPR answer.

CTA applies the cell-representation, infeasible-cell detection and insertion
optimisations of Section 4 (Lemma 2, witness caching) but no record ordering
or look-ahead — those are the contributions of P-CTA and LP-CTA.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, Sequence

import numpy as np

from ..obs.trace import current_tracer
from ..records import Dataset
from ..robust import Tolerance
from .base import (
    TRANSFORMED_SPACE,
    OpenQuery,
    PreparedQuery,
    Pull,
    QueryContext,
    StreamTick,
    capture_frontier,
    drain,
    prepare_context,
    report_leaves,
)
from .result import KSPRResult

__all__ = ["cta", "cta_ticks", "open_cta", "DEFAULT_CHUNK_SIZE", "TRACE_EVERY_CHUNKS"]

#: Default number of hyperplane insertions per streaming tick.
DEFAULT_CHUNK_SIZE = 64

#: Progress-event cadence of the tick loop: one trace event every this many
#: chunks (never per insertion), keeping tracer overhead off the hot path.
TRACE_EVERY_CHUNKS = 4


def cta_ticks(
    context: QueryContext,
    chunk_size: int | None = None,
    capture: bool = False,
) -> Iterator[StreamTick]:
    """The CTA insertion loop as a resumable tick stream.

    CTA has no Lemma-5 early reporting (records arrive in arbitrary order, so
    no cell's rank is final before the last insertion): every tick but the
    terminal one carries no certified cells, only progress and — with
    ``capture=True`` — the frozen frontier whose shrinking volume drives the
    anytime impact bracket.  The terminal tick emits the full answer.

    Suspending between ticks pauses the query with no work lost; draining the
    stream in any chunking reproduces :func:`cta` byte-identically.
    """
    if context.effective_k < 1:
        yield StreamTick(done=True)
        return
    chunk = max(1, int(chunk_size)) if chunk_size is not None else DEFAULT_CHUNK_SIZE

    tracer = current_tracer()
    tree = context.new_celltree()
    chunks = 0
    processed = 0
    exhausted = False
    total = context.competitors.cardinality
    record_ids = iter(context.competitors.ids.tolist())
    # Vectorised hyperplane construction is part of the insertion cost, as
    # in the all-at-once driver — phase timings stay comparable.
    phase_start = time.perf_counter()
    context.prime_hyperplanes()
    insertion_seconds = time.perf_counter() - phase_start
    while processed < total and not exhausted:
        phase_start = time.perf_counter()
        for record_id in itertools.islice(record_ids, chunk):
            context.stats.processed_records += 1
            processed += 1
            tree.insert(context.hyperplane_for(record_id))
            if tree.is_exhausted:
                exhausted = True
                break
        insertion_seconds += time.perf_counter() - phase_start
        chunks += 1
        if tracer.enabled and chunks % TRACE_EVERY_CHUNKS == 0:
            tracer.event(
                "cta.progress", chunks=chunks, processed=processed,
                nodes=tree.node_count(),
            )
        if processed < total and not exhausted:
            yield StreamTick(
                frontier=capture_frontier(tree, context.effective_k) if capture else (),
                done=False,
                batches=chunks,
                processed=processed,
                tree=tree,
            )

    context.stats.add_phase("insertion", insertion_seconds)
    yield StreamTick(
        new_cells=report_leaves(tree, context.effective_k),
        done=True,
        batches=chunks,
        processed=processed,
        tree=tree,
    )


def open_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    *,
    space: str = TRANSFORMED_SPACE,
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
    pull: Pull = Pull(),
) -> OpenQuery:
    """Open a CTA query: its context, tick stream and finalize rule.

    ``pull.workers > 1`` picks the sharded stream
    (:func:`repro.parallel.subtree.parallel_ticks`, labelled ``CTA[workers=N]``),
    else :func:`cta_ticks`; both report the same cells in the same order.
    """
    workers = int(pull.workers) if pull.workers is not None and pull.workers > 1 else None
    context = prepare_context(
        dataset, focal, k, algorithm="CTA" if workers is None else f"CTA[workers={workers}]",
        space=space, prepared=prepared, tolerance=tolerance,
    )
    if workers is None:
        ticks = cta_ticks(context, pull.chunk_size, capture=pull.capture)
    else:
        # Local import: repro.parallel imports the engine, which imports core.
        from ..parallel.subtree import DEFAULT_SHARD_FACTOR, parallel_ticks

        shard_factor = DEFAULT_SHARD_FACTOR if pull.shard_factor is None else pull.shard_factor
        ticks = parallel_ticks(
            context, workers=workers, shard_factor=shard_factor, capture=pull.capture
        )
    return OpenQuery(context, ticks, finalize_geometry)


def cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    space: str = "transformed",
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """Answer a kSPR query with the basic Cell Tree Approach.

    Parameters
    ----------
    dataset:
        The set of competing options.
    focal:
        The focal record ``p`` (need not belong to ``dataset``).
    k:
        Shortlist size.
    space:
        ``"transformed"`` (default, Section 3.2) or ``"original"`` for the
        Appendix C variant operating on polyhedral cones.
    finalize_geometry:
        Whether to run the exact-geometry finalisation step on result regions.
    prepared:
        Optional :class:`~repro.core.base.PreparedQuery` with precomputed
        partition / index state (see :mod:`repro.engine`).
    tolerance:
        Shared numerical policy for this query (see :mod:`repro.robust`).
    """
    opened = open_cta(
        dataset, focal, k, space=space, finalize_geometry=finalize_geometry, prepared=prepared,
        tolerance=tolerance,
    )
    return drain(opened)
