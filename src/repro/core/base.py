"""Shared plumbing of the kSPR algorithms (CTA, P-CTA, LP-CTA and variants).

Every algorithm follows the same outer structure:

1. validate the query and split the dataset into competitors / dominators /
   dominated records with respect to the focal record (Section 3.1);
2. build an aggregate R-tree over the competitors;
3. run the algorithm-specific processing over a :class:`~repro.core.celltree.CellTree`;
4. finalise the result cells into :class:`~repro.core.result.PreferenceRegion`
   objects (exact geometry) and collect statistics.

:class:`QueryContext` carries that shared state; :func:`prepare_context` and
:func:`build_result` implement steps 1–2 and 4.  Each exact method has one
*opener* (``open_cta``, ``open_pcta``, ...) that runs steps 1–2 and returns an
:class:`OpenQuery`: the context, the step-3 tick stream and the finalize
rule.  Every entry point runs an opener — :func:`drain` to completion for the
method functions and :meth:`repro.engine.Engine.query`, or step by step in
:class:`repro.stream.AnytimeQuery`.

Steps 1–2 are exactly the work that repeats across queries sharing a dataset
and focal record.  :class:`PreparedQuery` captures their output (the focal
partition, the competitor R-tree and a hyperplane cache) so a serving layer —
see :mod:`repro.engine` — can compute them once and replay many queries
against the prepared state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..exceptions import InvalidQueryError
from ..geometry.halfspace import (
    Halfspace,
    Hyperplane,
    build_hyperplanes,
    original_space_hyperplanes,
)
from ..geometry.linprog import LPCounters
from ..index.rtree import AggregateRTree
from ..obs.trace import current_tracer
from ..records import Dataset, FocalPartition
from ..robust import DEFAULT_TOLERANCE, Tolerance, resolve_tolerance
from .celltree import CellTree, CellTreeNode
from .result import FrontierCell, KSPRResult, PreferenceRegion, QueryStats

__all__ = [
    "QueryContext",
    "ReportedCell",
    "StreamTick",
    "PreparedQuery",
    "Pull",
    "OpenQuery",
    "prepare_context",
    "build_result",
    "build_region",
    "capture_frontier",
    "report_leaves",
    "drain",
    "space_hyperplanes",
]

#: Identifier used for the two preference-space representations.
TRANSFORMED_SPACE = "transformed"
ORIGINAL_SPACE = "original"


def space_hyperplanes(
    space: str, records: np.ndarray, focal: np.ndarray, record_ids: Sequence[int] | np.ndarray
) -> list[Hyperplane]:
    """The hyperplanes of competitor ``records`` against ``focal`` in ``space``.

    One vectorised pass that works row by row, so a record's hyperplane has
    the same bits whichever batch builds it.
    """
    if space == TRANSFORMED_SPACE:
        return build_hyperplanes(records, focal, record_ids)
    return original_space_hyperplanes(records, focal, record_ids)


@dataclass
class ReportedCell:
    """A cell accepted into the kSPR answer, pending finalisation."""

    halfspaces: tuple[Halfspace, ...]
    rank: int
    witness: np.ndarray | None

    @classmethod
    def of(cls, leaf: CellTreeNode, rank: int) -> "ReportedCell":
        """Active ``leaf`` leaving the tree: root-path halfspaces, ``rank``, first witness."""
        return cls(tuple(leaf.path_halfspaces()), rank, leaf.cell.witness)


@dataclass
class StreamTick:
    """One cooperative work unit of a streaming kSPR execution.

    The streaming cores (:func:`repro.core.progressive.progressive_ticks`,
    :func:`repro.core.cta.cta_ticks` and the parallel shard stream) yield one
    tick per unit of work — a P-CTA/LP-CTA batch, a CTA insertion chunk, a
    committed shard group.  The *yield point is the pause point*: a driver
    that stops pulling suspends the computation with no work lost, and
    pulling again resumes it exactly where it stopped, so a truncated-then-
    resumed query is byte-identical to an uninterrupted one.
    """

    #: Cells certified since the previous tick, in final reporting order.
    new_cells: list[ReportedCell] = field(default_factory=list)
    #: Frozen capture of the still-undecided leaves (empty when ``done`` or
    #: when the producer was asked to skip capture).
    frontier: tuple[FrontierCell, ...] = ()
    #: True on the terminal tick: all cells have been emitted.
    done: bool = False
    #: Cumulative work units (batches / chunks / commits) including this one.
    batches: int = 0
    #: Cumulative records processed so far.
    processed: int = 0
    #: The CellTree to charge to the final result's statistics, carried on
    #: the terminal tick (``None`` for producers that account stats
    #: themselves, e.g. the parallel shard stream).
    tree: CellTree | None = None


def report_leaves(tree: CellTree, k: int) -> list[ReportedCell]:
    """The active leaves of ``tree`` ranked within ``k``: root-path halfspaces, rank, witness.

    Once every hyperplane is in, these are the answer cells (their ranks are
    exact); before that, they are the undecided frontier.
    """
    return [
        ReportedCell.of(leaf, rank)
        for leaf in tree.iter_active_leaves()
        if (rank := leaf.rank()) <= k
    ]


def capture_frontier(tree: CellTree | None, k: int) -> tuple[FrontierCell, ...]:
    """Freeze the still-undecided cells of ``tree`` (rank within ``k``).

    Active leaves are the only places future answer regions can come from
    (eliminated subtrees never return, reported cells are already certified),
    so the capture is a sound covering of everything the query may still
    report.  Leaves are copied (path halfspaces, rank, witness) because the
    tree keeps mutating after the snapshot is taken.
    """
    if tree is None:
        return ()
    return tuple(
        FrontierCell(cell.halfspaces, cell.rank, cell.witness) for cell in report_leaves(tree, k)
    )


@dataclass
class PreparedQuery:
    """Precomputed per-(dataset, focal) state shared across many queries.

    Produced by :class:`repro.engine.Engine` (or any caller that wants to
    amortise query setup) and consumed by :func:`prepare_context`:

    * ``partition`` replaces the per-query focal partitioning.  Its competitor
      set may be a *pruned* subset of the true competitors (e.g. restricted to
      the k-skyband, which Lemma 6 shows cannot change the answer), as long as
      ``dominators`` is the exact dominator count of the full dataset.
    * ``tree`` is an already-built aggregate R-tree over exactly
      ``partition.competitors`` — its build time is *not* charged to the query.
    * ``hyperplane_cache`` (optional) shares the record → hyperplane map
      across queries with the same focal record, since a hyperplane depends
      only on the record values and the focal values.
    """

    #: ``tree`` may be ``None`` only for consumers that never touch it — the
    #: sampling estimator (:func:`repro.approx.sample_kspr`) reads just the
    #: partition; every exact algorithm requires a real competitor R-tree.
    partition: FocalPartition
    tree: AggregateRTree | None
    hyperplane_cache: dict[int, Hyperplane] | None = None


@dataclass
class QueryContext:
    """All shared state needed while answering one kSPR query."""

    dataset: Dataset
    focal: np.ndarray
    k: int
    effective_k: int
    partition: FocalPartition
    competitors: Dataset
    tree: AggregateRTree
    stats: QueryStats
    counters: LPCounters
    space: str = TRANSFORMED_SPACE
    #: Shared numerical policy for every comparison made while answering the
    #: query (LP feasibility, side tests, membership, finalisation).
    tolerance: Tolerance = DEFAULT_TOLERANCE
    started_at: float = field(default_factory=time.perf_counter)
    #: ``time.process_time`` mark taken with ``started_at``; the delta at
    #: result-build time becomes ``stats.cpu_seconds``.
    cpu_started_at: float = field(default_factory=time.process_time)
    #: R-tree node accesses already on the (possibly shared) counter when this
    #: query started; per-query I/O is reported as the delta past this mark.
    io_reads_start: int = 0
    _hyperplanes: dict[int, Hyperplane] = field(default_factory=dict)

    @property
    def data_dimensionality(self) -> int:
        """Dimensionality ``d`` of the data records."""
        return self.dataset.dimensionality

    @property
    def cell_dimensionality(self) -> int:
        """Dimensionality of the space the CellTree operates in.

        ``d - 1`` for the transformed space (Section 3.2), ``d`` for the
        original-space variants of Appendix C.
        """
        if self.space == TRANSFORMED_SPACE:
            return self.data_dimensionality - 1
        return self.data_dimensionality

    def new_celltree(self) -> CellTree:
        """A fresh CellTree wired to this query's counters, tolerance and effective k."""
        return CellTree(
            self.cell_dimensionality,
            self.effective_k,
            counters=self.counters,
            tolerance=self.tolerance,
        )

    @cached_property
    def _row_by_id(self) -> dict[int, int]:
        """Competitor id → row of ``competitors`` (built once per query)."""
        return {record_id: row for row, record_id in enumerate(self.competitors.ids.tolist())}

    def rows_of(self, record_ids: Iterable[int]) -> np.ndarray:
        """Rows of ``competitors`` holding ``record_ids``, in the order given.

        They are also the records' positions in ``tree``, which indexes
        ``competitors``.
        """
        row_by_id = self._row_by_id
        return np.fromiter((row_by_id[record_id] for record_id in record_ids), dtype=np.intp)

    def hyperplane_for(self, record_id: int) -> Hyperplane:
        """The (cached) hyperplane ``S(record) = S(focal)`` for a competitor."""
        hyperplane = self._hyperplanes.get(record_id)
        if hyperplane is None:
            self.prime_hyperplanes([record_id])
            hyperplane = self._hyperplanes[record_id]
        return hyperplane

    def prime_hyperplanes(self, record_ids: Sequence[int] | None = None) -> None:
        """Batch-build (and cache) the hyperplanes of many competitors at once.

        One vectorised pass over the competitors' rows builds every missing
        hyperplane.  ``record_ids`` defaults to every competitor; ids whose
        hyperplane is already cached are skipped, so priming composes with
        the shared per-focal cache of :class:`PreparedQuery`.
        """
        cache = self._hyperplanes
        if record_ids is None:
            record_ids = self.competitors.ids.tolist()
        wanted = [int(record_id) for record_id in record_ids if int(record_id) not in cache]
        if not wanted:
            return
        values = self.competitors.values[self.rows_of(wanted)]
        built = space_hyperplanes(self.space, values, self.focal, wanted)
        for record_id, hyperplane in zip(wanted, built):
            cache[record_id] = hyperplane


def prepare_context(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    algorithm: str,
    space: str = TRANSFORMED_SPACE,
    fanout: int = 32,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> QueryContext:
    """Validate inputs and assemble the shared query state.

    When ``prepared`` is given, the focal partition and competitor R-tree are
    taken from it instead of being recomputed, and ``index_build_seconds`` is
    reported as zero — the build cost was paid once, ahead of time.
    ``tolerance`` selects the numerical policy every comparison of the query
    uses (default: :data:`repro.robust.DEFAULT_TOLERANCE`).
    """
    if k < 1:
        raise InvalidQueryError("k must be a positive integer")
    if space not in (TRANSFORMED_SPACE, ORIGINAL_SPACE):
        raise InvalidQueryError(f"unknown preference-space mode {space!r}")
    focal_array = np.asarray(focal, dtype=float)
    if focal_array.ndim != 1:
        raise InvalidQueryError("the focal record must be a 1-D vector")
    if focal_array.shape[0] != dataset.dimensionality:
        raise InvalidQueryError("focal record dimensionality does not match the dataset")
    if dataset.dimensionality < 2:
        raise InvalidQueryError("kSPR requires at least two data attributes")

    stats = QueryStats(algorithm=algorithm)
    counters = stats.lp

    with current_tracer().span("query.prepare") as span:
        if prepared is not None:
            partition = prepared.partition
            competitors = partition.competitors
            tree = prepared.tree
        else:
            partition = dataset.partition_by_focal(focal_array)
            competitors = partition.competitors
            build_start = time.perf_counter()
            tree = AggregateRTree(competitors, fanout=fanout)
            stats.index_build_seconds = time.perf_counter() - build_start
        span.set(
            prepared=prepared is not None,
            competitors=int(competitors.cardinality),
            dominators=int(partition.dominators),
        )
        span.note(index_build_seconds=stats.index_build_seconds)
    stats.competitor_records = competitors.cardinality
    stats.dominator_records = partition.dominators

    context = QueryContext(
        dataset=dataset,
        focal=focal_array,
        k=k,
        effective_k=partition.effective_k(k),
        partition=partition,
        competitors=competitors,
        tree=tree,
        stats=stats,
        counters=counters,
        space=space,
        tolerance=resolve_tolerance(tolerance),
        io_reads_start=tree.io.node_reads,
    )
    if prepared is not None and prepared.hyperplane_cache is not None:
        context._hyperplanes = prepared.hyperplane_cache
    return context


def build_region(context: QueryContext, cell: ReportedCell) -> PreferenceRegion:
    """Lift one reported cell into a :class:`PreferenceRegion`.

    The single place where a cell's local rank is shifted by the dominator
    count and the query's space/tolerance are attached — shared by
    :func:`build_result` and the streaming snapshots of
    :class:`repro.stream.AnytimeQuery` so the two can never drift.
    """
    return PreferenceRegion(
        halfspaces=cell.halfspaces,
        rank=cell.rank + context.partition.dominators,
        dimensionality=context.cell_dimensionality,
        witness=cell.witness,
        space=context.space,
        tolerance=context.tolerance,
    )


def build_result(
    context: QueryContext,
    reported: Sequence[ReportedCell],
    celltree: CellTree | None,
    finalize_geometry: bool = True,
) -> KSPRResult:
    """Turn reported cells into the final :class:`KSPRResult` (with geometry)."""
    stats = context.stats
    if celltree is not None:
        stats.celltree_nodes = celltree.node_count()
        stats.space_bytes = celltree.memory_bytes() + context.tree.memory_bytes()
    stats.index_node_accesses = context.tree.io.node_reads - context.io_reads_start

    regions = [build_region(context, cell) for cell in reported]
    result = KSPRResult(context.focal, context.k, regions, stats)

    if finalize_geometry and context.space == TRANSFORMED_SPACE:
        with current_tracer().span("query.finalize", regions=len(regions)):
            finalize_start = time.perf_counter()
            result.finalize_all()
            stats.add_phase("finalization", time.perf_counter() - finalize_start)

    stats.response_seconds = time.perf_counter() - context.started_at
    stats.cpu_seconds = time.process_time() - context.cpu_started_at
    return result


@dataclass(frozen=True)
class Pull:
    """How an entry point pulls an opened query's tick stream.

    ``capture`` freezes the undecided frontier per tick (anytime brackets).
    The rest shape CTA's stream only — ``workers > 1`` shards it across
    processes, ``chunk_size`` records per tick, ``shard_factor`` shards per
    worker (defaults when ``None``) — and other methods ignore them.
    """

    capture: bool = False
    workers: int | None = None
    chunk_size: int | None = None
    shard_factor: int | None = None


class OpenQuery(NamedTuple):
    """An opened exact query: what an opener hands to every entry point."""

    context: QueryContext
    ticks: Iterator[StreamTick]
    #: Whether the final result computes exact region geometry.
    finalize_geometry: bool


def drain(query: OpenQuery) -> KSPRResult:
    """Run an opened query's tick stream to its end and build the result."""
    reported: list[ReportedCell] = []
    tree: CellTree | None = None
    for tick in query.ticks:
        reported.extend(tick.new_cells)
        if tick.tree is not None:
            tree = tick.tree
    return build_result(query.context, reported, tree, query.finalize_geometry)
