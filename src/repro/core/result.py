"""Result model of a kSPR query: preference regions and query statistics.

The answer to a kSPR query is a set of disjoint regions of the preference
space.  Each region is described implicitly by the halfspaces that bound it
(the edge labels on its CellTree root path — Lemma 2) and, after the
finalisation step (end of Section 4.2), by its exact geometry (vertices and
volume in the transformed preference space).

:class:`QueryStats` gathers the instrumentation used throughout Section 7:
processed records, CellTree size, LP calls, index accesses, timing phases.

The anytime serving layer (:mod:`repro.stream`) works with *partial* answers:
:class:`PartialKSPRResult` is a snapshot taken mid-query, carrying the regions
certified so far (Lemma 5 guarantees they can never change) plus a frozen
capture of the undecided frontier (:class:`FrontierCell`), from which provable
``[lower, upper]`` brackets on :meth:`KSPRResult.impact_probability` are
computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import GeometryError
from ..geometry.halfspace import Halfspace
from ..geometry.linprog import LPCounters
from ..geometry.polytope import RegionGeometry, intersect_halfspaces, simplex_volume
from ..geometry.transform import original_to_transformed
from ..robust import Tolerance, resolve_tolerance

__all__ = [
    "PreferenceRegion",
    "KSPRResult",
    "PartialKSPRResult",
    "FrontierCell",
    "QueryStats",
    "SECONDS_PER_PAGE",
]

#: Seconds charged per simulated random page read: the paper's SSD figure
#: for its disk-based scenario (Appendix A, Figure 19).
SECONDS_PER_PAGE = 0.0002


@dataclass
class QueryStats:
    """Instrumentation collected while answering one kSPR query."""

    algorithm: str = ""
    #: Records whose hyperplane was actually inserted into the CellTree.
    processed_records: int = 0
    #: Competitor records (neither dominating nor dominated by the focal record).
    competitor_records: int = 0
    #: Records dominating the focal record (they reduce the effective k).
    dominator_records: int = 0
    #: Total nodes ever created in the CellTree.
    celltree_nodes: int = 0
    #: Leaves pruned by look-ahead rank bounds (LP-CTA only).
    cells_pruned_by_bounds: int = 0
    #: Leaves reported early, before all records were processed.
    cells_reported_early: int = 0
    #: Number of record batches processed (P-CTA / LP-CTA).
    batches: int = 0
    #: LP solver usage.
    lp: LPCounters = field(default_factory=LPCounters)
    #: Simulated R-tree node (page) accesses.
    index_node_accesses: int = 0
    #: Seconds spent building the competitor index (excluded from response time
    #: in the main experiments; Appendix D amortises it explicitly).
    index_build_seconds: float = 0.0
    #: Wall-clock seconds per phase ("insertion", "bounds", "finalization", ...).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Total response time in seconds (includes finalisation, per Section 7.1).
    response_seconds: float = 0.0
    #: CPU seconds consumed by the producing process (``time.process_time``
    #: delta), measured alongside ``response_seconds``.  Differs from the
    #: wall clock whenever the query slept (stream pauses) or other threads
    #: held the core; parallel runs report the driver process only.
    cpu_seconds: float = 0.0
    #: Rough memory footprint of the CellTree plus index, in bytes.
    space_bytes: int = 0

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds

    def io_seconds(self, seconds_per_access: float = SECONDS_PER_PAGE) -> float:
        """Simulated I/O time for the disk-based scenario (Appendix A): one
        random page read per R-tree node access, at :data:`SECONDS_PER_PAGE`
        unless ``seconds_per_access`` says otherwise."""
        return self.index_node_accesses * seconds_per_access


def _sum_region_volumes(regions: Iterable["PreferenceRegion"]) -> float:
    """Summed volume of ``regions``; degenerate (lower-dimensional) regions
    contribute zero.  The single policy both the final
    :meth:`KSPRResult.total_volume` and the anytime
    :meth:`PartialKSPRResult.certified_volume` apply, so the streamed lower
    bound can never diverge from the exact impact it converges to."""
    total = 0.0
    for region in regions:
        try:
            total += region.volume
        except GeometryError:
            continue
    return total


class PreferenceRegion:
    """One region of the preference space where the focal record is in the top-k."""

    def __init__(
        self,
        halfspaces: Sequence[Halfspace],
        rank: int,
        dimensionality: int,
        witness: np.ndarray | None = None,
        geometry: RegionGeometry | None = None,
        space: str = "transformed",
        tolerance: Tolerance | None = None,
    ) -> None:
        self.halfspaces = tuple(halfspaces)
        #: Rank of the focal record anywhere inside the region (<= k).
        self.rank = int(rank)
        #: Dimensionality of the space the constraints live in: d' for the
        #: transformed preference space, d for the original-space variants.
        self.dimensionality = int(dimensionality)
        self.witness = None if witness is None else np.asarray(witness, dtype=float)
        self.geometry = geometry
        #: ``"transformed"`` (default) or ``"original"`` (Appendix C variants).
        self.space = space
        #: Numerical policy the producing query ran under; used as the default
        #: for membership tests and finalisation so answers stay consistent
        #: with the tolerances that shaped them.
        self.tolerance = tolerance

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def finalize(self, counters: LPCounters | None = None) -> RegionGeometry:
        """Compute (and cache) the exact geometry of the region."""
        if self.geometry is None:
            self.geometry = intersect_halfspaces(
                self.halfspaces,
                self.dimensionality,
                interior_point=self.witness,
                counters=counters,
                tolerance=self.tolerance,
            )
        return self.geometry

    @property
    def volume(self) -> float:
        """Volume of the region in the transformed preference space."""
        return self.finalize().volume

    @property
    def vertices(self) -> np.ndarray:
        """Vertices of the region in the transformed preference space."""
        return self.finalize().vertices

    def interior_point(self) -> np.ndarray:
        """A strictly interior point of the region (transformed space)."""
        if self.witness is not None:
            return self.witness
        return self.finalize().interior_point

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def contains_transformed(
        self, point: np.ndarray, tolerance: Tolerance | float | None = None
    ) -> bool:
        """Whether a transformed-space point lies strictly inside the region."""
        policy = resolve_tolerance(tolerance if tolerance is not None else self.tolerance)
        point = np.asarray(point, dtype=float)
        # Same scales as is_valid_transformed_point: unit-norm axis rows, a
        # sqrt(d')-norm simplex-sum row — the two predicates must agree.
        if np.any(point <= policy.margin(1.0)):
            return False
        if float(np.sum(point)) >= 1.0 - policy.margin(float(np.sqrt(point.shape[0]))):
            return False
        return all(halfspace.contains(point, policy) for halfspace in self.halfspaces)

    def contains_weights(
        self, weights: np.ndarray, tolerance: Tolerance | float | None = None
    ) -> bool:
        """Whether a (normalised, original-space) weight vector lies in the region."""
        policy = resolve_tolerance(tolerance if tolerance is not None else self.tolerance)
        weights = np.asarray(weights, dtype=float)
        if self.space == "original":
            if np.any(weights <= policy.margin(1.0)):
                return False
            return all(halfspace.contains(weights, policy) for halfspace in self.halfspaces)
        return self.contains_transformed(original_to_transformed(weights), policy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreferenceRegion(rank={self.rank}, "
            f"halfspaces={len(self.halfspaces)}, d'={self.dimensionality})"
        )


class KSPRResult:
    """Complete answer to a kSPR query.

    A sequence of :class:`PreferenceRegion` objects (iteration, indexing and
    ``len()`` are supported) plus the :class:`QueryStats` of the run that
    produced it.

    Parameters
    ----------
    focal:
        The focal record the query was asked about.
    k:
        Shortlist size.
    regions:
        The disjoint preference regions where the focal record ranks
        ``<= k``; empty when it never does.
    stats:
        Instrumentation of the producing run.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Dataset, kspr
    >>> data = Dataset(np.array([[3, 8, 8], [9, 4, 4], [8, 3, 4], [4, 3, 6]]))
    >>> result = kspr(data, focal=[5, 5, 7], k=3)
    >>> result.is_empty
    False
    >>> bool(0.0 < result.impact_probability() <= 1.0)
    True
    """

    def __init__(
        self,
        focal: np.ndarray,
        k: int,
        regions: Iterable[PreferenceRegion],
        stats: QueryStats,
    ) -> None:
        self.focal = np.asarray(focal, dtype=float)
        self.k = int(k)
        self.regions = list(regions)
        self.stats = stats

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self) -> Iterator[PreferenceRegion]:
        return iter(self.regions)

    def __getitem__(self, index: int) -> PreferenceRegion:
        return self.regions[index]

    @property
    def is_empty(self) -> bool:
        """True when the focal record is never in the top-k."""
        return not self.regions

    # ------------------------------------------------------------------ #
    # membership and impact
    # ------------------------------------------------------------------ #
    def contains_weights(self, weights: np.ndarray) -> bool:
        """Whether the focal record is in the top-k for the given weight vector."""
        return any(region.contains_weights(weights) for region in self.regions)

    def total_volume(self) -> float:
        """Summed volume of all result regions (transformed space)."""
        return _sum_region_volumes(self.regions)

    def impact_probability(self) -> float:
        """Probability that a uniformly random user has the focal record in their top-k.

        Equals the summed region volume divided by the volume of the
        transformed preference space (Section 1).  An empty result means the
        focal record is never in the top-k, so the probability is exactly
        ``0.0`` — every caller (including :meth:`summary`) goes through this
        one code path instead of special-casing emptiness.
        """
        if not self.regions:
            return 0.0
        return self.total_volume() / simplex_volume(self.regions[0].dimensionality)

    def finalize_all(self) -> None:
        """Run the finalisation (exact geometry) step on every region."""
        for region in self.regions:
            try:
                region.finalize(counters=self.stats.lp)
            except GeometryError:
                continue

    def summary(self) -> dict[str, float]:
        """Compact dictionary used by the experiment harness and examples."""
        return {
            "regions": float(len(self.regions)),
            "k": float(self.k),
            "volume": self.total_volume(),
            "impact_probability": self.impact_probability(),
            "processed_records": float(self.stats.processed_records),
            "celltree_nodes": float(self.stats.celltree_nodes),
            "lp_calls": float(self.stats.lp.total_calls),
            "response_seconds": self.stats.response_seconds,
        }


@dataclass(frozen=True)
class FrontierCell:
    """Frozen capture of one still-undecided CellTree leaf.

    Taken at snapshot time (the leaf itself keeps mutating as the query
    advances): the bounding halfspaces of the leaf's root path, its current
    rank and its cached interior witness.  The final answer inside this cell
    is a *subset* of the cell, which is what makes the frontier a sound upper
    bound on the remaining impact volume.
    """

    halfspaces: tuple[Halfspace, ...]
    rank: int
    witness: np.ndarray | None

    def volume(self, dimensionality: int, tolerance: Tolerance | None = None) -> float:
        """Volume of the captured cell (``0.0`` when degenerate)."""
        try:
            geometry = intersect_halfspaces(
                self.halfspaces,
                dimensionality,
                interior_point=self.witness,
                tolerance=tolerance,
            )
        except GeometryError:
            return 0.0
        return geometry.volume


class PartialKSPRResult:
    """Anytime snapshot of an in-flight kSPR query.

    Produced by the streaming execution seam (:mod:`repro.stream`) after each
    cooperative work unit (a P-CTA/LP-CTA batch, a CTA insertion chunk, a
    committed parallel shard group).  It carries

    * ``regions`` — every region certified so far.  Certification is final
      (Lemma 5 / exact ranks): across successive snapshots of one query the
      region list only ever *grows by appending*, so any prefix a consumer
      acted on stays valid verbatim in the final answer;
    * ``frontier`` — a frozen capture of the still-undecided cells, from
      which the impact upper bound is computed;
    * ``done`` — whether the query has finished (``to_result`` is then the
      complete, exact :class:`KSPRResult`).

    The ``[impact_lower(), impact_upper()]`` bracket is provable and tightens
    monotonically: the certified volume only grows and the undecided volume
    only shrinks (cells leave the frontier by being certified, split or
    eliminated, never by growing).
    """

    def __init__(
        self,
        focal: np.ndarray,
        k: int,
        regions: Sequence[PreferenceRegion],
        stats: QueryStats,
        *,
        done: bool,
        batches: int,
        frontier: Sequence[FrontierCell] = (),
        dimensionality: int | None = None,
        space: str = "transformed",
        tolerance: Tolerance | None = None,
        elapsed_seconds: float = 0.0,
        processed_records: int | None = None,
    ) -> None:
        self.focal = np.asarray(focal, dtype=float)
        self.k = int(k)
        self.regions = tuple(regions)
        self.stats = stats
        self.done = bool(done)
        #: Cooperative work units (batches / chunks / shard commits) consumed.
        self.batches = int(batches)
        self.frontier = tuple(frontier)
        if dimensionality is None:
            dimensionality = self.regions[0].dimensionality if self.regions else 1
        self.dimensionality = int(dimensionality)
        self.space = space
        self.tolerance = tolerance
        #: Wall-clock seconds since the query started when this snapshot was taken.
        self.elapsed_seconds = float(elapsed_seconds)
        #: Records processed when this snapshot was taken — frozen here
        #: because ``stats`` is the *live* query instrumentation and keeps
        #: mutating as the stream advances past this snapshot.
        self.processed_records = (
            int(processed_records) if processed_records is not None
            else stats.processed_records
        )
        self._frontier_volume: float | None = None
        self._source: KSPRResult | None = None

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self) -> Iterator[PreferenceRegion]:
        return iter(self.regions)

    def __getitem__(self, index: int) -> PreferenceRegion:
        return self.regions[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"after {self.batches} batches"
        return (
            f"PartialKSPRResult({len(self.regions)} regions, "
            f"{len(self.frontier)} frontier cells, {state})"
        )

    # ------------------------------------------------------------------ #
    # impact brackets
    # ------------------------------------------------------------------ #
    def certified_volume(self) -> float:
        """Summed volume of the regions certified so far (transformed space)."""
        return _sum_region_volumes(self.regions)

    def frontier_volume(self) -> float:
        """Summed volume of the still-undecided cells (cached after first call)."""
        if self._frontier_volume is None:
            self._frontier_volume = sum(
                cell.volume(self.dimensionality, self.tolerance) for cell in self.frontier
            )
        return self._frontier_volume

    def impact_lower(self) -> float:
        """Provable lower bound on the final ``impact_probability()``.

        The certified regions are a subset of the final answer, so their
        volume fraction can only be exceeded — never undercut — by the exact
        impact.  Monotone non-decreasing across snapshots.
        """
        if self.space != "transformed":
            return 0.0
        return self.certified_volume() / simplex_volume(self.dimensionality)

    def impact_upper(self) -> float:
        """Provable upper bound on the final ``impact_probability()``.

        The final answer is contained in the certified regions plus the
        undecided frontier (eliminated cells never return), so the bracket is
        sound; the frontier only shrinks, so it is monotone non-increasing.
        The trivial bound ``1.0`` is returned where nothing tighter is
        provable: original-space (Appendix C) snapshots, where no volume is
        defined, and in-flight snapshots with no frontier capture (the
        zero-progress snapshot, or a producer that skipped capture) — an
        empty frontier only certifies "nothing left undecided" once the
        query is ``done``.
        """
        if self.space != "transformed":
            return 1.0
        if not self.done and not self.frontier:
            return 1.0
        upper = (
            self.certified_volume() + self.frontier_volume()
        ) / simplex_volume(self.dimensionality)
        return min(1.0, upper)

    def impact_bracket(self) -> tuple[float, float]:
        """The ``(lower, upper)`` bracket on the final impact probability."""
        return self.impact_lower(), self.impact_upper()

    # ------------------------------------------------------------------ #
    # conversion and reporting
    # ------------------------------------------------------------------ #
    @classmethod
    def from_result(cls, result: KSPRResult, batches: int = 0) -> "PartialKSPRResult":
        """Wrap a finished :class:`KSPRResult` as a terminal snapshot.

        :meth:`to_result` on the wrapper hands back ``result`` itself, so
        consumers that drained a stream to completion get the exact same
        object a non-streaming call (or a cache hit) would return.
        """
        space = result.regions[0].space if result.regions else "transformed"
        tolerance = result.regions[0].tolerance if result.regions else None
        snapshot = cls(
            result.focal,
            result.k,
            result.regions,
            result.stats,
            done=True,
            batches=batches,
            frontier=(),
            dimensionality=result.regions[0].dimensionality if result.regions else None,
            space=space,
            tolerance=tolerance,
            elapsed_seconds=result.stats.response_seconds,
        )
        snapshot._source = result
        return snapshot

    def to_result(self) -> KSPRResult:
        """The complete :class:`KSPRResult`, only available once ``done``."""
        if not self.done:
            raise ValueError(
                "partial result is not complete; resume the stream to completion first"
            )
        if self._source is not None:
            return self._source
        return KSPRResult(self.focal, self.k, self.regions, self.stats)

    def summary(self) -> dict[str, float]:
        """Compact dictionary mirroring :meth:`KSPRResult.summary`.

        Empty snapshots follow the same explicit semantics as empty full
        results: zero certified volume and a zero lower bound (the upper
        bound still reflects the undecided frontier until the query is done).
        """
        lower, upper = self.impact_bracket()
        return {
            "regions": float(len(self.regions)),
            "k": float(self.k),
            "done": float(self.done),
            "batches": float(self.batches),
            "frontier_cells": float(len(self.frontier)),
            "volume": self.certified_volume(),
            "impact_lower": lower,
            "impact_upper": upper,
            "processed_records": float(self.processed_records),
            "elapsed_seconds": self.elapsed_seconds,
        }
