"""Look-ahead rank bounds for LP-CTA (Section 6).

Given a cell ``c`` (a CellTree leaf's :class:`~repro.core.celltree.Cell`)
the focal record's rank anywhere inside ``c`` can be bracketed without
inserting any further hyperplanes:

* ``Rank_lower(c) = 1 + #{r : min_c S(r) > max_c S(p)}`` — records that beat
  the focal record *everywhere* in ``c``;
* ``Rank_upper(c) = 1 + #{r : max_c S(r) > min_c S(p)}`` — records that beat
  it *somewhere* in ``c``.

If ``Rank_lower > k`` the cell can be pruned; if ``Rank_upper <= k`` it can be
reported immediately.  Three refinements are implemented, selectable through
:class:`BoundsMode` to reproduce the Figure 18 ablation:

* ``RECORD`` — per-record score intervals, each requiring two LP solves
  (Section 6.1);
* ``GROUP`` — the aggregate R-tree is traversed and whole subtrees are
  resolved through the score intervals of their MBR corners (Section 6.2);
* ``FAST`` — additionally, the cheap ``O(d)`` *fast bounds* built from the
  cell's min-/max-vectors filter entries before any tight LP bound is computed
  (Section 6.3).  This is the full LP-CTA configuration.

Every bound LP of one evaluation solves over the cell's own rows, rotated to
the edge labels first (:meth:`~repro.core.celltree.Cell.edges_first`): the
system a per-LP assembly of the cell's halfspaces builds, bit for bit, so
nothing is rebuilt from halfspaces.

Every bound LP runs without HiGHS's presolve, which cuts its cost to
about 0.4 of a presolved one (see :mod:`repro.geometry.linprog`).  An
evaluation reads each LP's value only through the comparisons of
:meth:`TransformedBoundEvaluator._apply_interval` and the sign tests of
:class:`OriginalSpaceBoundEvaluator`, each with a tolerance margin.  With
the bound LPs forced back through presolve, every evaluation on the tier-1
grid and the fuzz corpus leads to the same prune or report decision, and
every answer is the same bit for bit.  A value can move within HiGHS's
tolerances (by up to about 1e-6 on the collinear fuzz cases), so a rank
bound that does not decide anything can move with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidQueryError
from ..geometry.halfspace import Halfspace
from ..geometry.linprog import ConstraintStack, LPCounters, maximize_linear, minimize_linear
from ..index.rtree import AggregateRTree, RTreeNode
from ..robust import Tolerance, resolve_tolerance
from .celltree import Cell

__all__ = [
    "BoundsMode",
    "RankBounds",
    "score_objective",
    "cell_score_interval",
    "fast_vectors",
    "TransformedBoundEvaluator",
    "OriginalSpaceBoundEvaluator",
]


class BoundsMode(enum.Enum):
    """Which bound machinery LP-CTA uses (Figure 18 ablation)."""

    RECORD = "record"
    GROUP = "group"
    FAST = "fast"

    @classmethod
    def coerce(cls, value: "BoundsMode | str") -> "BoundsMode":
        """The mode ``value`` names, a member or its string spelling (else InvalidQueryError)."""
        try:
            return cls(value)
        except ValueError:
            modes = ", ".join(repr(mode.value) for mode in cls)
            raise InvalidQueryError(f"unknown bounds_mode {value!r}; available: {modes}") from None


@dataclass(frozen=True)
class RankBounds:
    """Lower and upper bound on the focal record's rank within a cell."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("rank lower bound exceeds upper bound")


def score_objective(point: np.ndarray) -> tuple[np.ndarray, float]:
    """Linear form of ``S(point)`` over the transformed preference space.

    With ``w_d = 1 - sum_{i<d} w_i`` the score becomes
    ``point_d + sum_{i<d} (point_i - point_d) w_i``; the returned pair is
    ``(coefficients, constant)``.
    """
    point = np.asarray(point, dtype=float)
    return point[:-1] - point[-1], float(point[-1])


def cell_score_interval(
    point: np.ndarray,
    halfspaces: tuple[Halfspace, ...] | ConstraintStack,
    dimensionality: int,
    counters: LPCounters | None = None,
) -> tuple[float, float]:
    """Tight ``[min, max]`` score of a d-dimensional point over a cell (two LPs).

    The cell is its halfspaces or its rows from
    :meth:`~repro.core.celltree.Cell.edges_first`.
    """
    coefficients, constant = score_objective(point)
    low = minimize_linear(coefficients, halfspaces, dimensionality, counters).value + constant
    high = maximize_linear(coefficients, halfspaces, dimensionality, counters).value + constant
    return low, high


def fast_vectors(
    halfspaces: tuple[Halfspace, ...] | ConstraintStack,
    dimensionality: int,
    counters: LPCounters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The cell's min-vector ``w^L`` and max-vector ``w^U`` in the original space.

    Each component of ``w^L`` (resp. ``w^U``) is the minimum (maximum) value
    that weight can take inside the cell; the last component is derived from
    the extrema of ``sum_i w_i`` (Section 6.3).  ``2 d`` LP solves in total.
    The cell is given as in :func:`cell_score_interval`.
    """
    low = np.empty(dimensionality + 1)
    high = np.empty(dimensionality + 1)
    for axis in range(dimensionality):
        objective = np.zeros(dimensionality)
        objective[axis] = 1.0
        low[axis] = minimize_linear(objective, halfspaces, dimensionality, counters).value
        high[axis] = maximize_linear(objective, halfspaces, dimensionality, counters).value
    ones = np.ones(dimensionality)
    sum_low = minimize_linear(ones, halfspaces, dimensionality, counters).value
    sum_high = maximize_linear(ones, halfspaces, dimensionality, counters).value
    low[dimensionality] = max(0.0, 1.0 - sum_high)
    high[dimensionality] = max(0.0, 1.0 - sum_low)
    return low, high


class TransformedBoundEvaluator:
    """Rank-bound computation over the transformed preference space (LP-CTA)."""

    def __init__(
        self,
        tree: AggregateRTree,
        focal: np.ndarray,
        dimensionality: int,
        counters: LPCounters | None = None,
        mode: BoundsMode = BoundsMode.FAST,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        self.tree = tree
        self.focal = np.asarray(focal, dtype=float)
        #: Dimensionality d' of the transformed space.
        self.dimensionality = dimensionality
        self.counters = counters
        self.mode = mode
        self.tolerance = resolve_tolerance(tolerance)
        # Fast bounds are only valid for non-negative data (score terms must be
        # monotone in the weights); fall back to group bounds otherwise.
        values = tree.dataset.values
        self._fast_applicable = bool(
            (values.size == 0 or float(values.min()) >= 0.0) and float(self.focal.min()) >= 0.0
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def evaluate(self, cell: Cell, k: int) -> RankBounds:
        """Compute rank bounds for ``cell``, stopping early once ``lower > k``.

        Every LP of the evaluation solves over the cell's rows.
        """
        system = cell.edges_first()
        focal_low, focal_high = cell_score_interval(
            self.focal, system, self.dimensionality, self.counters
        )
        use_fast = self.mode is BoundsMode.FAST and self._fast_applicable
        vector_low: np.ndarray | None = None
        vector_high: np.ndarray | None = None
        if use_fast:
            vector_low, vector_high = fast_vectors(system, self.dimensionality, self.counters)

        state = _TraversalState(lower=1, upper=1)
        if self.tree.dataset.cardinality:
            self._visit_node(
                self.tree.visit(self.tree.root),
                system,
                focal_low,
                focal_high,
                vector_low,
                vector_high,
                state,
                k,
            )
        return RankBounds(state.lower, min(state.upper, self.tree.dataset.cardinality + 1))

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def _visit_node(
        self,
        node: RTreeNode,
        system: ConstraintStack,
        focal_low: float,
        focal_high: float,
        vector_low: np.ndarray | None,
        vector_high: np.ndarray | None,
        state: "_TraversalState",
        k: int,
    ) -> None:
        if state.lower > k:
            return
        if node.is_leaf:
            for position in node.record_positions:
                if state.lower > k:
                    return
                values = self.tree.dataset.values[int(position)]
                self._classify_record(
                    values, system, focal_low, focal_high, vector_low, vector_high, state
                )
            return
        for child in node.children:
            if state.lower > k:
                return
            decided = False
            if self.mode is not BoundsMode.RECORD:
                decided = self._classify_group(
                    child, system, focal_low, focal_high, vector_low, vector_high, state
                )
            if not decided:
                self._visit_node(
                    self.tree.visit(child),
                    system,
                    focal_low,
                    focal_high,
                    vector_low,
                    vector_high,
                    state,
                    k,
                )

    def _classify_group(
        self,
        node: RTreeNode,
        system: ConstraintStack,
        focal_low: float,
        focal_high: float,
        vector_low: np.ndarray | None,
        vector_high: np.ndarray | None,
        state: "_TraversalState",
    ) -> bool:
        """Try to resolve a whole subtree from its MBR corners; True if resolved."""
        count = node.count
        if vector_low is not None and vector_high is not None:
            fast_low = float(np.dot(node.mbr.low, vector_low))
            fast_high = float(np.dot(node.mbr.high, vector_high))
            if self._apply_interval(fast_low, fast_high, count, focal_low, focal_high, state):
                return True
        low_coefficients, low_constant = score_objective(node.mbr.low)
        group_low = (
            minimize_linear(low_coefficients, system, self.dimensionality, self.counters).value
            + low_constant
        )
        high_coefficients, high_constant = score_objective(node.mbr.high)
        group_high = (
            maximize_linear(high_coefficients, system, self.dimensionality, self.counters).value
            + high_constant
        )
        return self._apply_interval(group_low, group_high, count, focal_low, focal_high, state)

    def _classify_record(
        self,
        values: np.ndarray,
        system: ConstraintStack,
        focal_low: float,
        focal_high: float,
        vector_low: np.ndarray | None,
        vector_high: np.ndarray | None,
        state: "_TraversalState",
    ) -> None:
        if vector_low is not None and vector_high is not None:
            fast_low = float(np.dot(values, vector_low))
            fast_high = float(np.dot(values, vector_high))
            if self._apply_interval(fast_low, fast_high, 1, focal_low, focal_high, state):
                return
        record_low, record_high = cell_score_interval(
            values, system, self.dimensionality, self.counters
        )
        if self._apply_interval(record_low, record_high, 1, focal_low, focal_high, state):
            return
        # Inconclusive even with tight bounds: the record beats the focal
        # record in part of the cell only.
        state.upper += 1

    def _apply_interval(
        self,
        low: float,
        high: float,
        count: int,
        focal_low: float,
        focal_high: float,
        state: "_TraversalState",
    ) -> bool:
        """Apply the three conclusive checks of Algorithm 3; True if conclusive.

        Conclusive decisions require clearing the tolerance margin in the safe
        direction: a near-tie never prunes (``lower`` only grows on a strict
        win) and never skips a contribution to ``upper`` (a near-tie record is
        still counted as a potential beat), so numerical noise can only make
        the bounds looser, never wrong.
        """
        margin = self.tolerance.margin(
            max(abs(low), abs(high), abs(focal_low), abs(focal_high), 1.0)
        )
        if high < focal_low - margin:
            return True  # never beats the focal record: contributes nothing
        if low > focal_high + margin:
            state.lower += count
            state.upper += count
            return True
        if focal_low - margin <= low and high <= focal_high + margin:
            state.upper += count
            return True
        return False


class OriginalSpaceBoundEvaluator:
    """Rank bounds for the original-space variant OLP-CTA (Appendix C).

    Every cell contains the origin, so absolute score intervals are useless
    (they all start at zero).  Instead the sign of ``S(r) - S(p)`` is bounded
    by optimising the difference objective directly.  Fast bounds do not apply
    in this space (the min-vector is always the origin), matching the paper.
    """

    def __init__(
        self,
        tree: AggregateRTree,
        focal: np.ndarray,
        dimensionality: int,
        counters: LPCounters | None = None,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        self.tree = tree
        self.focal = np.asarray(focal, dtype=float)
        #: Dimensionality d of the original preference space.
        self.dimensionality = dimensionality
        self.counters = counters
        self.tolerance = resolve_tolerance(tolerance)

    def evaluate(self, cell: Cell, k: int) -> RankBounds:
        """Compute rank bounds for a cone cell of the original space.

        Every LP of the evaluation solves over the cell's rows.
        """
        system = cell.edges_first()
        state = _TraversalState(lower=1, upper=1)
        if self.tree.dataset.cardinality:
            self._visit_node(self.tree.visit(self.tree.root), system, state, k)
        return RankBounds(state.lower, min(state.upper, self.tree.dataset.cardinality + 1))

    def _difference_interval(
        self, point: np.ndarray, system: ConstraintStack
    ) -> tuple[float, float]:
        objective = np.asarray(point, dtype=float) - self.focal
        low = minimize_linear(objective, system, self.dimensionality, self.counters).value
        high = maximize_linear(objective, system, self.dimensionality, self.counters).value
        return low, high

    def _visit_node(
        self,
        node: RTreeNode,
        system: ConstraintStack,
        state: "_TraversalState",
        k: int,
    ) -> None:
        if state.lower > k:
            return
        if node.is_leaf:
            for position in node.record_positions:
                if state.lower > k:
                    return
                values = self.tree.dataset.values[int(position)]
                low, high = self._difference_interval(values, system)
                margin = self.tolerance.margin(max(abs(low), abs(high), 1.0))
                if low > margin:
                    state.lower += 1
                    state.upper += 1
                elif high > -margin:
                    # Near-zero maxima still count as potential beats: upper
                    # may only be overestimated by numerical noise, never
                    # underestimated.
                    state.upper += 1
            return
        for child in node.children:
            if state.lower > k:
                return
            # Only the low corner's minimum and the high corner's maximum are
            # read: one LP per corner.
            corner_low = minimize_linear(
                child.mbr.low - self.focal, system, self.dimensionality, self.counters
            ).value
            if corner_low > self.tolerance.margin(max(abs(corner_low), 1.0)):
                state.lower += child.count
                state.upper += child.count
                continue
            corner_high = maximize_linear(
                child.mbr.high - self.focal, system, self.dimensionality, self.counters
            ).value
            if corner_high <= -self.tolerance.margin(max(abs(corner_high), 1.0)):
                continue
            self._visit_node(self.tree.visit(child), system, state, k)


@dataclass
class _TraversalState:
    """Mutable accumulator shared by the bound traversals."""

    lower: int
    upper: int
