"""Dominance tests, the column-wise dominance kernel and P-CTA's dominance graph.

Dominance ("no worse in every attribute, better in at least one" under the
larger-is-better convention) drives the processing order of P-CTA: a record is
processed only after all records that dominate it (Invariant 1).  While
records are fetched in skyline batches, P-CTA maintains a *dominance graph*
over the processed records.  The graph answers, for a record about to be
inserted, "which already-processed records dominate it?"  — the set ``Dr`` of
Algorithm 2, used by the insertion shortcut of Section 5.

Every dominance scan goes through one kernel, :func:`order_masks`.  It
compares one attribute column at a time and ANDs the column results, so it
never reduces over the short attribute axis, where numpy spends most of its
time when ``d`` is 3.  Its two masks, "row <= point everywhere" and "row >=
point everywhere", give dominance both ways and equality, with the answers
of the ``np.all`` / ``np.any`` definitions (NaN included).  It patches the
:class:`~repro.index.skyline.SkybandIndex` counts, builds
:func:`dominated_counts`, splits :meth:`repro.records.Dataset.partition_by_focal`,
classifies a whole update batch under the engine's rules 1–4, and tests BBS
frontiers and the dominance graph.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..records import Dataset, dominates

__all__ = ["dominates", "dominating_mask", "order_masks", "dominated_counts", "DominanceGraph"]


def dominating_mask(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``candidates`` that dominate ``target``."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.size == 0:
        return np.zeros(0, dtype=bool)
    at_most, at_least = order_masks(candidates, target)
    return at_least & ~at_most


def order_masks(rows: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(at_most, at_least)``: is each row ``<=`` / ``>=`` the point in every attribute?

    ``rows`` is ``(n, d)``; ``points`` is one ``(d,)`` point (masks of shape
    ``(n,)``) or a ``(b, d)`` block (masks of shape ``(b, n)``).  The work runs
    one attribute column at a time.  Row ``i`` dominates the point exactly
    where ``at_least & ~at_most``, the point dominates row ``i`` where
    ``at_most & ~at_least``, and the two are equal where both hold; a NaN
    coordinate makes both masks False, as ``np.all`` does.
    """
    rows = np.asarray(rows, dtype=float)
    points = np.asarray(points, dtype=float)[..., None]
    at_most = rows[:, 0] <= points[..., 0, :]
    at_least = rows[:, 0] >= points[..., 0, :]
    scratch = np.empty_like(at_most)
    for column in range(1, rows.shape[1]):
        values = rows[:, column]
        at_most &= np.less_equal(values, points[..., column, :], out=scratch)
        at_least &= np.greater_equal(values, points[..., column, :], out=scratch)
    return at_most, at_least


def dominated_counts(dataset: Dataset, chunk_size: int = 512) -> np.ndarray:
    """For every record, the number of other records that dominate it.

    The skyband index's initial counts and the reference implementations.
    Works in chunks of ``chunk_size`` records to keep the memory footprint
    at ``O(chunk_size * n)``.
    """
    values = dataset.values
    n = values.shape[0]
    counts = np.zeros(n, dtype=int)
    for start in range(0, n, chunk_size):
        block = values[start : start + chunk_size]
        # For every pair (i in block, j in dataset): does j dominate i?
        at_most, at_least = order_masks(values, block)
        # j dominates i: at_least and not at_most, in place so that a chunk
        # never holds more than three (chunk_size, n) masks.
        at_least &= np.logical_not(at_most, out=at_most)
        counts[start : start + block.shape[0]] = np.count_nonzero(at_least, axis=1)
    return counts


class DominanceGraph:
    """Dominance relationships among the records processed so far.

    Nodes are record identifiers; there is an edge from ``a`` to ``b`` when
    record ``a`` dominates record ``b``.  The graph is grown incrementally as
    P-CTA processes new batches and supports the two look-ups the algorithm
    needs: the *ancestors* (dominators) of a record and the *descendants*
    (dominated records).
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._ids: list[int] = []
        self._values: list[np.ndarray] = []
        self._dominators: dict[int, set[int]] = {}
        self._dominated: dict[int, set[int]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, record_id: int) -> None:
        """Add one processed record and its edges to/from existing members."""
        if record_id in self._dominators:
            return
        values = self._dataset.record_by_id(record_id).values
        dominators: set[int] = set()
        dominated: set[int] = set()
        if self._ids:
            at_most, at_least = order_masks(np.vstack(self._values), values)
            over_mask, under_mask = at_least & ~at_most, at_most & ~at_least
            for existing_id, dominates_new, dominated_by_new in zip(self._ids, over_mask, under_mask):
                if dominates_new:
                    dominators.add(existing_id)
                    self._dominated[existing_id].add(record_id)
                if dominated_by_new:
                    dominated.add(existing_id)
                    self._dominators[existing_id].add(record_id)
        self._ids.append(record_id)
        self._values.append(values)
        self._dominators[record_id] = dominators
        self._dominated[record_id] = dominated

    def add_batch(self, record_ids: Iterable[int]) -> None:
        """Add a whole batch of processed records."""
        for record_id in record_ids:
            self.add(record_id)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, record_id: int) -> bool:
        return record_id in self._dominators

    def __len__(self) -> int:
        return len(self._ids)

    def members(self) -> list[int]:
        """Identifiers of all records currently in the graph."""
        return list(self._ids)

    def dominators_of(self, record_id: int) -> set[int]:
        """Processed records that dominate ``record_id``.

        ``record_id`` itself need not be a member yet (the typical call is for
        a record about to be inserted); in that case dominance is computed
        against the current members on the fly.
        """
        if record_id in self._dominators:
            return set(self._dominators[record_id])
        values = self._dataset.record_by_id(record_id).values
        if not self._ids:
            return set()
        members = np.vstack(self._values)
        mask = dominating_mask(members, values)
        return {existing_id for existing_id, hit in zip(self._ids, mask) if hit}

    def dominated_by(self, record_id: int) -> set[int]:
        """Processed records dominated by ``record_id`` (must be a member)."""
        return set(self._dominated.get(record_id, set()))
