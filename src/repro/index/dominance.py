"""Dominance tests and the column-wise dominance kernel.

Dominance ("no worse in every attribute, better in at least one" under the
larger-is-better convention) drives the processing order of P-CTA: a record is
processed only after all records that dominate it (Invariant 1).

Every dominance scan goes through one kernel, :func:`order_masks`.  It
compares one attribute column at a time and ANDs the column results, so it
never reduces over the short attribute axis, where numpy spends most of its
time when ``d`` is 3.  Its two masks, "row <= point everywhere" and "row >=
point everywhere", give dominance both ways and equality, with the answers
of the ``np.all`` / ``np.any`` definitions (NaN included).  It patches the
:class:`~repro.index.skyline.SkybandIndex` counts, builds
:func:`dominated_counts`, splits :meth:`repro.records.Dataset.partition_by_focal`,
classifies a whole update batch under the engine's rules 1–4, and tests BBS
frontiers.  The progressive driver of P-CTA and LP-CTA
(:mod:`repro.core.progressive`) runs it too: once per batch for each record's
processed dominators (the set ``Dr`` of Algorithm 2's insertion shortcut),
and once per reached R-tree leaf for the Lemma-5 reporting test.
"""

from __future__ import annotations

import numpy as np

from ..records import Dataset, dominates

__all__ = ["dominates", "order_masks", "dominated_counts"]


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
