"""P-CTA — the Progressive Cell Tree Approach (Section 5, Algorithm 2).

P-CTA improves on CTA by

* processing records in *skyline batches* so that a record is only processed
  after every record dominating it (Invariant 1),
* short-circuiting hyperplane insertion through each record's processed
  dominators (a dominated record's negative halfspace covers any node already
  covered by its dominator's negative halfspace),
* reporting cells *progressively*: a promising cell whose pivots dominate all
  unprocessed records can never change again (Lemma 5) and is emitted before
  the algorithm terminates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..records import Dataset
from ..robust import Tolerance
from .base import TRANSFORMED_SPACE, OpenQuery, PreparedQuery, Pull, drain, prepare_context
from .progressive import progressive_ticks
from .result import KSPRResult

__all__ = ["pcta", "open_pcta"]


def open_pcta(
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
    """Open a P-CTA query (OP-CTA in the original space, Appendix C)."""
    context = prepare_context(
        dataset, focal, k, algorithm="P-CTA" if space == TRANSFORMED_SPACE else "OP-CTA",
        space=space, prepared=prepared, tolerance=tolerance,
    )
    ticks = progressive_ticks(context, None, capture=pull.capture)
    return OpenQuery(context, ticks, finalize_geometry)


def pcta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """Answer a kSPR query with the Progressive Cell Tree Approach.

    ``prepared`` optionally supplies precomputed partition / index state
    (see :mod:`repro.engine`); ``tolerance`` the shared numerical policy
    (see :mod:`repro.robust`).
    """
    opened = open_pcta(
        dataset, focal, k, finalize_geometry=finalize_geometry, prepared=prepared,
        tolerance=tolerance,
    )
    return drain(opened)
