"""LP-CTA — the Look-ahead Progressive Cell Tree Approach (Section 6, Algorithm 3).

LP-CTA augments P-CTA with *look-ahead* rank bounds computed in the data
space: for every promising cell created by the latest batch, the aggregate
R-tree is traversed to bracket the rank the focal record can attain anywhere
inside the cell.  Cells whose lower bound already exceeds ``k`` are pruned
without inserting any further hyperplane; cells whose upper bound is at most
``k`` are reported immediately.  Group bounds (Section 6.2) resolve whole
R-tree subtrees at once, and the cheap fast bounds (Section 6.3) filter
entries before any tight LP bound is computed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..records import Dataset
from ..robust import Tolerance
from .base import TRANSFORMED_SPACE, OpenQuery, PreparedQuery, Pull, drain, prepare_context
from .bounds import BoundsMode, OriginalSpaceBoundEvaluator, TransformedBoundEvaluator
from .progressive import progressive_ticks
from .result import KSPRResult

__all__ = ["lpcta", "open_lpcta"]


def open_lpcta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    *,
    space: str = TRANSFORMED_SPACE,
    bounds_mode: BoundsMode | str = BoundsMode.FAST,
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
    pull: Pull = Pull(),
) -> OpenQuery:
    """Open an LP-CTA query (OLP-CTA in the original space, whose Appendix C
    sign bounds take no ``bounds_mode``)."""
    mode = BoundsMode.coerce(bounds_mode)
    transformed = space == TRANSFORMED_SPACE
    context = prepare_context(
        dataset, focal, k, algorithm=f"LP-CTA[{mode.value}]" if transformed else "OLP-CTA",
        space=space, prepared=prepared, tolerance=tolerance,
    )
    if transformed:
        evaluator = TransformedBoundEvaluator(
            tree=context.tree,
            focal=context.focal,
            dimensionality=context.cell_dimensionality,
            counters=context.counters,
            mode=mode,
            tolerance=context.tolerance,
        )
    else:
        evaluator = OriginalSpaceBoundEvaluator(
            tree=context.tree,
            focal=context.focal,
            dimensionality=context.cell_dimensionality,
            counters=context.counters,
            tolerance=context.tolerance,
        )
    ticks = progressive_ticks(context, evaluator, capture=pull.capture)
    return OpenQuery(context, ticks, finalize_geometry)


def lpcta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    bounds_mode: BoundsMode | str = BoundsMode.FAST,
    finalize_geometry: bool = True,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """Answer a kSPR query with the Look-ahead Progressive Cell Tree Approach.

    Parameters
    ----------
    bounds_mode:
        ``"fast"`` (default, full LP-CTA), ``"group"`` (group bounds only) or
        ``"record"`` (per-record bounds only) — the three configurations
        compared in Figure 18 of the paper.
    prepared:
        Optional :class:`~repro.core.base.PreparedQuery` with precomputed
        partition / index state (see :mod:`repro.engine`).
    """
    opened = open_lpcta(
        dataset, focal, k, bounds_mode=bounds_mode, finalize_geometry=finalize_geometry,
        prepared=prepared, tolerance=tolerance,
    )
    return drain(opened)
