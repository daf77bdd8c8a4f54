"""Original-space variants OP-CTA and OLP-CTA (Appendix C).

In the original ``d``-dimensional preference space the hyperplane
``S(r) = S(p)`` passes through the origin, so arrangement cells are polyhedral
cones.  Because cones are scale invariant, intersecting them with the open
simplex ``{w > 0, sum w < 1}`` does not change which cells are empty or their
ranks; the CellTree machinery can therefore be reused verbatim with
``d``-dimensional hyperplanes of the form ``(r - p) . w = 0``.

The look-ahead bounds need redesigning (every cell contains the origin, so
plain score intervals degenerate): OLP-CTA bounds the sign of
``S(r) - S(p)`` instead, and the fast bounds of Section 6.3 do not apply at
all — exactly the limitations the paper describes.  These variants exist to
reproduce the Appendix C comparison; the transformed-space algorithms are the
ones intended for real use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..records import Dataset
from ..robust import Tolerance
from .base import ORIGINAL_SPACE, PreparedQuery, drain
from .cta import open_cta
from .lpcta import open_lpcta
from .pcta import open_pcta
from .result import KSPRResult

__all__ = ["op_cta", "olp_cta", "o_cta"]


def op_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """P-CTA running directly in the original (non-reduced) preference space."""
    opened = open_pcta(
        dataset, focal, k, space=ORIGINAL_SPACE, prepared=prepared, tolerance=tolerance
    )
    return drain(opened)


def olp_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    prepared: PreparedQuery | None = None,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """LP-CTA running directly in the original (non-reduced) preference space."""
    opened = open_lpcta(
        dataset, focal, k, space=ORIGINAL_SPACE, prepared=prepared, tolerance=tolerance
    )
    return drain(opened)


def o_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    tolerance: Tolerance | float | None = None,
) -> KSPRResult:
    """Basic CTA running directly in the original preference space."""
    opened = open_cta(
        dataset, focal, k, space=ORIGINAL_SPACE, finalize_geometry=False, tolerance=tolerance
    )
    return drain(opened)
