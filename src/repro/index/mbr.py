"""Minimum bounding rectangles for the aggregate R-tree.

An MBR stores the componentwise minimum (``low``, the *min-corner* ``G^L`` of
the paper) and maximum (``high``, the *max-corner* ``G^U``) of a group of
records.  Because the scoring function is monotonically increasing in every
attribute, the score of any record in the group is bounded by the scores of
these two corners — the fact exploited by the group bounds of Section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GeometryError
from ..robust import DEFAULT_TOLERANCE

__all__ = ["MBR"]

#: Slack for corner-ordering and containment checks: rectangles come from
#: exact min/max reductions, so only accumulated rounding needs absorbing.
_CORNER_SLACK = DEFAULT_TOLERANCE.absolute


@dataclass(frozen=True)
class MBR:
    """Axis-aligned minimum bounding rectangle of a group of records."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.shape != high.shape or low.ndim != 1:
            raise GeometryError("MBR corners must be vectors of the same length")
        if np.any(low > high + _CORNER_SLACK):
            raise GeometryError("MBR low corner must not exceed the high corner")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @classmethod
    def of(cls, points: np.ndarray) -> "MBR":
        """MBR of a non-empty ``(m, d)`` point set."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise GeometryError("MBR.of requires a non-empty 2-D point set")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def _unchecked(cls, low: np.ndarray, high: np.ndarray) -> "MBR":
        """Wrap valid float corners (a min/max of valid rectangles or finite points) unchecked."""
        mbr = object.__new__(cls)
        object.__setattr__(mbr, "low", low)
        object.__setattr__(mbr, "high", high)
        return mbr

    @property
    def dimensionality(self) -> int:
        """Number of data attributes covered by the rectangle."""
        return int(self.low.shape[0])

    @property
    def min_corner(self) -> np.ndarray:
        """The corner ``G^L`` with the minimum coordinate in every dimension."""
        return self.low

    @property
    def max_corner(self) -> np.ndarray:
        """The corner ``G^U`` with the maximum coordinate in every dimension."""
        return self.high

    def union(self, other: "MBR") -> "MBR":
        """Smallest rectangle containing both rectangles."""
        return MBR._unchecked(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside the (closed) rectangle."""
        point = np.asarray(point, dtype=float)
        return bool(
            np.all(point >= self.low - _CORNER_SLACK) and np.all(point <= self.high + _CORNER_SLACK)
        )

    @staticmethod
    def containing(lows: np.ndarray, highs: np.ndarray, point: np.ndarray) -> np.ndarray:
        """:meth:`contains_point` for stacked rectangles ``(lows[i], highs[i])``: a row mask."""
        return ((point >= lows - _CORNER_SLACK) & (point <= highs + _CORNER_SLACK)).all(axis=1)

    def dominated_by(self, point: np.ndarray) -> bool:
        """True if ``point`` dominates the *entire* rectangle.

        Under the larger-is-better convention this holds when ``point``
        dominates the max-corner of the rectangle.
        """
        point = np.asarray(point, dtype=float)
        return bool(np.all(point >= self.high) and np.any(point > self.high))

    def upper_score(self, weights: np.ndarray) -> float:
        """Upper bound on the score of any record inside the rectangle."""
        return float(np.dot(self.high, np.asarray(weights, dtype=float)))

    def lower_score(self, weights: np.ndarray) -> float:
        """Lower bound on the score of any record inside the rectangle."""
        return float(np.dot(self.low, np.asarray(weights, dtype=float)))
