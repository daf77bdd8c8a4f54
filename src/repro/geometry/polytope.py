"""Exact cell geometry via halfspace intersection.

The paper's algorithms avoid computing exact cell geometry during processing;
only the *finalisation* step (end of Section 4.2) intersects the defining
halfspaces of each result cell to obtain its vertices.  The original system
uses the ``qhull`` library; here the same engine is reached through
:class:`scipy.spatial.HalfspaceIntersection` and :class:`scipy.spatial.ConvexHull`.

:func:`polytope_vertices` is the package's one Qhull vertex enumeration.
Finalisation (:func:`intersect_halfspaces`) calls it, and so does the
CellTree, which enumerates a node's vertices once and uses them to settle
probes whose feasibility LP would answer "empty" (see
:mod:`repro.core.celltree`).

The one-dimensional transformed space (``d = 2`` datasets) degenerates to an
interval and is handled without Qhull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from ..exceptions import GeometryError
from ..robust import Tolerance, resolve_tolerance
from .halfspace import Halfspace
from .linprog import LPCounters, _assemble, cell_feasible

__all__ = ["RegionGeometry", "intersect_halfspaces", "polytope_vertices", "simplex_volume"]


@dataclass(frozen=True)
class RegionGeometry:
    """Exact geometry of a (bounded) preference-space region.

    Attributes
    ----------
    vertices:
        Array of shape ``(m, d')`` with the polytope's vertices in the
        transformed preference space.
    volume:
        The ``d'``-dimensional volume (length for ``d' = 1``, area for
        ``d' = 2``, ...).
    interior_point:
        A strictly interior point of the region.
    """

    vertices: np.ndarray
    volume: float
    interior_point: np.ndarray

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the transformed preference space."""
        return int(self.vertices.shape[1]) if self.vertices.ndim == 2 else 1


def simplex_volume(dimensionality: int) -> float:
    """Volume of the transformed preference space (the unit simplex), ``1/d'!``."""
    if dimensionality < 1:
        raise GeometryError("dimensionality must be at least 1")
    return 1.0 / math.factorial(dimensionality)


def polytope_vertices(
    matrix: np.ndarray,
    bounds: np.ndarray,
    interior_point: np.ndarray | None = None,
    tolerance: Tolerance | float | None = None,
) -> np.ndarray:
    """Vertices of the closed polytope ``matrix . w <= bounds``, as array rows.

    For ``d' = 1`` these are the two interval endpoints, found without Qhull
    (``interior_point`` is not used).  Otherwise Qhull's halfspace
    intersection runs around ``interior_point``, which must lie strictly
    inside; a degenerate vertex may then appear more than once.

    Raises
    ------
    GeometryError
        If the interval is empty or unbounded, Qhull has no interior point,
        or Qhull fails.
    """
    if matrix.shape[1] == 1:
        policy = resolve_tolerance(tolerance)
        lower, upper = -np.inf, np.inf
        for coefficient, bound in zip(matrix[:, 0], bounds):
            if policy.is_strictly_positive(coefficient):
                upper = min(upper, bound / coefficient)
            elif policy.is_strictly_negative(coefficient):
                lower = max(lower, bound / coefficient)
            elif policy.is_strictly_negative(bound):
                raise GeometryError("infeasible constraint system (0 <= negative)")
        if not np.isfinite(lower) or not np.isfinite(upper) or upper <= lower:
            raise GeometryError("interval region is empty or unbounded")
        return np.array([[lower], [upper]])
    if interior_point is None:
        raise GeometryError("halfspace intersection needs a strictly interior point")
    # scipy expects rows [a, c] meaning a . x + c <= 0, i.e. c = -rhs.
    stacked = np.hstack([matrix, -bounds.reshape(-1, 1)])
    try:
        return HalfspaceIntersection(stacked, np.asarray(interior_point, dtype=float)).intersections
    except QhullError as error:
        raise GeometryError(f"halfspace intersection failed: {error}") from error


def intersect_halfspaces(
    halfspaces: Sequence[Halfspace],
    dimensionality: int,
    interior_point: np.ndarray | None = None,
    include_space_bounds: bool = True,
    counters: LPCounters | None = None,
    tolerance: Tolerance | float | None = None,
) -> RegionGeometry:
    """Compute the exact geometry of the open cell defined by ``halfspaces``.

    Parameters
    ----------
    halfspaces:
        The defining halfspaces of the cell (typically the edge labels along
        the CellTree root path, per Lemma 2).
    dimensionality:
        Dimensionality ``d'`` of the transformed preference space.
    interior_point:
        A strictly interior point.  When omitted, the feasibility LP is used
        to obtain one (one extra solver call).
    include_space_bounds:
        Whether to clip the cell against the preference-space boundary.

    Raises
    ------
    GeometryError
        If the cell is empty (no interior point exists) or degenerate.
    """
    matrix, bounds = _assemble(halfspaces, dimensionality, include_space_bounds)

    if dimensionality == 1:
        vertices = polytope_vertices(matrix, bounds, tolerance=tolerance)
        lower, upper = vertices[:, 0]
        midpoint = np.array([(lower + upper) / 2.0])
        return RegionGeometry(vertices=vertices, volume=float(upper - lower), interior_point=midpoint)

    if interior_point is None:
        feasibility = cell_feasible(
            halfspaces,
            dimensionality,
            counters=counters,
            include_space_bounds=include_space_bounds,
            tolerance=tolerance,
        )
        if not feasibility.feasible:
            raise GeometryError("cannot compute geometry of an empty cell")
        interior_point = feasibility.witness
    interior_point = np.asarray(interior_point, dtype=float)

    vertices = polytope_vertices(matrix, bounds, interior_point)
    try:
        hull = ConvexHull(vertices)
    except QhullError as error:
        raise GeometryError(f"halfspace intersection failed: {error}") from error
    ordered_vertices = vertices[hull.vertices]
    return RegionGeometry(
        vertices=ordered_vertices,
        volume=float(hull.volume),
        interior_point=interior_point,
    )
