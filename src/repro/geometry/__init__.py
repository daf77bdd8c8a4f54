"""Computational-geometry substrate for the kSPR algorithms.

This subpackage contains everything the paper's methods need from geometry:

* :mod:`repro.geometry.transform` — mapping between the original ``d``-dimensional
  preference space and the transformed ``(d-1)``-dimensional space used by all
  CellTree algorithms (Section 3.2 of the paper).
* :mod:`repro.geometry.halfspace` — hyperplanes/halfspaces induced by comparing a
  data record against the focal record.
* :mod:`repro.geometry.linprog` — LP-based feasibility testing and linear
  optimisation over implicitly-represented cells (Section 4.2).
* :mod:`repro.geometry.polytope` — exact cell geometry via halfspace
  intersection, used only at the finalisation step (end of Section 4.2).
* :mod:`repro.geometry.arrangement` — a naive full-arrangement enumerator used
  as ground truth by the test-suite and the brute-force baseline.
"""

from .halfspace import Halfspace, Hyperplane, build_halfspace, build_hyperplane
from .linprog import (
    FeasibilityResult,
    LPCounters,
    cell_feasible,
    maximize_linear,
    minimize_linear,
    preference_space_constraints,
)
from .polytope import RegionGeometry, intersect_halfspaces, simplex_volume
from .transform import (
    original_to_transformed,
    transformed_to_original,
    random_weight_vectors,
)

__all__ = [
    "Halfspace",
    "Hyperplane",
    "build_halfspace",
    "build_hyperplane",
    "FeasibilityResult",
    "LPCounters",
    "cell_feasible",
    "maximize_linear",
    "minimize_linear",
    "preference_space_constraints",
    "RegionGeometry",
    "intersect_halfspaces",
    "simplex_volume",
    "original_to_transformed",
    "transformed_to_original",
    "random_weight_vectors",
]
