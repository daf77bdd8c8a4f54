"""``repro.robust`` — the single home of every numerical epsilon in the package.

Two concerns live here:

* :mod:`repro.robust.tolerance` — the :class:`Tolerance` policy object
  (absolute + relative epsilons, scale-aware side classification, LP
  feasibility margins) threaded through the geometry kernels, the CellTree,
  the algorithms and the serving layer.  Every entry point accepts an
  optional ``tolerance=`` argument; ``None`` means :data:`DEFAULT_TOLERANCE`.
* :mod:`repro.robust.validation` — canonical query validation and the
  documented behaviour of degenerate inputs (duplicates, ties, extreme
  dimensions).

A grep-based test (``tests/test_robust_tolerance.py``) enforces that no
tolerance literal is hard-coded anywhere in ``repro`` outside this package.
"""

from .tolerance import (
    BOUNDARY_SIDE,
    DEFAULT_TOLERANCE,
    DIVISION_EPSILON,
    LINPROG_CHECK_TOL,
    NEGATIVE_SIDE,
    POSITIVE_SIDE,
    Tolerance,
    resolve_tolerance,
)
from .validation import (
    HIGH_DIMENSION_WARN,
    SAMPLING_MODES,
    DegenerateInputWarning,
    QueryDiagnostics,
    diagnose_degeneracies,
    validate_approx_params,
    validate_query_inputs,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "resolve_tolerance",
    "DIVISION_EPSILON",
    "LINPROG_CHECK_TOL",
    "POSITIVE_SIDE",
    "NEGATIVE_SIDE",
    "BOUNDARY_SIDE",
    "DegenerateInputWarning",
    "HIGH_DIMENSION_WARN",
    "SAMPLING_MODES",
    "QueryDiagnostics",
    "validate_query_inputs",
    "validate_approx_params",
    "diagnose_degeneracies",
]
