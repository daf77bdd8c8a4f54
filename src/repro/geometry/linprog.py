"""LP-based feasibility tests and linear optimisation over implicit cells.

The cornerstone of the paper's methodology (Section 4.2) is that cells of the
hyperplane arrangement are never materialised geometrically during processing.
A cell is a set of open halfspaces, and two LP primitives operate directly on
that implicit representation:

* :func:`cell_feasible` — does the intersection of the halfspaces (plus the
  preference-space boundary) have a non-empty interior?  This replaces
  expensive halfspace intersection with a single LP solve.  The CellTree
  skips the solve when the vertices it has already enumerated for a node
  prove the probed side empty (the vertex certificate of
  :mod:`repro.core.celltree`); every other probe, and every witness, still
  comes from this LP.
* :func:`minimize_linear` / :func:`maximize_linear` — the minimum / maximum of
  a linear objective over the (closure of the) cell.  These power the
  look-ahead score bounds of Section 6.

The paper uses the ``lp_solve`` library; we solve with HiGHS through the
module-level name :data:`linprog`, which answers exactly as
``scipy.optimize.linprog(method="highs")`` does.  One LP runs:

* the input checks ``linprog`` makes: non-finite entries in ``c``, ``A_ub``
  or ``b_ub`` raise the same ``ValueError``, and so does a shape mismatch;
* one ``passModel`` that hands HiGHS the model as arrays: costs, column
  bounds, row bounds ``(-inf, b_ub)`` and the constraint matrix column-wise,
  with structural zeros dropped exactly as ``csc_array`` drops them, every
  column continuous;
* one ``run`` on this (process, thread)'s ``_Highs`` instance, built on first
  use with the options ``linprog`` sets on every call: presolve ``"on"``,
  the dual simplex strategy, debug level none, output and console logging
  off.  A forked child and every new thread build their own; an instance
  that returns a HiGHS error is dropped and rebuilt;
* for an optimal solve, the solution getters and ``_check_result``'s own
  test at ``tol=LINPROG_CHECK_TOL``, inlined: no NaN, ``x`` inside its
  bounds and every row within ``10 sqrt(tol)``.  A pass returns scipy's
  success message, computed once at import; a failure, and every
  non-optimal solve, goes through scipy's status helper and
  ``_check_result`` themselves.

On the 4,317 LPs of the cold-exact benchmark's serial queries (timed
interleaved in one process, 2-core x86 host) one call costs about 230 µs,
of which HiGHS's ``passModel``, ``run`` and getters are about 180 µs.
Building a ``HighsLp`` from lists and running scipy's ``_check_result`` on
every answer cost about 330 µs per call, and stock ``linprog``, with its
fresh solver and per-call option checks, costs about six times this
path.  A scipy without
the private binding, or whose ``passModel`` takes no arrays, keeps stock
``linprog`` and counts each solve in ``query.lp.fallback_calls``.

``status``, ``x``, ``fun``, ``slack`` and ``message`` match stock ``linprog``
bit for bit, whatever the call history (``tests/test_geometry_linprog.py``;
checked on scipy 1.17.1 with HiGHS 1.12.0).  Warm starts and reused models
are deliberately not used: a reused basis can end on a different optimal
vertex and move the witnesses, and re-costing a kept model moves some optima
by an ulp.

Feasibility of an *open* cell is decided by maximising a slack ``t`` added to
every strict inequality (scaled by the constraint's norm so ``t`` is a genuine
interior margin): the cell has non-empty interior iff the optimal ``t``
exceeds a small tolerance.  The maximiser is an interior *witness point*,
cached by the CellTree to implement the optimisation of Section 4.3.2 and
reused as the interior point required by Qhull at finalisation time.

All primitives optionally update an :class:`LPCounters` instance so the
experiment harness can report the number of solver calls and the number of
constraints per call (Figures 16 and 17 of the paper).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import OptimizeResult as LinprogResult
from scipy.optimize import linprog as _scipy_linprog

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        MatrixFormat,
        ObjSense,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
    from scipy.optimize._linprog_util import _check_result
except ImportError:  # scipy without its HiGHS binding: stock linprog, counted
    _HAVE_HIGHS = False
else:
    _HAVE_HIGHS = True

from ..exceptions import LPSolverError
from ..obs.metrics import LP_CONSTRAINTS, active_registry
from ..obs.names import LP_FALLBACK_CALLS
from ..robust import LINPROG_CHECK_TOL, Tolerance, resolve_tolerance
from .halfspace import Halfspace

__all__ = [
    "LPCounters",
    "FeasibilityResult",
    "OptimizeResult",
    "ConstraintStack",
    "preference_space_constraints",
    "halfspaces_to_constraints",
    "cell_feasible",
    "solve_feasibility",
    "minimize_linear",
    "maximize_linear",
]

#: Upper bound on the slack variable (keeps the LP bounded).
_SLACK_CAP = 1.0

#: Per-thread slot for ``(pid, solver)``; the pid makes a forked child rebuild.
_THREAD = threading.local()

#: The bound ``_check_result`` derives from its ``tol`` argument, here
#: ``LINPROG_CHECK_TOL``: an optimal ``x`` may leave its box, and a row its
#: right-hand side, by at most this much.
_CHECK_BOUND = float(np.sqrt(LINPROG_CHECK_TOL) * 10)

#: The residuals of the (absent) equality rows, as ``_check_result`` takes them.
_NO_EQUALITIES = np.zeros(0)


def _new_highs() -> "_Highs":
    """A HiGHS instance with the options ``linprog`` sets on every call."""
    options = HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = False
    options.log_to_console = False
    highs = _Highs()
    if highs.passOptions(options) == HighsStatus.kError:
        raise LPSolverError("HiGHS rejected the linprog options")
    return highs


def _thread_highs() -> "_Highs":
    """This thread's HiGHS instance, built on first use."""
    pid = os.getpid()
    slot = getattr(_THREAD, "highs", None)
    if slot is not None and slot[0] == pid:
        return slot[1]
    highs = _new_highs()
    _THREAD.highs = (pid, highs)
    return highs


def _pass_model(highs, cost, box, upper, matrix) -> "HighsStatus":
    """Hand HiGHS ``min cost . x`` s.t. ``matrix . x <= upper``, ``x`` in ``box``, as arrays.

    The matrix goes column-wise with structural zeros dropped exactly as
    ``csc_array`` drops them; every column is continuous.  Every array is
    contiguous, which the binding takes without a converting second pass.
    """
    columns = cost.size
    rows = upper.size
    column_low, column_high = np.ascontiguousarray(box.T)
    by_column = matrix.T
    nonzero = by_column != 0
    start = np.zeros(columns + 1, dtype=np.int32)
    start[1:] = nonzero.sum(axis=1).cumsum()
    index = np.nonzero(nonzero)[1].astype(np.int32)
    value = by_column[nonzero]
    return highs.passModel(
        columns,
        rows,
        value.size,
        _COLWISE,
        _MINIMIZE,
        0.0,
        cost,
        column_low,
        column_high,
        np.full(rows, -kHighsInf),
        upper,
        start,
        index,
        value,
        np.zeros(columns, dtype=np.int32),
    )


def _optimal_answer() -> "tuple[int, str] | None":
    """scipy's ``(status, message)`` for an optimal solve.

    None when this binding's ``passModel`` takes no arrays; then
    :data:`linprog` is the stock one.
    """
    highs = _new_highs()
    try:
        _pass_model(highs, np.zeros(0), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 0)))
    except TypeError:  # the binding has the HighsLp overload only
        return None
    status = HighsModelStatus.kOptimal
    return _highs_to_scipy_status_message(status, highs.modelStatusToString(status))


def _passes_check(x: np.ndarray, fun: float, slack: np.ndarray, box: np.ndarray) -> bool:
    """``_check_result``'s verdict on an optimal solve: True where it keeps status 0.

    NaN anywhere fails, as does an ``x`` outside ``box`` or a row violated
    by more than :data:`_CHECK_BOUND` (a NaN fails the comparisons too).
    """
    return bool(
        not math.isnan(fun)
        and (slack >= -_CHECK_BOUND).all()
        and (x >= box[:, 0] - _CHECK_BOUND).all()
        and (x <= box[:, 1] + _CHECK_BOUND).all()
    )


def _highs_linprog(c, A_ub=None, b_ub=None, *, bounds, method="highs") -> LinprogResult:
    """``scipy.optimize.linprog(method="highs")`` on this thread's reused solver.

    ``bounds`` holds one ``(low, high)`` pair per variable.  Returns scipy's
    ``OptimizeResult`` with the ``x``, ``fun``, ``slack``, ``status``,
    ``success`` and ``message`` that ``linprog`` would return.
    """
    if method != "highs":
        raise ValueError(f"only method='highs' is supported, not {method!r}")
    cost = np.asarray(c, dtype=float).reshape(-1)
    columns = cost.size
    matrix = np.zeros((0, columns)) if A_ub is None else np.asarray(A_ub, dtype=float)
    upper = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    rows = upper.size
    if matrix.shape != (rows, columns):
        raise ValueError(f"Invalid input for linprog: A_ub has shape {matrix.shape}, not {(rows, columns)}")
    for name, values in (("c", cost), ("A_ub", matrix), ("b_ub", upper)):
        if not np.isfinite(values).all():
            raise ValueError(f"Invalid input for linprog: {name} must not contain values inf, nan, or None")
    box = np.asarray(bounds, dtype=float).reshape(columns, 2)

    highs = _thread_highs()
    x = fun = slack = None
    if _pass_model(highs, cost, box, upper, matrix) == HighsStatus.kError:
        del _THREAD.highs
        model_status = HighsModelStatus.kModelError
        message = highs.modelStatusToString(model_status)
    elif highs.run() == HighsStatus.kError:
        del _THREAD.highs
        model_status = highs.getModelStatus()
        message = highs.modelStatusToString(model_status)
    else:
        model_status = highs.getModelStatus()
        if model_status == HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            fun = highs.getObjectiveValue()
            slack = upper - np.array(solution.row_value)
            message = highs.modelStatusToString(model_status)
        else:
            info = highs.getInfo()
            message = (
                f"model_status is {highs.modelStatusToString(model_status)}; "
                f"primal_status is {highs.solutionStatusToString(info.primal_solution_status)}"
            )
    if x is not None and _passes_check(x, fun, slack, box):
        status, message = _OPTIMAL
    else:
        status, message = _highs_to_scipy_status_message(model_status, message)
        status, message = _check_result(
            x, fun, status, slack, _NO_EQUALITIES, box, LINPROG_CHECK_TOL, message, None
        )
    return LinprogResult(
        {"x": x, "fun": fun, "slack": slack, "status": status, "success": status == 0, "message": message}
    )


def _stock_linprog(c, A_ub=None, b_ub=None, *, bounds, method="highs") -> LinprogResult:
    """``scipy.optimize.linprog``, counted in ``query.lp.fallback_calls``."""
    registry = active_registry()
    if registry is not None:
        registry.counter(LP_FALLBACK_CALLS).inc()
    return _scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


if _HAVE_HIGHS:
    _COLWISE = int(MatrixFormat.kColwise)
    _MINIMIZE = int(ObjSense.kMinimize)
    _OPTIMAL = _optimal_answer()
    _HAVE_HIGHS = _OPTIMAL is not None

#: The LP solver every primitive below calls; tracing wraps this name.
linprog = _highs_linprog if _HAVE_HIGHS else _stock_linprog


@dataclass
class LPCounters:
    """Mutable counters describing LP solver usage.

    The experiment harness reads these to reproduce the paper's
    "number of LP calls" and "number of constraints" metrics.
    """

    feasibility_calls: int = 0
    optimize_calls: int = 0
    total_constraints: int = 0

    def record(self, kind: str, constraint_count: int) -> None:
        """Record one solver invocation of the given ``kind``."""
        if kind == "feasibility":
            self.feasibility_calls += 1
        else:
            self.optimize_calls += 1
        self.total_constraints += constraint_count

    @property
    def total_calls(self) -> int:
        """Total number of LP solves performed."""
        return self.feasibility_calls + self.optimize_calls

    def merge(self, other: "LPCounters") -> None:
        """Accumulate another counter object into this one."""
        self.feasibility_calls += other.feasibility_calls
        self.optimize_calls += other.optimize_calls
        self.total_constraints += other.total_constraints


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an interior-feasibility test."""

    feasible: bool
    witness: np.ndarray | None
    margin: float

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of a linear min/max over a cell."""

    value: float
    point: np.ndarray


def preference_space_constraints(dimensionality: int) -> list[tuple[np.ndarray, float]]:
    """Closed-form boundary constraints of the transformed preference space.

    These encode ``w_j >= 0`` for every axis and ``sum_j w_j <= 1`` (the open
    versions ``> 0`` / ``< 1`` are recovered by the feasibility slack).
    """
    constraints: list[tuple[np.ndarray, float]] = []
    for axis in range(dimensionality):
        coefficients = np.zeros(dimensionality)
        coefficients[axis] = -1.0
        constraints.append((coefficients, 0.0))
    constraints.append((np.ones(dimensionality), 1.0))
    return constraints


def halfspaces_to_constraints(
    halfspaces: Iterable[Halfspace],
) -> list[tuple[np.ndarray, float]]:
    """Convert halfspaces to closed ``a . w <= b`` constraint rows."""
    return [halfspace.as_leq_constraint() for halfspace in halfspaces]


def _assemble(
    halfspaces: Sequence[Halfspace],
    dimensionality: int,
    include_space_bounds: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack a cell's halfspaces, then the space boundary if asked, into ``(A, b)``.

    The one assembly of a cell that has left the CellTree: finalisation and
    :func:`cell_feasible`.
    """
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for coefficients, bound in halfspaces_to_constraints(halfspaces):
        rows.append(np.asarray(coefficients, dtype=float))
        rhs.append(float(bound))
    if include_space_bounds:
        for coefficients, bound in preference_space_constraints(dimensionality):
            rows.append(coefficients)
            rhs.append(bound)
    if not rows:
        return np.zeros((0, dimensionality)), np.zeros(0)
    return np.vstack(rows), np.asarray(rhs, dtype=float)


class ConstraintStack:
    """An immutable ``A . w <= b`` constraint system grown one row at a time.

    Every CellTree cell (:class:`repro.core.celltree.Cell`) keeps its rows in
    one stack: a child's stack is its parent's plus the single halfspace
    labelling the connecting edge.  Each ``push`` copies the parent rows into
    one preallocated matrix (storage is per node, not shared), so the whole
    root path is assembled exactly once per node instead of being rebuilt
    from a Python list of halfspaces on every feasibility probe of that
    node.  Each row's Euclidean norm is kept beside it, computed once when
    the row is pushed with the reduction the feasibility LP would run,
    ``np.linalg.norm(rows, axis=1)``, so the bits match.
    """

    __slots__ = ("matrix", "rhs", "norms")

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray, norms: np.ndarray | None = None) -> None:
        self.matrix = matrix
        self.rhs = rhs
        #: ``np.linalg.norm(matrix, axis=1)``, one entry per row.
        self.norms = np.linalg.norm(matrix, axis=1) if norms is None else norms

    @classmethod
    def for_space(cls, dimensionality: int, include_space_bounds: bool = True) -> "ConstraintStack":
        """The root stack: only the preference-space boundary constraints."""
        if not include_space_bounds:
            return cls(np.zeros((0, dimensionality)), np.zeros(0))
        constraints = preference_space_constraints(dimensionality)
        return cls(
            np.vstack([coefficients for coefficients, _ in constraints]),
            np.asarray([bound for _, bound in constraints], dtype=float),
        )

    @property
    def rows(self) -> int:
        """Number of constraint rows currently on the stack."""
        return int(self.matrix.shape[0])

    def push(self, halfspace: Halfspace) -> "ConstraintStack":
        """A new stack extended by one halfspace (the receiver is unchanged)."""
        coefficients, bound = halfspace.as_leq_constraint()
        rows, columns = self.matrix.shape
        matrix = np.empty((rows + 1, columns))
        matrix[:rows] = self.matrix
        matrix[rows] = coefficients
        rhs = np.empty(rows + 1)
        rhs[:rows] = self.rhs
        rhs[rows] = bound
        norms = np.empty(rows + 1)
        norms[:rows] = self.norms
        norms[rows:] = np.linalg.norm(matrix[rows:], axis=1)
        return ConstraintStack(matrix, rhs, norms)

    def memory_bytes(self) -> int:
        """Size of the stored rows and their norms in bytes (space-consumption accounting)."""
        return int(self.matrix.nbytes + self.rhs.nbytes + self.norms.nbytes)


@functools.cache
def _lp_frame(dimensionality: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays every LP over ``dimensionality`` weights passes.

    The feasibility LP's cost (maximise the slack, its last variable) and
    variable box, ``(-1, 2)`` per weight and ``(0, 1)`` for the slack; and
    the optimisation LPs' box, the weights' rows alone.
    """
    objective = np.zeros(dimensionality + 1)
    objective[-1] = -1.0
    box = np.empty((dimensionality + 1, 2))
    box[:] = (-1.0, 2.0)
    box[-1] = (0.0, _SLACK_CAP)
    objective.setflags(write=False)
    box.setflags(write=False)
    return objective, box, box[:-1]


def solve_feasibility(
    matrix: np.ndarray,
    bounds: np.ndarray,
    dimensionality: int,
    counters: LPCounters | None = None,
    tolerance: Tolerance | float | None = None,
    *,
    norms: np.ndarray | None = None,
) -> FeasibilityResult:
    """Interior-feasibility LP over a pre-assembled ``A . w <= b`` system.

    This is the hot-path entry used by the CellTree (via its cells'
    :class:`ConstraintStack`, which passes its kept row ``norms``; without
    them they are computed here); :func:`cell_feasible` is the
    halfspace-list convenience wrapper around it.  The feasibility decision
    is made by the shared :class:`~repro.robust.Tolerance` policy: the
    normalized interior margin must exceed
    ``tolerance.feasible_margin(row norms)``, which guarantees the returned
    witness passes every constraint's side test strictly (see
    :mod:`repro.robust.tolerance`).
    """
    policy = resolve_tolerance(tolerance)
    rows = matrix.shape[0]
    if counters is not None:
        counters.record("feasibility", rows)
    registry = active_registry()
    if registry is not None:
        registry.histogram(LP_CONSTRAINTS).observe(int(rows))
    if rows == 0:
        # No constraints at all: the whole space qualifies; pick its centroid.
        witness = np.full(dimensionality, 1.0 / (dimensionality + 1.0))
        return FeasibilityResult(True, witness, 1.0)

    norms = policy.safe_norms(np.linalg.norm(matrix, axis=1) if norms is None else norms)
    # Variables: [w_1 .. w_d', t]; maximise t.
    augmented = np.empty((rows, dimensionality + 1))
    augmented[:, :dimensionality] = matrix
    augmented[:, dimensionality] = norms
    objective, variable_bounds, _ = _lp_frame(dimensionality)
    outcome = linprog(
        objective,
        A_ub=augmented,
        b_ub=bounds,
        bounds=variable_bounds,
        method="highs",
    )
    if outcome.status == 2:  # infeasible even as a closed system
        return FeasibilityResult(False, None, 0.0)
    if not outcome.success:
        raise LPSolverError(f"feasibility LP failed with status {outcome.status}: {outcome.message}")
    margin = float(outcome.x[-1])
    if not policy.is_feasible(margin, norms):
        return FeasibilityResult(False, None, margin)
    return FeasibilityResult(True, outcome.x[:-1].copy(), margin)


def cell_feasible(
    halfspaces: Sequence[Halfspace],
    dimensionality: int,
    counters: LPCounters | None = None,
    include_space_bounds: bool = True,
    tolerance: Tolerance | float | None = None,
) -> FeasibilityResult:
    """Test whether the open intersection of ``halfspaces`` is non-empty.

    Maximises the interior margin ``t`` such that every constraint
    ``a . w <= b`` is satisfied with slack ``t * ||a||``.  The cell has a
    non-empty interior iff the optimal ``t`` exceeds ``tolerance``.  The
    optimiser's weight vector is returned as a witness interior point.
    """
    matrix, bounds = _assemble(halfspaces, dimensionality, include_space_bounds)
    return solve_feasibility(matrix, bounds, dimensionality, counters, tolerance)


def _optimize(
    objective: np.ndarray,
    halfspaces: "Sequence[Halfspace] | ConstraintStack",
    dimensionality: int,
    counters: LPCounters | None,
) -> OptimizeResult:
    if isinstance(halfspaces, ConstraintStack):
        matrix, bounds = halfspaces.matrix, halfspaces.rhs
    else:
        matrix, bounds = _assemble(halfspaces, dimensionality, include_space_bounds=True)
    if counters is not None:
        counters.record("optimize", matrix.shape[0])
    registry = active_registry()
    if registry is not None:
        registry.histogram(LP_CONSTRAINTS).observe(int(matrix.shape[0]))
    outcome = linprog(
        objective,
        A_ub=matrix if matrix.size else None,
        b_ub=bounds if matrix.size else None,
        bounds=_lp_frame(dimensionality)[2],
        method="highs",
    )
    if not outcome.success:
        raise LPSolverError(
            f"optimisation LP failed with status {outcome.status}: {outcome.message}"
        )
    return OptimizeResult(float(outcome.fun), outcome.x.copy())


def minimize_linear(
    objective: np.ndarray,
    halfspaces: "Sequence[Halfspace] | ConstraintStack",
    dimensionality: int,
    counters: LPCounters | None = None,
) -> OptimizeResult:
    """Minimise ``objective . w`` over the closure of the cell.

    The cell is its halfspaces, assembled with the space boundary after
    them, or a :class:`ConstraintStack` already holding those rows in that
    order (a CellTree cell's :meth:`~repro.core.celltree.Cell.edges_first`),
    which lets every LP of one bound evaluation share one system.
    """
    return _optimize(np.asarray(objective, dtype=float), halfspaces, dimensionality, counters)


def maximize_linear(
    objective: np.ndarray,
    halfspaces: "Sequence[Halfspace] | ConstraintStack",
    dimensionality: int,
    counters: LPCounters | None = None,
) -> OptimizeResult:
    """Maximise ``objective . w`` over the closure of the cell (see :func:`minimize_linear`)."""
    outcome = _optimize(-np.asarray(objective, dtype=float), halfspaces, dimensionality, counters)
    return OptimizeResult(-outcome.value, outcome.point)
