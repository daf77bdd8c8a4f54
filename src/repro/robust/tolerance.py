"""The unified numerical-tolerance policy of the kSPR reproduction.

Every floating-point *decision* in the library — which side of a hyperplane a
point lies on, whether an LP margin certifies a non-empty cell interior,
whether a hyperplane is degenerate, whether a weight vector is inside the
open preference simplex — is made through one :class:`Tolerance` object
instead of scattered ad-hoc constants.  Historically the code base mixed four
unrelated epsilons (``1e-12`` side tests, a ``1e-9`` LP margin, an exact
``0.0`` simplex check and a ``1e-15`` norm floor), which allowed a cell the
LP called feasible to have its witness point classified *on* the boundary by
a side test — silently corrupting cover/partition decisions on
near-degenerate data.

Design
------
A comparison against zero of a value ``v`` obtained from a linear form with
coefficient norm ``s`` (the *scale*) is made with the threshold::

    margin(s) = absolute + relative * |s|

so tiny-coefficient hyperplanes get proportionally tiny boundary bands
instead of a flat cutoff that may dwarf their entire value range.

The LP interior-feasibility test reports a *normalized* margin ``t`` (slack
per unit constraint norm).  :meth:`Tolerance.feasible_margin` converts the
row norms of the constraint system into the smallest ``t`` that counts as
feasible::

    required(t) = max(feasibility, absolute / min_norm + 2 * relative)

which guarantees the **consistency invariant** the algorithms rely on: any
witness point returned by a feasible LP satisfies ``classify_side`` strictly
for every constraint row that produced it, whatever the row norms are.
(Proof: the witness has absolute slack ``>= t * s_i`` on row ``i``; with
``t > absolute / min_norm + 2 * relative`` that slack strictly exceeds
``absolute + relative * s_i = margin(s_i)``.)

Use :data:`DEFAULT_TOLERANCE` when no policy is supplied, and
:func:`resolve_tolerance` to accept ``Tolerance | float | None`` uniformly at
API boundaries (a bare float reproduces the legacy flat-threshold semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "resolve_tolerance",
    "DIVISION_EPSILON",
    "LINPROG_CHECK_TOL",
    "LP_PRIMAL_FEASIBILITY_TOL",
    "POSITIVE_SIDE",
    "NEGATIVE_SIDE",
    "BOUNDARY_SIDE",
]

#: Side labels returned by :meth:`Tolerance.classify_side`.  They match the
#: halfspace sign vocabulary of :mod:`repro.geometry.halfspace`.
POSITIVE_SIDE = "+"
NEGATIVE_SIDE = "-"
BOUNDARY_SIDE = "0"

#: Additive guard for denominators that may be exactly zero (dataset
#: normalisation in :mod:`repro.data.realistic`).  Not a comparison
#: tolerance, but it lives here so no numeric epsilon is hard-coded
#: anywhere else in the package.
DIVISION_EPSILON = 1e-9

#: ``scipy.optimize.linprog``'s default ``tol``, the threshold of its
#: post-solve check that demotes a constraint-violating "optimal" answer to
#: status 4.  :mod:`repro.geometry.linprog` applies the same check with the
#: same value so its statuses match stock ``linprog``'s; like
#: ``DIVISION_EPSILON`` it is not a comparison tolerance of this package.
LINPROG_CHECK_TOL = 1e-9

#: HiGHS's default primal feasibility tolerance, the constraint violation an
#: LP answer may carry.  The CellTree's vertex certificate
#: (:mod:`repro.core.celltree`) adds it to a hyperplane's side margin, so
#: it never declares a side empty where HiGHS could still find room.
LP_PRIMAL_FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True)
class Tolerance:
    """Scale-aware numerical comparison policy.

    Parameters
    ----------
    absolute:
        Scale-independent epsilon floor.  Dominates when the comparison scale
        is O(1) small or unknown.
    relative:
        Scale-proportional epsilon: a linear form with coefficient norm ``s``
        gets a boundary band of width ``relative * s`` around zero.
    feasibility:
        Minimum *normalized* LP interior margin (slack per unit constraint
        norm) for a cell to count as non-empty.  Kept a factor above
        ``relative`` so LP witnesses always pass side tests strictly.
    degenerate:
        A hyperplane whose coefficients are all at most this in magnitude is
        treated as degenerate (it does not partition the space; the constant
        score-difference sign decides its side).
    norm_floor:
        Constraint-row norms below this are treated as 1.0 when normalising
        LP slack (guards divisions by a numerically-zero norm).
    """

    absolute: float = 1e-12
    relative: float = 1e-9
    feasibility: float = 1e-8
    degenerate: float = 1e-8
    norm_floor: float = 1e-15

    def __post_init__(self) -> None:
        for name in ("absolute", "relative", "feasibility", "degenerate", "norm_floor"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"Tolerance.{name} must be finite and non-negative, got {value!r}")
        if self.feasibility < self.relative:
            raise ValueError(
                "Tolerance.feasibility must be at least Tolerance.relative, otherwise "
                "LP witnesses are not guaranteed to pass side tests strictly"
            )

    # ------------------------------------------------------------------ #
    # thresholds
    # ------------------------------------------------------------------ #
    def margin(self, scale: float = 1.0) -> float:
        """Boundary half-width for a comparison at the given ``scale``."""
        return self.absolute + self.relative * abs(scale)

    def margins(self, scales: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`margin` over an array of scales."""
        return self.absolute + self.relative * np.abs(np.asarray(scales, dtype=float))

    # ------------------------------------------------------------------ #
    # sign classification
    # ------------------------------------------------------------------ #
    def classify_side(self, value: float, scale: float = 1.0) -> str:
        """``'+'``, ``'-'`` or ``'0'`` for a signed value at the given scale."""
        threshold = self.margin(scale)
        if value > threshold:
            return POSITIVE_SIDE
        if value < -threshold:
            return NEGATIVE_SIDE
        return BOUNDARY_SIDE

    def is_strictly_positive(self, value: float, scale: float = 1.0) -> bool:
        """True when ``value`` clears the boundary band on the positive side."""
        return value > self.margin(scale)

    def is_strictly_negative(self, value: float, scale: float = 1.0) -> bool:
        """True when ``value`` clears the boundary band on the negative side."""
        return value < -self.margin(scale)

    def is_boundary(self, value: float, scale: float = 1.0) -> bool:
        """True when ``value`` falls inside the boundary band."""
        return abs(value) <= self.margin(scale)

    def close(self, a: float, b: float, scale: float = 1.0) -> bool:
        """Whether two values are indistinguishable at the given scale."""
        return self.is_boundary(a - b, scale)

    # ------------------------------------------------------------------ #
    # LP feasibility
    # ------------------------------------------------------------------ #
    def feasible_margin(self, norms: np.ndarray | Iterable[float] | None = None) -> float:
        """Smallest normalized interior margin that certifies feasibility.

        ``norms`` are the constraint-row norms of the LP system; they tighten
        the requirement so the consistency invariant (module docstring) holds
        even when rows with very small norms are present.
        """
        smallest = 1.0
        if norms is not None:
            array = np.asarray(norms, dtype=float)
            if array.size:
                smallest = float(array.min())
        smallest = max(smallest, self.norm_floor, np.finfo(float).tiny)
        return max(self.feasibility, self.absolute / smallest + 2.0 * self.relative)

    def is_feasible(self, margin: float, norms: np.ndarray | None = None) -> bool:
        """Whether a normalized LP margin certifies a non-empty interior."""
        return margin > self.feasible_margin(norms)

    def safe_norms(self, norms: np.ndarray) -> np.ndarray:
        """Row norms with numerically-zero entries replaced by 1.0."""
        norms = np.asarray(norms, dtype=float)
        return np.where(norms < self.norm_floor, 1.0, norms)

    # ------------------------------------------------------------------ #
    # degeneracy
    # ------------------------------------------------------------------ #
    def is_negligible_coefficients(self, coefficients: np.ndarray) -> bool:
        """True when a coefficient vector is indistinguishable from zero.

        Used to classify degenerate hyperplanes (the induced "hyperplane" is
        not a surface, the score difference is constant over the space).
        """
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.size == 0:
            return True
        return bool(np.max(np.abs(coefficients)) <= self.degenerate)

    # ------------------------------------------------------------------ #
    # derived policies
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "Tolerance":
        """A policy with every epsilon multiplied by ``factor`` (>0)."""
        if not np.isfinite(factor) or factor <= 0.0:
            raise ValueError(f"tolerance scale factor must be positive, got {factor!r}")
        return replace(
            self,
            absolute=self.absolute * factor,
            relative=self.relative * factor,
            feasibility=self.feasibility * factor,
            degenerate=self.degenerate * factor,
        )

    def tightened(self, factor: float = 10.0) -> "Tolerance":
        """A stricter policy (smaller epsilons) by the given factor."""
        return self.scaled(1.0 / factor)

    def loosened(self, factor: float = 10.0) -> "Tolerance":
        """A more forgiving policy (larger epsilons) by the given factor."""
        return self.scaled(factor)

    def as_key(self) -> tuple:
        """Canonical hashable form (used by the engine's cache keys)."""
        return (
            "tolerance",
            self.absolute,
            self.relative,
            self.feasibility,
            self.degenerate,
            self.norm_floor,
        )


#: The library-wide default policy.
DEFAULT_TOLERANCE = Tolerance()


def resolve_tolerance(tolerance: "Tolerance | float | None") -> Tolerance:
    """Coerce an optional tolerance argument into a :class:`Tolerance`.

    ``None`` resolves to :data:`DEFAULT_TOLERANCE`.  A bare float ``f``
    reproduces the legacy flat-threshold behaviour: absolute epsilon ``f``,
    no relative component, feasibility margin ``f`` — so callers that used to
    pass e.g. ``tolerance=1e-6`` keep their exact semantics.
    """
    if tolerance is None:
        return DEFAULT_TOLERANCE
    if isinstance(tolerance, Tolerance):
        return tolerance
    if isinstance(tolerance, (int, float, np.floating, np.integer)) and not isinstance(
        tolerance, bool
    ):
        value = float(tolerance)
        if not np.isfinite(value) or value < 0.0:
            raise ValueError(f"a numeric tolerance must be finite and non-negative, got {value!r}")
        return Tolerance(
            absolute=value,
            relative=0.0,
            feasibility=value,
            degenerate=DEFAULT_TOLERANCE.degenerate,
            norm_floor=DEFAULT_TOLERANCE.norm_floor,
        )
    raise TypeError(f"tolerance must be a Tolerance, a float or None, got {tolerance!r}")
