"""High-level kSPR query interface.

:func:`kspr` is the main entry point of the library: it dispatches to one of
the algorithms (LP-CTA by default, the paper's best method) and returns a
:class:`~repro.core.result.KSPRResult` containing the preference regions,
their exact geometry and the query statistics.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..approx.estimator import sample_kspr
from ..approx.result import ApproxKSPRResult
from ..exceptions import InvalidQueryError
from ..records import Dataset
from ..robust import validate_query_inputs
from .base import ORIGINAL_SPACE, TRANSFORMED_SPACE, OpenQuery, PreparedQuery, Pull
from .cta import cta, open_cta
from .lpcta import lpcta, open_lpcta
from .original_space import olp_cta, op_cta
from .pcta import open_pcta, pcta
from .result import KSPRResult

__all__ = [
    "kspr",
    "available_methods",
    "normalize_method",
    "resolve_method",
    "check_options",
    "method_space",
    "open_query",
    "validate_query",
]


@dataclass(frozen=True)
class _Method:
    """One row of the method table: a method function, its opener and space.

    ``options`` are the method function's keywords beyond the query triple,
    less ``prepared``, which the entry points supply.  ``space`` is fixed for
    the original-space variants, which open like their transformed-space
    counterparts.
    """

    run: Callable[..., KSPRResult | ApproxKSPRResult]
    open: Callable[..., OpenQuery] | None = None
    space: str | None = None

    @cached_property
    def options(self) -> frozenset[str]:
        return frozenset(inspect.signature(self.run).parameters) - {
            "dataset", "focal", "k", "prepared",
        }


_PCTA = _Method(pcta, open_pcta)
_LPCTA = _Method(lpcta, open_lpcta)
_METHODS: dict[str, _Method] = {
    "cta": _Method(cta, open_cta),
    "pcta": _PCTA,
    "p-cta": _PCTA,
    "lpcta": _LPCTA,
    "lp-cta": _LPCTA,
    "op-cta": _Method(op_cta, open_pcta, ORIGINAL_SPACE),
    "olp-cta": _Method(olp_cta, open_lpcta, ORIGINAL_SPACE),
    "sample": _Method(sample_kspr),
}
#: Canonical method name (the method function's name) -> table row.
_BY_NAME = {method.run.__name__: method for method in _METHODS.values()}


def available_methods() -> list[str]:
    """Names accepted by the ``method`` argument of :func:`kspr` (aliases included)."""
    return sorted(_METHODS)


def normalize_method(method: str) -> str:
    """Canonical spelling of a method name; raises for unknown methods."""
    normalized = method.strip().lower().replace("_", "-")
    if normalized not in _METHODS:
        raise InvalidQueryError(
            f"unknown method {method!r}; available: {', '.join(available_methods())}"
        )
    return normalized


def _row(method: str) -> _Method:
    """The table row of a method name or alias, or of a canonical name."""
    return _BY_NAME.get(method) or _METHODS[normalize_method(method)]


def resolve_method(method: str) -> tuple[str, Callable[..., KSPRResult]]:
    """Resolve a method name (or alias) to ``(canonical name, callable)``.

    Aliases collapse to one canonical name (``"p-cta"`` and ``"pcta"`` both
    resolve to ``"pcta"``) so callers such as :class:`repro.engine.Engine`
    can key caches without alias-induced duplicates; a canonical name
    resolves to itself.
    """
    func = _row(method).run
    return func.__name__, func


def check_options(method: str, options: dict) -> None:
    """Raise :class:`~repro.exceptions.InvalidQueryError` naming an option
    ``method`` does not take, so every entry point refuses it up front."""
    row = _row(method)
    unknown = options.keys() - row.options
    if unknown:
        raise InvalidQueryError(
            f"method {row.run.__name__!r} takes no option {min(unknown)!r}; "
            f"it takes: {', '.join(sorted(row.options))}"
        )


def method_space(method: str, options: dict) -> str:
    """The preference space a ``method`` query with ``options`` runs in."""
    return _row(method).space or options.get("space", TRANSFORMED_SPACE)


def open_query(
    method: str,
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    options: dict,
    *,
    prepared: PreparedQuery | None = None,
    pull: Pull = Pull(),
) -> OpenQuery:
    """Open an exact ``method`` query with ``options`` through its opener.

    The query runs in the method's space (:func:`method_space`).  Raises
    :class:`~repro.exceptions.InvalidQueryError` for an option the method
    does not take, and for ``"sample"``, which has no tick stream.
    """
    row = _row(method)
    if row.open is None:
        raise InvalidQueryError(f"method {row.run.__name__!r} has no streaming implementation")
    check_options(method, options)
    options = {**options, "space": method_space(method, options)}
    return row.open(dataset, focal, k, prepared=prepared, pull=pull, **options)


def validate_query(dataset: Dataset, focal: np.ndarray, k: int) -> np.ndarray:
    """Validate a (dataset, focal, k) query triple up front.

    Raises :class:`~repro.exceptions.InvalidQueryError` for a non-integral or
    out-of-range ``k`` (``k < 1`` or ``k > n``), a ``d = 1`` dataset, a focal
    record of the wrong shape or dimensionality, or non-finite focal values.
    Returns the focal record as a float vector.  This is a thin alias for
    :func:`repro.robust.validate_query_inputs`, the canonical validation
    shared by :func:`kspr`, :class:`repro.engine.Engine` and
    :class:`repro.parallel.ShardedExecutor`.
    """
    return validate_query_inputs(dataset, focal, k)


def kspr(
    dataset: Dataset | np.ndarray | Sequence[Sequence[float]],
    focal: np.ndarray | Sequence[float],
    k: int,
    method: str = "lpcta",
    **options,
) -> KSPRResult | ApproxKSPRResult:
    """Answer a k-Shortlist Preference Region query.

    Parameters
    ----------
    dataset:
        The competing options, either as a :class:`~repro.records.Dataset` or
        as a raw ``(n, d)`` array-like.
    focal:
        The focal record ``p`` whose impact regions are sought.
    k:
        Shortlist size: the regions where ``p`` ranks among the top-``k`` are
        reported.
    method:
        ``"lpcta"`` (default), ``"pcta"``, ``"cta"``, ``"op-cta"``,
        ``"olp-cta"`` — the exact algorithms — or ``"sample"``, the Monte
        Carlo approximate mode (see :mod:`repro.approx`).
    options:
        Forwarded to the selected algorithm (e.g. ``bounds_mode="group"`` for
        LP-CTA, ``finalize_geometry=False`` to skip exact geometry,
        ``tolerance=Tolerance(...)`` to tighten or loosen the numerical
        policy for this query — see :mod:`repro.robust`; for
        ``method="sample"``: ``epsilon``, ``delta``, ``samples``, ``mode``,
        ``seed``, ``adaptive`` — see :func:`repro.approx.sample_kspr`).

    Returns
    -------
    KSPRResult or ApproxKSPRResult
        For the exact methods, the preference regions (each with its rank
        and exact geometry) plus query statistics.  For ``"sample"``, an
        :class:`~repro.approx.ApproxKSPRResult`: the estimated impact
        probability with its confidence intervals — no region geometry.

    Raises
    ------
    InvalidQueryError
        For an unknown ``method``, an option the method does not take, or
        malformed query inputs (``k < 1``, ``k > n``, ``d = 1`` datasets,
        focal shape or dimensionality mismatches, non-finite focal values).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Dataset, kspr
    >>> data = Dataset(np.array([[3, 8, 8], [9, 4, 4], [8, 3, 4], [4, 3, 6]]))
    >>> result = kspr(data, focal=[5, 5, 7], k=3)
    >>> result.is_empty
    False
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(np.asarray(dataset, dtype=float))
    focal = validate_query(dataset, focal, k)
    row = _METHODS[normalize_method(method)]
    check_options(method, options)
    if row.open is None:
        # The line above already validated (and possibly warned about) the
        # query; the estimator must not warn a second time.
        options.setdefault("warn", False)
    return row.run(dataset, focal, k, **options)
