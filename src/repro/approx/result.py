"""Approximate kSPR answers: point estimate plus statistical guarantees.

An :class:`ApproxKSPRResult` is what the sampling mode returns instead of a
:class:`~repro.core.result.KSPRResult`: no region geometry, but an unbiased
estimate of the impact probability together with two kinds of confidence
interval at a requested failure probability ``delta``:

* **Hoeffding** — distribution-free, closed-form:
  ``half_width = sqrt(ln(2 / delta) / (2 m))``.  Valid for *independent*
  bounded samples, identically distributed or not — which is exactly why the
  stratified design of :mod:`repro.approx.sampler` keeps its guarantee.
* **Clopper–Pearson** — the exact binomial interval (Beta quantiles), almost
  always much tighter than Hoeffding at the same ``delta``.  Exact for the
  ``"uniform"`` design (i.i.d. Bernoulli hits); under ``"stratified"``
  sampling the hit count is Poisson-binomial rather than binomial, and the
  interval is reported as a (in practice conservative) approximation —
  stratification can only reduce the variance the binomial model assumes.

:func:`required_samples` inverts the Hoeffding bound: the sample size at
which the half-width is guaranteed to reach ``epsilon`` with confidence
``1 - delta``, which is how the non-adaptive mode plans its draw count.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.result import QueryStats
from ..exceptions import InvalidQueryError
from ..robust import Tolerance

__all__ = [
    "ApproxKSPRResult",
    "required_samples",
    "hoeffding_half_width",
    "clopper_pearson_bounds",
]


def hoeffding_half_width(samples: int, delta: float) -> float:
    """Hoeffding half-width for a mean of ``samples`` independent [0, 1] draws.

    Parameters
    ----------
    samples:
        Number of independent samples (must be positive).
    delta:
        Two-sided failure probability in ``(0, 1)``.

    Returns
    -------
    float
        ``sqrt(ln(2 / delta) / (2 * samples))``.
    """
    if samples < 1:
        raise InvalidQueryError("Hoeffding half-width needs at least one sample")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def required_samples(epsilon: float, delta: float) -> int:
    """Samples guaranteeing a Hoeffding half-width of at most ``epsilon``.

    Parameters
    ----------
    epsilon:
        Target half-width (additive error) in ``(0, 1)``.
    delta:
        Failure probability in ``(0, 1)``.

    Returns
    -------
    int
        ``ceil(ln(2 / delta) / (2 * epsilon^2))`` — with that many samples,
        ``P(|estimate - p| > epsilon) <= delta`` for any true ``p``.

    Examples
    --------
    >>> required_samples(0.01, 0.05)
    18445
    """
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


def clopper_pearson_bounds(hits: int, samples: int, delta: float) -> tuple[float, float]:
    """Exact (Clopper–Pearson) two-sided binomial interval for ``hits / samples``.

    Parameters
    ----------
    hits:
        Number of positive samples, ``0 <= hits <= samples``.
    samples:
        Total number of samples (must be positive).
    delta:
        Two-sided failure probability in ``(0, 1)``.

    Returns
    -------
    tuple of float
        ``(lower, upper)`` with coverage at least ``1 - delta`` for a true
        binomial proportion.

    Notes
    -----
    Each bound is one Beta quantile, computed by the regularized incomplete
    beta inverse ``betaincinv(a, b, q)``: the same ufunc ``beta.ppf(q, a, b)``
    calls, bit for bit, without ``scipy.stats``' argument checking and
    broadcasting (about 40x cheaper per call) or its import.
    """
    if samples < 1:
        raise InvalidQueryError("Clopper–Pearson bounds need at least one sample")
    if not 0 <= hits <= samples:
        raise InvalidQueryError(f"hits={hits} outside [0, samples={samples}]")
    from scipy.special import betaincinv

    if hits == 0:
        lower = 0.0
    else:
        lower = float(betaincinv(hits, samples - hits + 1, delta / 2.0))
    if hits == samples:
        upper = 1.0
    else:
        upper = float(betaincinv(hits + 1, samples - hits, 1.0 - delta / 2.0))
    return lower, upper


class ApproxKSPRResult:
    """Sampling-based estimate of a kSPR query's impact probability.

    Returned by :func:`repro.approx.sample_kspr` (and therefore by
    ``kspr(..., method="sample")`` and ``Engine.query(..., approx=...)``).
    Mirrors the reporting surface of :class:`~repro.core.result.KSPRResult`
    (``impact_probability()``, ``summary()``, ``stats``) so serving-layer
    consumers can treat both uniformly, but carries **no region geometry**:
    ``len(result)`` is always ``0``.

    Parameters
    ----------
    focal:
        The focal record the query was asked about.
    k:
        Shortlist size.
    samples:
        Total weight vectors classified.
    hits:
        How many of them placed the focal record in the top-``k``.
    epsilon, delta:
        The requested accuracy contract (half-width target and failure
        probability).
    mode:
        Sampling design, ``"uniform"`` or ``"stratified"``.
    seed:
        Stream seed; re-running with the same seed, mode, chunk size and
        sample count reproduces the estimate exactly.
    chunk:
        Chunk size of the seeded substreams.
    adaptive:
        Whether the adaptive stopping rule was used.
    looks:
        Number of stopping-rule evaluations the adaptive mode performed
        (``1`` for the fixed-size mode).
    ci_delta:
        The failure probability actually backing :meth:`confidence_interval`
        — equal to ``delta`` in fixed-size mode; in adaptive mode the
        remaining budget after the union-bound spending across looks.
    stats:
        Per-query instrumentation (:class:`~repro.core.result.QueryStats`).
    tolerance:
        Numerical policy the query ran under (recorded for cache-key parity;
        sample classification itself uses exact comparisons — boundary ties
        are a measure-zero event under continuous sampling).
    """

    def __init__(
        self,
        focal: np.ndarray,
        k: int,
        samples: int,
        hits: int,
        *,
        epsilon: float,
        delta: float,
        mode: str,
        seed: int,
        chunk: int,
        adaptive: bool,
        looks: int,
        ci_delta: float,
        stats: QueryStats,
        tolerance: Tolerance | None = None,
    ) -> None:
        self.focal = np.asarray(focal, dtype=float)
        self.k = int(k)
        self.samples = int(samples)
        self.hits = int(hits)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.mode = str(mode)
        self.seed = int(seed)
        self.chunk = int(chunk)
        self.adaptive = bool(adaptive)
        self.looks = int(looks)
        self.ci_delta = float(ci_delta)
        self.stats = stats
        self.tolerance = tolerance

    # ------------------------------------------------------------------ #
    # container parity with KSPRResult
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Always ``0``: an approximate answer carries no region geometry."""
        return 0

    def __iter__(self):
        """Empty iterator (region-list parity with :class:`KSPRResult`)."""
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lower, upper = self.confidence_interval()
        return (
            f"ApproxKSPRResult(estimate={self.estimate:.4f}, "
            f"ci=[{lower:.4f}, {upper:.4f}], samples={self.samples}, "
            f"mode={self.mode!r}, seed={self.seed})"
        )

    # ------------------------------------------------------------------ #
    # estimate and intervals
    # ------------------------------------------------------------------ #
    @property
    def estimate(self) -> float:
        """The point estimate ``hits / samples`` (unbiased for the impact)."""
        if self.samples == 0:
            return 0.0
        return self.hits / self.samples

    @property
    def is_empty(self) -> bool:
        """True when not a single sampled preference shortlisted the focal record.

        An *estimated* emptiness — unlike :attr:`KSPRResult.is_empty` it is
        not a certificate; consult :meth:`confidence_interval` for the upper
        bound that quantifies how empty.
        """
        return self.hits == 0

    def impact_probability(self) -> float:
        """The estimated impact probability (parity with :class:`KSPRResult`)."""
        return self.estimate

    def hoeffding_interval(self, delta: float | None = None) -> tuple[float, float]:
        """Distribution-free ``(lower, upper)`` interval at confidence ``1 - delta``.

        Valid for both sampling designs (independent bounded samples).
        ``delta`` defaults to :attr:`ci_delta`.
        """
        delta = self.ci_delta if delta is None else float(delta)
        half = hoeffding_half_width(self.samples, delta)
        return max(0.0, self.estimate - half), min(1.0, self.estimate + half)

    def clopper_pearson_interval(self, delta: float | None = None) -> tuple[float, float]:
        """Exact binomial ``(lower, upper)`` interval at confidence ``1 - delta``.

        Exact under ``"uniform"`` sampling; a conservative-in-practice
        approximation under ``"stratified"`` (see the module docstring).
        ``delta`` defaults to :attr:`ci_delta`.
        """
        delta = self.ci_delta if delta is None else float(delta)
        return clopper_pearson_bounds(self.hits, self.samples, delta)

    def confidence_interval(
        self, method: str = "clopper-pearson", delta: float | None = None
    ) -> tuple[float, float]:
        """The ``(lower, upper)`` interval by the named construction.

        Parameters
        ----------
        method:
            ``"clopper-pearson"`` (default) or ``"hoeffding"``.
        delta:
            Failure probability; defaults to :attr:`ci_delta`.

        Raises
        ------
        InvalidQueryError
            For an unknown ``method`` name.
        """
        normalized = method.strip().lower().replace("_", "-")
        if normalized in ("clopper-pearson", "cp", "exact"):
            return self.clopper_pearson_interval(delta)
        if normalized == "hoeffding":
            return self.hoeffding_interval(delta)
        raise InvalidQueryError(
            f"unknown interval method {method!r}; use 'clopper-pearson' or 'hoeffding'"
        )

    def half_width(self, method: str = "clopper-pearson", delta: float | None = None) -> float:
        """Half the length of :meth:`confidence_interval` (the achieved accuracy)."""
        lower, upper = self.confidence_interval(method, delta)
        return (upper - lower) / 2.0

    def meets(self, epsilon: float | None = None, method: str = "clopper-pearson") -> bool:
        """Whether the achieved interval half-width is within ``epsilon``.

        ``epsilon`` defaults to the contract the query was issued with.
        """
        epsilon = self.epsilon if epsilon is None else float(epsilon)
        return self.half_width(method) <= epsilon

    def covers(
        self,
        probability: float,
        method: str = "clopper-pearson",
        delta: float | None = None,
    ) -> bool:
        """Whether ``probability`` lies inside :meth:`confidence_interval`.

        The *two-phase honesty* predicate of the serving tier
        (:mod:`repro.serve`): when an approximate answer was served first and
        the exact refinement arrives later, the exact impact probability must
        be covered by the interval the client already acted on — with
        probability at least ``1 - delta`` by the interval construction, and
        deterministically for a fixed seed in the reproducibility tests.
        """
        lower, upper = self.confidence_interval(method, delta)
        return lower <= float(probability) <= upper

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, float]:
        """Compact dictionary mirroring :meth:`KSPRResult.summary`.

        Shares the exact-result keys consumers aggregate on
        (``impact_probability``, ``processed_records``,
        ``response_seconds``) and adds the statistical contract
        (``samples``, ``hits``, interval endpoints, achieved half-width).
        """
        lower, upper = self.confidence_interval()
        return {
            "regions": 0.0,
            "k": float(self.k),
            "impact_probability": self.estimate,
            "samples": float(self.samples),
            "hits": float(self.hits),
            "ci_lower": lower,
            "ci_upper": upper,
            "half_width": self.half_width(),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "looks": float(self.looks),
            "processed_records": float(self.stats.processed_records),
            "response_seconds": self.stats.response_seconds,
        }
