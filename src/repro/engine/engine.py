"""The amortized multi-query kSPR serving engine.

:class:`Engine` prepares a dataset once and serves many queries against the
prepared state, amortising work that :func:`repro.kspr` redoes from scratch
on every call:

* **k-skyband pruning** — an incrementally-maintained
  :class:`~repro.index.skyline.SkybandIndex` stores the exact dominator count
  of every record.  For a query with ``k <= k_max``, competitors dominated by
  ``k`` or more records are excluded before any index is built: by Lemma 6 of
  the paper they can never out-score the focal record inside an answer
  region, so the answer is unchanged while the per-query input shrinks from
  ``n`` towards the k-skyband.
* **prepared per-focal state** — the focal partition, the competitor R-tree
  and the record→hyperplane map are computed once per ``(focal, k)`` and
  reused by later queries (:class:`~repro.core.base.PreparedQuery`).
* **result caching** — an LRU :class:`~repro.engine.cache.ResultCache` keyed
  on ``(dataset fingerprint, focal, k, method, options)`` returns previously
  computed answers outright.
* **incremental updates** — :meth:`Engine.insert` / :meth:`Engine.delete`
  patch the dominator counts, the shared aggregate R-tree and the caches in
  place.  Cache entries are invalidated *only* when the updated record can
  actually influence their answer; unaffected entries keep serving.  The
  shared tree's only reader is :meth:`Engine.skyline`.

The per-entry invalidation rule, for an entry answering ``(focal, k)`` and an
updated record ``r``:

1. ``r`` dominated by (or equal to) the focal record — the partitioning step
   discards ``r`` for every weight vector, the entry is untouched;
2. ``r`` dominates the focal record — the dominator count ``D`` (and hence
   every reported rank, and possibly emptiness) changes: drop the entry;
3. ``r`` is a competitor with fewer than ``k`` dominators — it belongs to the
   entry's (pruned) competitor set: drop the entry;
4. ``r`` is a competitor with ``>= k`` dominators — it lies outside the
   k-skyband, so the entry's pruned input never held it: the entry is
   untouched.  No *other* record crosses the k-skyband boundary either.  An
   update of ``r`` changes only the counts of the records ``r`` dominates,
   and by transitivity of dominance each of ``r``'s ``c >= k`` dominators
   dominates them too, so each has at least ``c + 1`` dominators after an
   insert and at least ``c`` after a delete: outside the band on both
   sides.  ``tests/test_index_incremental.py`` checks this property on
   random tie-heavy update sequences.

Rules 1–4 keep cached results byte-identical to what a cold re-run against
the current dataset would produce.  :meth:`Engine.apply_updates` stacks a
batch's deltas once and gives every cached answer, paused stream and
prepared entry one array verdict for the whole batch, equal to the union of
the per-update verdicts; :meth:`Engine.update_affects` does the same for one
standing query.

**Approximate serving** — :meth:`Engine.query` with ``approx=`` (or
``method="sample"``) serves the Monte Carlo estimate of :mod:`repro.approx`
through the same machinery: the prepared focal partition (with its k-skyband
pruned competitor slice, sound for the top-k indicator by Lemma 6) feeds the
sample classifier, the :class:`~repro.approx.ApproxKSPRResult` is cached
under the same tolerance-aware key scheme — with the accuracy contract
(epsilon, delta, seed, mode, chunk) in the key so different contracts never
alias — and rules 1–4 govern its invalidation exactly as for exact answers.

**Anytime serving** — :meth:`Engine.query_stream` answers a query as a stream
of :class:`~repro.core.result.PartialKSPRResult` snapshots (regions are
yielded as soon as Lemma 5 certifies them) under a ``deadline`` /
``max_batches`` / cancellation budget.  A truncated stream is checkpointed in
a :class:`~repro.engine.cache.PartialStore` keyed exactly like the result
cache (fingerprint, focal, k, method, tolerance-aware options), so
re-issuing the query warm-starts from the paused frontier; a completed
stream installs its result in the ordinary result cache, where subsequent
:meth:`query` calls hit.  Partial checkpoints obey the same rules 1–4 on
updates: entries the update provably cannot affect stay resumable, the rest
are dropped.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from ..approx.result import ApproxKSPRResult
from ..core.base import PreparedQuery, Pull, drain
from ..core.bounds import BoundsMode
from ..core.query import check_options, method_space, open_query, resolve_method, validate_query
from ..core.result import KSPRResult, PartialKSPRResult
from ..exceptions import InvalidDatasetError, InvalidQueryError, ReproError, SnapshotError
from ..geometry.halfspace import Hyperplane
from ..index.dominance import order_masks
from ..index.rtree import AggregateRTree
from ..index.skyline import SkybandDelta, SkybandIndex
from ..index.skyline import skyline as bbs_skyline
from ..obs.metrics import MetricsRegistry, stats_to_registry, use_registry
from ..obs.profile import QueryProfile
from ..obs.trace import Tracer, current_tracer, use_tracer
from ..records import Dataset, FocalPartition
from ..robust import Tolerance, resolve_tolerance
from .cache import CacheEntry, PartialEntry, PartialStore, ResultCache, options_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..live.session import LiveSession
    from ..live.standing import StandingQuery
    from ..live.updates import AppliedBatch, UpdateBatch, UpdateOp
    from ..snapshot.store import SnapshotStore

__all__ = ["Engine"]

#: The counters the engine itself keeps, under their catalogued names; the
#: result cache and the partial store keep the rest (see :meth:`Engine.metrics`).
_ENGINE_COUNTERS = (
    "engine.queries", "engine.queries.cold", "engine.prepared.builds",
    "engine.prepared.reuses", "engine.updates.inserts", "engine.updates.deletes",
    "engine.result_cache.adopted", "engine.stream.queries",
)

#: The :meth:`Engine.metrics` names exported as gauges; the rest are counters.
_GAUGES = frozenset((
    "engine.seconds.cold", "engine.seconds.prepare", "engine.prepared.entries",
    "engine.prepared.capacity", "engine.dataset.cardinality",
    "engine.result_cache.entries", "engine.result_cache.capacity",
    "engine.partial_store.entries", "engine.partial_store.capacity",
))


@dataclass(slots=True)
class _Plan:
    """One query resolved once by :meth:`Engine._plan`: every serving path reads
    its method, canonical options, dataset state, space, pruning and key here.
    ``run`` is the sampling estimator's function; exact methods run through
    their opener (:func:`repro.core.query.open_query`).
    """

    method: str
    run: Callable[..., ApproxKSPRResult]
    focal: np.ndarray
    k: int
    options: dict
    opts: tuple
    snapshot: Dataset
    fingerprint: str
    space: str
    pruned: bool

    @property
    def key(self) -> tuple:
        """The result-cache and partial-store key of this query."""
        return (self.fingerprint, self.focal.tobytes(), self.k, self.method, self.opts)

    def rebase(self, snapshot: Dataset) -> None:
        """Re-key onto ``snapshot``, the state the prepared entry describes."""
        self.snapshot = snapshot
        self.fingerprint = snapshot.fingerprint()


@dataclass
class _PreparedEntry:
    """A cached :class:`PreparedQuery` plus the metadata to invalidate it."""

    prepared: PreparedQuery
    focal: np.ndarray
    k: int
    space: str
    pruned: bool


class _BackingView:
    """Zero-copy, Dataset-shaped view over the engine's row store.

    The shared R-tree indexes row-store *positions*, so it only needs
    ``values`` / ``ids`` lookups with stable positions — not the full
    :class:`~repro.records.Dataset` contract.  Using a view avoids copying
    the whole store on every single-record insert.
    """

    def __init__(self, values: np.ndarray, ids: np.ndarray) -> None:
        self.values = values
        self.ids = ids

    @property
    def cardinality(self) -> int:
        return int(self.values.shape[0])

    @property
    def dimensionality(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class _BatchDeltas:
    """One batch's skyband deltas stacked for rules 1–4 (module docstring).

    ``values`` is ``(m, d)``: the updated records in application order;
    ``counts`` is ``(m,)``: each one's own dominator count at its point in
    the batch.
    """

    values: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, pairs: "Sequence[tuple[SkybandDelta, bool]]") -> "_BatchDeltas":
        deltas = [delta for delta, _ in pairs]
        return cls(
            np.array([delta.values for delta in deltas], dtype=float),
            np.array([delta.count for delta in deltas], dtype=np.int64),
        )

    def affects(self, focals: np.ndarray, ks, pruned) -> np.ndarray:
        """Could any update change the answer for each ``(focal, k, pruned)``?

        ``focals`` is one ``(d,)`` focal (a scalar verdict) or an ``(E, d)``
        block with ``(E,)`` ``ks`` and ``pruned`` (an ``(E,)`` verdict).  Per
        update: rule 1 spares an entry whose focal is ``>=`` the record
        everywhere; otherwise rule 2 (the record dominates the focal) and,
        for a competitor, rule 3 (``count < k``) or an unpruned entry drop
        it; rule 4 keeps it.
        """
        at_most, at_least = order_masks(self.values, focals)
        ks = np.asarray(ks)[..., None]
        unpruned = ~np.asarray(pruned, dtype=bool)[..., None]
        hits = ~at_most & (at_least | unpruned | (self.counts < ks))
        return hits.any(axis=-1)


class Engine:
    """Amortized serving of many kSPR queries over one (evolving) dataset.

    Parameters
    ----------
    dataset:
        Initial records, as a :class:`~repro.records.Dataset` or raw array.
    method:
        Default algorithm for :meth:`query` (any :func:`repro.kspr` method
        name; per-query override supported).
    k_max:
        Largest ``k`` for which the k-skyband fast path applies.  Queries
        with larger ``k`` are still answered (and cached) but run against the
        full competitor set.
    fanout:
        Fanout of every aggregate R-tree the engine builds.
    result_cache_size / prepared_cache_size:
        Capacities of the result LRU and the prepared-state LRU.
    partial_cache_size:
        Capacity of the paused-stream checkpoint LRU (see
        :meth:`query_stream`); evicted checkpoints are closed, not resumed.
    prune_skyband:
        Disable to make cold queries byte-identical to plain ``kspr()`` calls
        (useful for differential testing); pruning never changes the answer,
        only the per-query work.
    tolerance:
        Default numerical policy for every query this engine serves (see
        :mod:`repro.robust`); ``None`` keeps the library default.  A
        per-query ``tolerance=`` option overrides it, and the tolerance in
        effect is part of the result-cache key, so answers computed under
        different policies never alias.

    Notes
    -----
    ``query`` is thread-safe and is what :class:`repro.engine.QueryBatch`
    drives concurrently.  Cached results are returned as-is (not copied):
    treat them as immutable, and note that ``result.stats`` always describes
    the cold run that produced the entry.  Per-query simulated I/O counts are
    reported as deltas on a counter shared per prepared focal, so two cache
    misses racing on the *same* ``(focal, k)`` may attribute node accesses to
    each other — answers are unaffected, only that statistic blurs.
    """

    def __init__(
        self,
        dataset: Dataset | np.ndarray | Sequence[Sequence[float]],
        *,
        method: str = "lpcta",
        k_max: int = 16,
        fanout: int = 32,
        result_cache_size: int = 512,
        prepared_cache_size: int = 64,
        partial_cache_size: int = 32,
        prune_skyband: bool = True,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        if not isinstance(dataset, Dataset):
            dataset = Dataset(np.asarray(dataset, dtype=float))
        if dataset.cardinality == 0:
            raise InvalidDatasetError("the engine needs at least one initial record")
        if k_max < 1:
            raise InvalidQueryError("k_max must be a positive integer")
        self._default_method = resolve_method(method)[0]
        self.k_max = int(k_max)
        self._fanout = int(fanout)
        self._prune = bool(prune_skyband)
        self._tolerance = None if tolerance is None else resolve_tolerance(tolerance)
        self._name = dataset.name

        prepare_start = time.perf_counter()
        if not hasattr(self, "_skyband"):  # :meth:`_seeded` brought the counts
            self._skyband = SkybandIndex(dataset)
        self._snapshot = dataset
        self._shared_tree = AggregateRTree(dataset, fanout=self._fanout)
        self._result_cache = ResultCache(result_cache_size)
        self._partials = PartialStore(partial_cache_size)
        self._prepared_capacity = int(prepared_cache_size)
        self._prepared: OrderedDict[tuple, _PreparedEntry] = OrderedDict()
        self._hyperplanes: dict[tuple, dict[int, Hyperplane]] = {}
        self._used_ids = {int(record_id) for record_id in dataset.ids}
        self._next_id = dataset.next_record_id()
        # Explicit-id inserts below this floor are rejected.  0 for a fresh
        # engine (no behaviour change); a restored engine raises it to the
        # persisted watermark, because ids issued-then-deleted before the
        # snapshot are invisible to ``_used_ids`` here yet must stay dead.
        self._id_floor = 0
        # The last snapshot id this engine committed or was restored from;
        # the default parent link of the next :meth:`commit`.
        self._committed_parent: str | None = None
        # Standing-query tier: created lazily by :attr:`live` / :meth:`subscribe`;
        # ``_update_seq`` numbers applied update events (single or batch).
        self._live: "LiveSession | None" = None
        self._update_seq = 0
        self._lock = threading.RLock()
        self._counters: dict[str, float] = dict.fromkeys(_ENGINE_COUNTERS, 0)
        self._counters["engine.seconds.cold"] = 0.0
        self._counters["engine.seconds.prepare"] = time.perf_counter() - prepare_start

    @classmethod
    def _seeded(cls, dataset: Dataset, counts: np.ndarray, **options) -> "Engine":
        """An engine that trusts ``counts`` (aligned with ``dataset``'s rows, as
        :meth:`snapshot_state` gives them) instead of recounting: the private
        path of a :class:`repro.parallel.ShardedExecutor` worker."""
        engine = cls.__new__(cls)
        engine._skyband = SkybandIndex._seeded(dataset, counts)
        engine.__init__(dataset, **options)
        return engine

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> Dataset:
        """Snapshot of the live records (immutable; replaced on updates)."""
        return self._snapshot

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the current dataset state (the cache-key component)."""
        return self._snapshot.fingerprint()

    @property
    def cardinality(self) -> int:
        """Number of live records."""
        return self._snapshot.cardinality

    @property
    def dimensionality(self) -> int:
        """Number of attributes per record."""
        return self._snapshot.dimensionality

    @property
    def default_method(self) -> str:
        """Canonical name of the default query algorithm."""
        return self._default_method

    @property
    def fanout(self) -> int:
        """Fanout of the aggregate R-trees the engine builds."""
        return self._fanout

    @property
    def prune_skyband(self) -> bool:
        """Whether cold queries run against the k-skyband slice."""
        return self._prune

    @property
    def tolerance(self) -> Tolerance | None:
        """Default numerical policy of this engine (None = library default)."""
        return self._tolerance

    def _effective_options(self, options: dict, method_name: str | None = None) -> dict:
        """Canonical per-query options: engine defaults applied, values resolved.

        The engine-level tolerance is injected when the query did not pass its
        own; whatever tolerance ends up in effect is resolved to a
        :class:`~repro.robust.Tolerance` so the cache key is canonical (a
        float and its equivalent policy never produce two entries).  For the
        sampling method, the accuracy-contract fields are expanded to the
        full :class:`~repro.approx.ApproxSpec` (defaults included), so the
        ``approx=`` and ``method="sample"`` spellings of one query always
        share a single cache entry.
        """
        options = dict(options)
        if "bounds_mode" in options:
            options["bounds_mode"] = BoundsMode.coerce(options["bounds_mode"])
        if "tolerance" in options:
            if options["tolerance"] is not None:
                options["tolerance"] = resolve_tolerance(options["tolerance"])
            else:
                del options["tolerance"]
        if "tolerance" not in options and self._tolerance is not None:
            options["tolerance"] = self._tolerance
        if method_name == "sample_kspr":
            from ..approx.estimator import ApproxSpec  # local: engine <-> approx

            # ``warn`` never changes the answer (admission already warned) —
            # drop it so it cannot split the cache key; every contract field
            # (max_samples included) is then expanded to the full spec.
            options.pop("warn", None)
            overrides = {
                name: options.pop(name)
                for name in list(options)
                if name in ApproxSpec.__dataclass_fields__
            }
            options.update(ApproxSpec(**overrides).as_options())
        return options

    def canonical_key(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        options: dict | None = None,
        fingerprint: str | None = None,
    ) -> tuple:
        """The cache key this query would be served under, without computing it.

        Two queries share an answer exactly when their canonical keys are
        equal: the key folds in the dataset fingerprint, the focal bytes,
        ``k``, the resolved method name and the canonicalised options (engine
        defaults applied, tolerances resolved, ``approx=`` spellings expanded
        — the same normalisation :meth:`query` performs before its cache
        lookup).  Serving layers use this for **single-flight de-duplication**:
        concurrent identical requests collapse onto one execution by keying
        their in-flight table on the canonical key.  ``fingerprint`` pins the
        key to a specific dataset state (default: the current one).
        """
        plan = self._plan(focal, k, method, options or {}, fingerprint=fingerprint, validate=False)
        return plan.key

    def _plan(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None,
        options: dict,
        *,
        approx: "object | None" = None,
        fingerprint: str | None = None,
        validate: bool = True,
    ) -> _Plan:
        """Resolve one query once: method, options, state, space, pruning, key.

        ``approx=`` folds into ``method="sample"`` with the spec's fields as
        options.  Validation rejects a malformed query and any option the
        method does not take, before anything is prepared.
        ``validate=False`` skips it for the callers that only key an answer
        (:meth:`canonical_key`, :meth:`cached_result`, :meth:`adopt_result`),
        which never reject a query.  ``fingerprint`` pins the key to a
        specific dataset state (default: the current one).
        """
        if approx is not None:
            from ..approx.estimator import ApproxSpec  # local import: engine <-> approx

            spec = ApproxSpec.coerce(approx)
            if method is not None and resolve_method(method)[0] != "sample_kspr":
                raise InvalidQueryError(
                    f"approx={approx!r} conflicts with method={method!r}; "
                    "the approximate mode is method='sample'"
                )
            conflicts = set(options) & set(ApproxSpec.__dataclass_fields__)
            if conflicts:
                raise InvalidQueryError(
                    f"approx= conflicts with the explicit option(s) "
                    f"{sorted(conflicts)}; declare the accuracy contract in "
                    "one place"
                )
            method = "sample"
            options = {**spec.as_options(), **options}
        method_name, method_func = resolve_method(method or self._default_method)
        with self._lock:
            snapshot = self._snapshot
        if validate:
            focal_array = validate_query(snapshot, focal, k)
            check_options(method_name, options)
        else:
            focal_array = np.asarray(focal, dtype=float)
        options = self._effective_options(options, method_name)
        space = method_space(method_name, options)
        return _Plan(
            method=method_name,
            run=method_func,
            focal=focal_array,
            k=int(k),
            options=options,
            opts=options_key(options),
            snapshot=snapshot,
            fingerprint=snapshot.fingerprint() if fingerprint is None else fingerprint,
            space=space,
            pruned=self._prunes(k),
        )

    def _prunes(self, k: int) -> bool:
        """Whether a ``k`` query runs against the k-skyband slice (Lemma 6)."""
        return self._prune and int(k) <= self.k_max

    def dominator_counts(self) -> np.ndarray:
        """Per-record dominator counts aligned with ``dataset`` rows.

        Served from the incrementally-maintained skyband index, so handing
        them to a :class:`repro.parallel.ShardedExecutor` skips the O(n²)
        recount entirely.
        """
        return self.snapshot_state()[1]

    def snapshot_state(self) -> tuple[Dataset, np.ndarray]:
        """Atomically capture ``(snapshot, dominator counts)``.

        Both are read under one lock acquisition so the counts are guaranteed
        to describe exactly the returned snapshot — the pair a
        :class:`repro.parallel.ShardedExecutor` needs to reproduce the
        engine's pruning even while updates race the caller.
        """
        with self._lock:
            # The snapshot's rows are the index's live positions, in order.
            return self._snapshot, self._skyband.live_counts()

    def cached_result(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        options: dict | None = None,
        fingerprint: str | None = None,
    ) -> KSPRResult | None:
        """Peek the result cache: the cached answer, or None — never computes.

        ``fingerprint`` pins the lookup to a specific dataset state (default:
        the current one); a hit is counted as a served query in the engine
        statistics.
        """
        return self._peek(
            focal, k, method, options or {}, fingerprint=fingerprint, validate=False
        )

    def _peek(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None,
        options: dict,
        *,
        wait: bool = True,
        **plan_options,
    ) -> KSPRResult | ApproxKSPRResult | None:
        """One result-cache lookup that never computes: the cached answer or None.

        The lookup body of :meth:`cached_result` and ``query(cached_only=True)``.
        The plan and the lookup run under one acquisition of the engine lock,
        and a hit counts as a served query.  ``wait=False`` is the
        event-loop peek: a contended lock reads as a miss, and a miss counts
        nothing, because its caller then runs the full :meth:`query`, which
        counts it.
        """
        if not self._lock.acquire(blocking=wait):
            return None
        try:
            plan = self._plan(focal, k, method, options, **plan_options)
            if not wait and plan.key not in self._result_cache:
                return None
            cached = self._result_cache.get(plan.key)
            if cached is not None:
                self._counters["engine.queries"] += 1
            return cached
        finally:
            self._lock.release()

    def skyband_ids(self, k: int) -> set[int]:
        """Identifiers of the current k-skyband, from the maintained counts."""
        with self._lock:
            return self._skyband.skyband_ids(k)

    def skyline(self) -> list[int]:
        """Identifiers of the current skyline (Pareto-optimal records).

        Served by a BBS traversal of the incrementally-maintained shared
        aggregate R-tree — the "what are the undominated options right now?"
        companion query a serving deployment runs alongside kSPR.
        """
        with self._lock:
            return bbs_skyline(self._shared_tree)

    def metrics_registry(self) -> MetricsRegistry:
        """Every engine-side counter as one canonical :class:`MetricsRegistry`.

        The same numbers as :meth:`metrics`, with counters landing as
        :class:`Counter` and sizes, capacities and accumulated seconds as
        :class:`Gauge` — ready for :func:`repro.obs.registry_to_prometheus`.
        """
        registry = MetricsRegistry()
        for name, value in self.metrics().items():
            if name in _GAUGES:
                registry.gauge(name).set(value)
            else:
                registry.counter(name).inc(value)
        return registry

    def metrics(self) -> dict[str, float]:
        """Flat ``{canonical name: value}`` snapshot of every engine counter.

        One name per number (``engine.queries``,
        ``engine.result_cache.hits``, ``engine.partial_store.saved``, …),
        shared with the exporters and the experiment harness; the names are
        :data:`repro.obs.names.ENGINE_METRIC_NAMES`, in sorted order.  The
        engine keeps its own counters; the result cache and the partial
        store are authoritative for theirs.
        """
        with self._lock:
            cache, partials = self._result_cache, self._partials
            values = {
                **self._counters,
                "engine.prepared.entries": len(self._prepared),
                "engine.prepared.capacity": self._prepared_capacity,
                "engine.dataset.cardinality": self._snapshot.cardinality,
                "engine.result_cache.entries": len(cache),
                "engine.result_cache.capacity": cache.capacity,
                "engine.result_cache.hits": cache.hits,
                "engine.result_cache.misses": cache.misses,
                "engine.result_cache.insertions": cache.insertions,
                "engine.result_cache.evictions": cache.evictions,
                "engine.result_cache.invalidated": cache.invalidated,
                # An update re-keys exactly the entries it retains, and only a
                # stream resume checks a checkpoint out: one count each,
                # catalogued under two names.
                "engine.result_cache.retained": cache.rekeyed,
                "engine.result_cache.rekeyed": cache.rekeyed,
                "engine.stream.resumes": partials.resumes,
                "engine.partial_store.resumes": partials.resumes,
                "engine.partial_store.entries": len(partials),
                "engine.partial_store.capacity": partials.capacity,
                "engine.partial_store.saved": partials.saves,
                "engine.partial_store.evictions": partials.evictions,
                "engine.partial_store.invalidated": partials.invalidated,
            }
        return dict(sorted(values.items()))

    def profile(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        *,
        workers: int | None = None,
        approx: "object | None" = None,
        **options,
    ) -> QueryProfile:
        """Run one query under a live tracer and metrics registry; report it.

        The query executes exactly like :meth:`query` except that the
        result cache is bypassed (no lookup, no install), so the recorded
        span tree always describes a full cold execution — which is what
        makes the deterministic projection
        (:meth:`~repro.obs.QueryProfile.structure`) byte-identical across
        repeated calls and across worker counts.  The returned
        :class:`~repro.obs.QueryProfile` carries the span tree, the phase
        timings, the canonical per-query metrics, the LP constraint-count
        histogram, and (for ``method="sample"``) the sampler's
        confidence-interval trajectory; ``print(profile)`` renders the
        human-readable report, :meth:`~repro.obs.QueryProfile.as_dict` the
        machine-readable one.
        """
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            result = self.query(
                focal, k, method=method, workers=workers, approx=approx,
                use_cache=False, **options,
            )
        try:
            regions = len(result)
        except TypeError:  # approximate results measure volume, not regions
            regions = None
        stats_to_registry(result.stats, regions=regions, registry=registry)
        return QueryProfile(result, tracer=tracer, registry=registry)

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def query(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        workers: int | None = None,
        approx: "object | None" = None,
        use_cache: bool = True,
        cached_only: bool = False,
        **options,
    ) -> KSPRResult | ApproxKSPRResult | None:
        """Answer one kSPR query, reusing every piece of prepared state it can.

        Accepts the same arguments as :func:`repro.kspr`; results are
        identical to a fresh ``kspr()`` call on the current dataset (with
        pruning enabled, identical up to the decomposition of the answer into
        cells — the covered region and the ranks are always the same).

        Parameters
        ----------
        focal, k, method, options:
            The query, exactly as :func:`repro.kspr` takes it.
        workers:
            ``> 1`` accelerates a *cold* ``"cta"`` query by sharding its
            CellTree expansion across worker processes (CTA's opener picks
            :func:`repro.parallel.parallel_ticks`), and a ``"sample"`` query
            by classifying its seeded sample chunks in parallel; either way
            the answer — and hence the cached entry — is identical to the
            single-process run, so ``workers`` deliberately does not
            participate in the cache key.  Other methods run serially
            regardless of ``workers``.
        approx:
            Request the sampling-based approximate mode: an
            :class:`~repro.approx.ApproxSpec`, a dict of its fields, a bare
            epsilon, or ``True`` for defaults.  Equivalent to
            ``method="sample"`` with the spec's fields as options; the
            returned :class:`~repro.approx.ApproxKSPRResult` is cached under
            the same tolerance-aware key scheme as exact answers (epsilon,
            delta, seed, mode and chunk are all part of the key, so
            different accuracy contracts never alias) and obeys the same
            rules-1-4 update invalidation.
        use_cache:
            ``False`` bypasses the result cache entirely — no lookup, no
            install — forcing a full cold execution.  Used by
            :meth:`profile` so a traced run always records the complete
            span tree; answers are unaffected either way.
        cached_only:
            ``True`` returns the cached answer or ``None`` and never
            computes, nor waits on the engine lock: a lock another thread
            holds counts as a miss, and a miss is not counted (the caller's
            follow-up full query counts it).  Safe to call from an event
            loop; the serving tier answers warm requests this way without a
            worker-pool hop.

        Returns
        -------
        KSPRResult or ApproxKSPRResult or None
            The exact answer, or the sampled estimate when ``approx`` /
            ``method="sample"`` was requested; ``None`` only for a
            ``cached_only`` miss.

        Raises
        ------
        InvalidQueryError
            For malformed query inputs, an option the method does not take,
            or an invalid accuracy contract.
        """
        if cached_only:
            return self._peek(focal, k, method, options, wait=False, approx=approx)
        plan = self._plan(focal, k, method, options, approx=approx)
        tracer = current_tracer()
        with tracer.span("engine.query", method=plan.method, k=plan.k) as query_span:
            with tracer.span("engine.cache.lookup", bypassed=not use_cache) as lookup:
                with self._lock:
                    self._counters["engine.queries"] += 1
                    cached = self._result_cache.get(plan.key) if use_cache else None
                lookup.set(outcome="hit" if cached is not None else "miss")
            if cached is not None:
                query_span.set(cache="hit")
                return cached
            query_span.set(cache="miss")

            with tracer.span("engine.prepare") as prepare_span:
                entry = self._prepared_for(plan, build_tree=plan.method != "sample_kspr")
                prepare_span.set(
                    space=plan.space,
                    pruned=entry.pruned,
                    competitors=int(entry.prepared.partition.competitors.cardinality),
                )

            with tracer.span("engine.execute") as execute_span:
                cold_start = time.perf_counter()
                if plan.method == "sample_kspr":
                    # Admission already validated (and possibly warned about)
                    # the query; the estimator must not warn a second time.
                    # Neither flag participates in the cache key (warn is
                    # stripped by _effective_options; chunk substreams make the
                    # estimate identical for every worker count).
                    result = plan.run(
                        plan.snapshot, plan.focal, plan.k, prepared=entry.prepared,
                        **plan.options, warn=False, workers=workers,
                    )
                else:
                    result = drain(
                        open_query(
                            plan.method, plan.snapshot, plan.focal, plan.k, plan.options,
                            prepared=entry.prepared, pull=Pull(workers=workers),
                        )
                    )
                cold_seconds = time.perf_counter() - cold_start
                if tracer.enabled:
                    stats = result.stats
                    # Only counters invariant across worker counts may be
                    # deterministic attributes.  LP call totals and processed
                    # records vary slightly between the serial and sharded
                    # expansions (shards probe their local frontiers), so
                    # they travel as volatile fields with the timings.
                    execute_span.set(competitors=int(stats.competitor_records))
                    try:
                        execute_span.set(regions=len(result))
                    # analyze: ignore[EXC001] -- approx results have no region count (len() unsupported)
                    except TypeError:
                        pass
                    execute_span.note(
                        algorithm=stats.algorithm,
                        seconds=cold_seconds,
                        batches=int(stats.batches),
                        processed=int(stats.processed_records),
                        lp_feasibility=int(stats.lp.feasibility_calls),
                        lp_optimize=int(stats.lp.optimize_calls),
                    )

        with self._lock:
            self._counters["engine.queries.cold"] += 1
            self._counters["engine.seconds.cold"] += cold_seconds
            if use_cache:
                self._install(plan, result)
        return result

    def query_stream(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        *,
        deadline: float | None = None,
        deadline_at: float | None = None,
        max_batches: int | None = None,
        cancel: threading.Event | Callable[[], bool] | None = None,
        workers: int | None = None,
        capture: bool = True,
        **options,
    ) -> Iterator[PartialKSPRResult]:
        """Answer one kSPR query as an anytime stream of partial results.

        Yields a :class:`~repro.core.result.PartialKSPRResult` after every
        cooperative work unit (batch / chunk / shard commit): certified
        regions appear as soon as Lemma 5 proves them final, each snapshot
        carries a monotonically tightening ``[lower, upper]`` impact bracket,
        and the terminal snapshot (``done=True``) wraps the exact result —
        which is also installed in the result cache, so a follow-up
        :meth:`query` hits.

        ``deadline`` (seconds), ``deadline_at`` (an absolute
        :func:`time.perf_counter` instant — the form a serving layer
        propagates one request deadline through, charging queueing and
        compute against a single budget; the earlier of the two wins when
        both are given), ``max_batches`` and ``cancel`` bound the
        stream; when the budget runs out (or the consumer abandons the
        iterator) the suspended query is checkpointed in the partial-result
        cache under the same tolerance-aware key as the result cache.
        Re-issuing the query — same focal, ``k``, method and options against
        an unchanged (or provably unaffected, rules 1–4) dataset state —
        warm-starts from the checkpoint, and the final answer is
        byte-identical to an uninterrupted run.  ``workers`` (> 1) streams a
        ``"cta"`` query through the sharded parallel path, merging per-worker
        region streams in deterministic depth-first order.  ``capture=False``
        skips the per-tick frontier freeze (snapshots then report the
        trivial upper bound) for consumers that never read impact brackets.

        A checkpointed ``workers > 1`` stream keeps its suspended worker
        pool alive — already dispatched shard groups finish in the
        background and are collected on resume.  Budget ``workers``
        checkpoints accordingly (``partial_cache_size`` bounds how many can
        accumulate; eviction, invalidation, or a shadowing full result
        closes them).
        """
        # Validate the query AND the budget eagerly so errors raise at call
        # time, not at the first ``next()`` — a call that never starts also
        # never saves a ghost checkpoint.
        from ..stream.anytime import StreamBudget  # local: engine <-> stream

        StreamBudget(deadline=deadline, max_batches=max_batches, deadline_at=deadline_at)
        plan = self._plan(focal, k, method, options)
        if plan.method == "sample_kspr":
            raise InvalidQueryError(
                "method='sample' has no streaming implementation; use "
                "query(approx=...) — the adaptive sampling mode already "
                "refines its estimate incrementally"
            )
        return self._stream(
            plan, deadline=deadline, deadline_at=deadline_at, max_batches=max_batches,
            cancel=cancel, workers=workers, capture=capture,
        )

    def _stream(
        self,
        plan: _Plan,
        *,
        deadline: float | None,
        deadline_at: float | None,
        max_batches: int | None,
        cancel: threading.Event | Callable[[], bool] | None,
        workers: int | None,
        capture: bool,
    ) -> Iterator[PartialKSPRResult]:
        """Generator behind :meth:`query_stream` (checkout → advance → checkpoint)."""
        tracer = current_tracer()
        key = plan.key
        with self._lock:
            self._counters["engine.queries"] += 1
            self._counters["engine.stream.queries"] += 1
            cached = self._result_cache.get(key)
            checkpoint = None
            if cached is not None:
                # A full result shadows any checkpoint under the same key
                # forever; release the orphan's resources now.
                self._partials.discard(key)
            else:
                checkpoint = self._partials.peek(key)
                if checkpoint is not None and capture and not checkpoint.capture:
                    # The checkpoint never captures frontiers, but this
                    # caller wants brackets: resuming would silently serve
                    # only the trivial upper bound.  Drop it and recompute
                    # (without counting a resume that never happened).
                    self._partials.discard(key)
                    checkpoint = None
                elif checkpoint is not None:
                    checkpoint = self._partials.pop(key)
        if tracer.enabled:
            # Created and finished immediately (never entered as a context
            # manager): the generator frame runs in its consumer's context,
            # so entering here would leak the active-span contextvar across
            # yields.
            outcome = (
                "cached" if cached is not None
                else "resume" if checkpoint is not None
                else "cold"
            )
            checkout = tracer.span("engine.stream.checkout", method=plan.method, k=plan.k)
            checkout.set(outcome=outcome)
            checkout.finish()
        if cached is not None:
            yield PartialKSPRResult.from_result(cached)
            return

        from ..snapshot.persist import ReplayCheckpoint  # local: engine <-> snapshot
        from ..stream.anytime import AnytimeQuery  # local: engine <-> stream

        anytime = None
        if checkpoint is not None:
            anytime = checkpoint.query
            # The suspended producers keep their original capture mode; a
            # re-checkpoint must record that, not the caller's flag.
            capture = checkpoint.capture
        if anytime is None or isinstance(anytime, ReplayCheckpoint):
            # A cold stream, or a persisted checkpoint that survived a
            # restart as a replay recipe, not a live generator.  A replay
            # rebuilds the stream through the cold path and fast-forwards
            # exactly the persisted number of work units: the tick stream is
            # deterministic for a fixed (state, focal, k, method, options),
            # so this lands on the very frontier the original process was
            # suspended at.  Replays run the serial path, whose tick stream
            # is snapshot-for-snapshot identical to the sharded one.
            ticks = 0 if anytime is None else anytime.ticks
            fingerprint = plan.fingerprint
            entry = self._prepared_for(plan)
            if plan.fingerprint != fingerprint:
                # An update raced admission or the resume: the plan now
                # streams against the state the prepared entry describes.  A
                # recipe's tick cursor describes the superseded state, so it
                # runs cold — slower, never wrong.
                ticks = 0
            pull = Pull(capture=capture, workers=None if checkpoint is not None else workers)
            anytime = AnytimeQuery(
                *open_query(
                    plan.method, plan.snapshot, plan.focal, plan.k, plan.options,
                    prepared=entry.prepared, pull=pull,
                )
            )
            if ticks > 0:
                for _ in anytime.advance(max_batches=ticks):
                    pass

        try:
            for partial in anytime.advance(
                deadline=deadline, deadline_at=deadline_at,
                max_batches=max_batches, cancel=cancel,
            ):
                if partial.done:
                    result = anytime.result()
                    with self._lock:
                        self._counters["engine.queries.cold"] += 1
                        self._install(plan, result)
                    yield PartialKSPRResult.from_result(result, batches=partial.batches)
                else:
                    yield partial
        finally:
            if anytime.failed:
                # A crashed stream must never be checkpointed: resuming it
                # would silently serve a truncated answer as complete.
                anytime.close()
            elif not anytime.done:
                with self._lock:
                    # No checkpoint if the dataset state moved on, or if a
                    # concurrent query already installed the full result —
                    # every lookup would hit that first, orphaning the
                    # checkpoint (and any suspended worker pool) forever.
                    if (
                        self._snapshot.fingerprint() == plan.fingerprint
                        and plan.key not in self._result_cache
                    ):
                        self._partials.put(
                            PartialEntry(
                                fingerprint=plan.fingerprint,
                                focal=plan.focal,
                                k=plan.k,
                                method=plan.method,
                                opts=plan.opts,
                                query=anytime,
                                pruned=plan.pruned,
                                capture=capture,
                                options=dict(plan.options),
                                workers=workers,
                            )
                        )
                        if tracer.enabled:
                            saved = tracer.span(
                                "engine.stream.checkpoint", method=plan.method, k=plan.k
                            )
                            saved.note(batches=int(anytime._batches))
                            saved.finish()
                    else:
                        # An update the stream never saw raced it: the paused
                        # state may describe a stale competitor set, drop it.
                        anytime.close()

    def _install(self, plan: _Plan, result: KSPRResult | ApproxKSPRResult) -> bool:
        """Cache ``result`` under ``plan``'s key; False if an update superseded it.

        Releases any paused-stream checkpoint the full result now shadows.
        """
        with self._lock:
            if plan.fingerprint != self._snapshot.fingerprint():
                return False
            self._result_cache.put(
                CacheEntry(
                    fingerprint=plan.fingerprint,
                    focal=plan.focal,
                    k=plan.k,
                    method=plan.method,
                    opts=plan.opts,
                    result=result,
                    pruned=plan.pruned,
                )
            )
            self._partials.discard(plan.key)
            return True

    def adopt_result(
        self,
        fingerprint: str,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None,
        options: dict,
        result: KSPRResult,
    ) -> bool:
        """Install an externally computed result into the result cache.

        Used by :class:`repro.engine.QueryBatch` (``workers=N``) to make
        answers computed in worker processes serve future :meth:`query` calls
        as cache hits.  ``fingerprint`` must identify the dataset state the
        result was computed against; the entry is rejected (returns False)
        when an update has superseded that state, so a stale answer can never
        enter the cache.
        """
        plan = self._plan(focal, k, method, options, fingerprint=fingerprint, validate=False)
        with self._lock:
            adopted = self._install(plan, result)
            if adopted:
                self._counters["engine.result_cache.adopted"] += 1
            return adopted

    # ------------------------------------------------------------------ #
    # persistence (repro.snapshot)
    # ------------------------------------------------------------------ #
    @property
    def committed_snapshot(self) -> str | None:
        """Snapshot id this engine last committed, or was restored from."""
        with self._lock:
            return self._committed_parent

    def commit(self, store: "SnapshotStore", parent: str | None = None) -> str:
        """Persist the current dataset state — and both caches — to ``store``.

        Commits the live dataset as an immutable, content-addressed snapshot
        (idempotent: an unchanged state dedupes onto its existing id) and
        persists the result cache plus every resumable paused-stream
        checkpoint keyed on it, so a later
        :meth:`from_snapshot` restores a *warm* engine.  ``parent`` defaults
        to the engine's previous commit, chaining successive commits into a
        lineage; returns the snapshot id.
        """
        with self._lock:
            if parent is None:
                parent = self._committed_parent
            snapshot_id = store.commit(self._snapshot, parent=parent)
            store.save_caches(
                snapshot_id, self._result_cache.entries(), self._partials.entries()
            )
            self._committed_parent = snapshot_id
            return snapshot_id

    @classmethod
    def from_snapshot(
        cls,
        store: "SnapshotStore",
        snapshot_id: str | None = None,
        *,
        replay_to: str | None = None,
        **engine_options,
    ) -> "Engine":
        """Restore a warm engine from a committed snapshot in a fresh process.

        The restored engine is indistinguishable from the one that committed:
        same dataset (fingerprint-verified checkout), same id allocator
        watermark (a dead max-id stays dead), and — when caches were
        persisted — the same result-cache entries (served as hits, byte-
        identical) and paused-stream checkpoints (resumed from their replay
        recipes, see :class:`~repro.snapshot.ReplayCheckpoint`).

        ``replay_to`` names a *newer* snapshot in the same store: the
        insert/delete diff between the two versions is replayed through the
        ordinary :meth:`insert` / :meth:`delete` path, so the restored
        caches are reconciled by the precise rules-1-4 invalidation —
        entries the interim updates provably cannot affect keep serving —
        instead of being flushed wholesale.  If the replay cannot reproduce
        the target state exactly (verified against the committed
        fingerprint), the engine falls back to a plain checkout of
        ``replay_to``, trading the caches for guaranteed-correct state.

        ``snapshot_id`` defaults to the store's latest commit;
        ``engine_options`` are forwarded to the constructor (method, k_max,
        cache sizes, ...).
        """
        if snapshot_id is None:
            snapshot_id = store.latest()
            if snapshot_id is None:
                raise SnapshotError("cannot restore: the store holds no snapshots")
        engine = cls._restore_at(store, snapshot_id, engine_options)
        for entry in store.load_result_entries(snapshot_id):
            engine._result_cache.put(entry)
        for entry in store.load_partial_entries(snapshot_id):
            engine._partials.put(entry)
        if replay_to is not None and replay_to != snapshot_id:
            target = store.meta(replay_to)
            try:
                diff = store.diff(snapshot_id, replay_to)
                for update in diff.updates:
                    if update.op == "delete":
                        engine.delete(update.record_id)
                    else:
                        engine.insert(update.values, record_id=update.record_id)
                    store.replayed_updates += 1
                replayed = engine.fingerprint == target.fingerprint
            except ReproError:
                # A diff the update path cannot replay (id below the floor,
                # emptied dataset, inconsistent stores): fall back below.
                replayed = False
            if replayed:
                engine._stamp_watermark(target.id_high_watermark)
                engine._committed_parent = replay_to
            else:
                store.restore_fallbacks += 1
                engine = cls._restore_at(store, replay_to, engine_options)
        store.restores += 1
        return engine

    @classmethod
    def _restore_at(cls, store: "SnapshotStore", snapshot_id: str, engine_options: dict) -> "Engine":
        """Cold-restore an engine at one committed snapshot (no caches)."""
        dataset = store.checkout(snapshot_id)
        engine = cls(dataset, **engine_options)
        engine._id_floor = dataset.id_high_watermark
        engine._committed_parent = snapshot_id
        return engine

    def _stamp_watermark(self, watermark: int) -> None:
        """Adopt a persisted id watermark after a successful diff replay.

        Records inserted *and* deleted between two commits are invisible to
        the content diff yet consumed identifiers, so the replayed engine's
        allocator can trail the target snapshot's watermark; the committed
        value is authoritative.  The id floor rises with it — every id under
        the target watermark may have lived and died before the restore.
        """
        watermark = int(watermark)
        with self._lock:
            if watermark > self._next_id:
                self._next_id = watermark
                self._snapshot = self._skyband.snapshot(
                    self._name, id_high_watermark=self._next_id
                )
            self._id_floor = max(self._id_floor, watermark)

    def _prepared_for(self, plan: _Plan, build_tree: bool = True) -> _PreparedEntry:
        """Fetch or build the prepared state for ``plan``'s ``(focal, k, space)``.

        Re-keys ``plan`` onto the dataset snapshot the entry is consistent
        with (:meth:`_Plan.rebase`) — the caller must run the query against
        exactly ``plan.snapshot``, so an update that raced query admission
        moves the whole query onto the newer state.  The focal partition and
        the k-skyband slice are computed *under the engine lock* so they
        always describe one dataset state; only the expensive R-tree build
        runs unlocked.

        Entries are keyed on the *band* rather than ``k`` directly: pruned
        entries depend on ``k`` (the competitor set is the k-skyband slice),
        but unpruned ones (``k > k_max`` or pruning disabled) share a single
        competitor tree across every ``k``.

        ``build_tree=False`` (the sampling path) prepares only the focal
        partition: the sampler never reads the competitor R-tree or the
        hyperplane cache, and at the large ``n`` the approximate mode
        targets, the STR bulk load would dominate the whole query.  Tree-less
        entries live under their own key so an exact query can never pick
        one up.
        """
        focal, k, space, pruned = plan.focal, plan.k, plan.space, plan.pruned
        band = k if pruned else 0
        pkey = (focal.tobytes(), band, space) if build_tree else (
            focal.tobytes(), band, space, "sample"
        )
        prepare_start = time.perf_counter()
        with self._lock:
            snapshot = self._snapshot
            entry = self._reuse_prepared(pkey)
            if entry is not None:
                plan.rebase(snapshot)
                return entry
            # The exact and sampling entries of one (focal, band, space)
            # share the identical pruned partition; reuse the sibling's
            # (valid for exactly the dataset states this entry would be —
            # both are invalidated together by rules 1-4) instead of
            # redoing the O(n d) partition and the skyband filter.
            sibling_key = (
                (focal.tobytes(), band, space, "sample")
                if build_tree
                else (focal.tobytes(), band, space)
            )
            sibling = self._prepared.get(sibling_key)
            if sibling is not None:
                partition = sibling.prepared.partition
            else:
                partition = snapshot.partition_by_focal(focal)
                if pruned:
                    band_ids = self._skyband.skyband_ids(k)
                    competitors = partition.competitors
                    keep = [
                        i
                        for i, record_id in enumerate(competitors.ids)
                        if int(record_id) in band_ids
                    ]
                    if len(keep) < competitors.cardinality:
                        partition = FocalPartition(
                            competitors=competitors.subset(keep),
                            dominators=partition.dominators,
                            dominated=partition.dominated,
                        )
        # The heavy part runs outside the lock so updates and other queries
        # are not serialised behind the STR bulk load.
        tree = (
            AggregateRTree(partition.competitors, fanout=self._fanout)
            if build_tree
            else None
        )
        prepare_seconds = time.perf_counter() - prepare_start

        plan.rebase(snapshot)
        with self._lock:
            # An insert/delete that raced this build leaves the entry
            # consistent with the snapshot captured above, so hand it to the
            # caller (which runs against that snapshot), but never register
            # it — a later query would otherwise mix it with the *new*
            # dataset state.
            registered = snapshot is self._snapshot
            entry = self._reuse_prepared(pkey) if registered else None
            if entry is not None:
                return entry
            hyperplanes = None
            if build_tree and registered:
                hyperplanes = self._hyperplanes.setdefault((focal.tobytes(), space), {})
            entry = _PreparedEntry(
                prepared=PreparedQuery(partition, tree, hyperplanes),
                focal=focal.copy(),
                k=band,
                space=space,
                pruned=pruned,
            )
            if registered:
                self._prepared[pkey] = entry
                self._counters["engine.prepared.builds"] += 1
                self._counters["engine.seconds.prepare"] += prepare_seconds
                while len(self._prepared) > self._prepared_capacity:
                    _, evicted = self._prepared.popitem(last=False)
                    self._drop_hyperplanes_if_unused(evicted)
            return entry

    def _reuse_prepared(self, pkey: tuple) -> _PreparedEntry | None:
        """The registered prepared entry under ``pkey`` (refreshed, counted), or None."""
        entry = self._prepared.get(pkey)
        if entry is not None:
            self._prepared.move_to_end(pkey)
            self._counters["engine.prepared.reuses"] += 1
        return entry

    def _drop_hyperplanes_if_unused(self, evicted: _PreparedEntry) -> None:
        """Release a focal's hyperplane cache once nothing references it.

        Only entries that actually hold a hyperplane cache count as
        references — tree-less sampling entries never touch it, so they must
        not pin a focal's hyperplanes alive past the last exact entry.
        """
        hkey = (evicted.focal.tobytes(), evicted.space)
        for entry in self._prepared.values():
            if entry.prepared.hyperplane_cache is not None and (
                entry.focal.tobytes(), entry.space
            ) == hkey:
                return
        self._hyperplanes.pop(hkey, None)

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def insert(
        self, values: np.ndarray | Sequence[float], record_id: int | None = None
    ) -> int:
        """Add one record, patching indexes and invalidating affected caches.

        Returns the record's stable identifier.  Identifiers are never
        reused, so an explicit ``record_id`` that was ever live (even if
        since deleted) is rejected.  A one-op :meth:`apply_updates`.
        """
        from ..live.updates import UpdateOp  # local: engine <-> live

        return self.apply_updates((UpdateOp.insert(values, record_id),)).ops[0].record_id

    def delete(self, record_id: int) -> None:
        """Remove one live record, patching indexes and invalidating affected caches.

        A one-op :meth:`apply_updates`: an id that is not live raises
        :class:`~repro.exceptions.InvalidDatasetError`.
        """
        from ..live.updates import UpdateOp  # local: engine <-> live

        self.apply_updates((UpdateOp.delete(record_id),))

    def apply_updates(self, updates: "UpdateBatch | Sequence[UpdateOp]") -> "AppliedBatch":
        """Apply a batch of inserts/deletes as one atomic snapshot swap.

        The whole batch is validated up front (id discipline, dimensions,
        finiteness, never emptying the dataset), then applied under a
        single lock acquisition with exactly one snapshot swap at the end
        — intermediate states never exist as fingerprints, so a
        concurrent reader sees either the pre-batch or the post-batch
        dataset.  Cache reconciliation unions the per-update rules-1–4
        verdicts, each evaluated against its own sequential-point-in-time
        skyband delta, which makes the batched invalidation equivalent to
        applying the updates one at a time.  Standing queries
        (:meth:`subscribe`) are classified and repaired before this
        returns; the returned :class:`~repro.live.AppliedBatch` carries
        the assigned record ids and both fingerprints.
        """
        from ..live.updates import AppliedBatch, UpdateBatch, UpdateOp  # local: engine <-> live

        # Read the ops once: the builder is not under the engine lock, so a
        # second read could apply ops that were never validated.
        ops = UpdateBatch.coerce(updates).ops
        with self._lock:
            base_fingerprint = self._snapshot.fingerprint()
            if not ops:
                return AppliedBatch(
                    ops=(), pairs=(), base_fingerprint=base_fingerprint,
                    fingerprint=base_fingerprint, seq=self._update_seq,
                )
            self._validate_batch(ops)
            pairs: list[tuple[SkybandDelta, bool]] = []
            assigned: list[UpdateOp] = []
            for op in ops:
                if op.op == "insert":
                    rid = self._next_id if op.record_id is None else int(op.record_id)
                    delta = self._skyband.insert(np.asarray(op.values, dtype=float), rid)
                    self._used_ids.add(rid)
                    self._next_id = max(self._next_id, rid + 1)
                    self._shared_tree.rebind_dataset(self._backing_view())
                    self._shared_tree.insert_position(delta.position)
                    pairs.append((delta, True))
                    self._counters["engine.updates.inserts"] += 1
                    assigned.append(UpdateOp(op="insert", record_id=rid, values=delta.values))
                else:
                    delta = self._skyband.delete(int(op.record_id))
                    self._shared_tree.delete_position(delta.position)
                    pairs.append((delta, False))
                    self._counters["engine.updates.deletes"] += 1
                    assigned.append(op)
            frozen = tuple(pairs)
            self._finish_update_batch(_BatchDeltas.of(frozen))
            applied = AppliedBatch(
                ops=tuple(assigned),
                pairs=frozen,
                base_fingerprint=base_fingerprint,
                fingerprint=self._snapshot.fingerprint(),
                seq=self._update_seq,
            )
        self._notify_live(frozen)
        return applied

    def _validate_batch(self, ops: "Sequence[UpdateOp]") -> None:
        """Reject the whole batch before any mutation (atomicity guard).

        Checks every op against the engine's used and live ids plus the
        batch's own earlier ops, so mid-batch failures are impossible once
        application starts: explicit insert ids must be fresh (never used,
        not below a restored floor, not claimed twice within the batch),
        values must match the dimensionality and be finite, deletes must
        target a then-live id, and the live count must never reach zero.
        """
        claimed: set[int] = set()
        deleted: set[int] = set()
        next_id = self._next_id
        live = self._skyband.active_count
        dimensionality = self._snapshot.dimensionality
        for op in ops:
            if op.op == "insert":
                row = np.asarray(op.values, dtype=float)
                if row.shape != (dimensionality,):
                    raise InvalidDatasetError(
                        f"insert has shape {row.shape}, expected ({dimensionality},)"
                    )
                if not np.isfinite(row).all():
                    raise InvalidDatasetError("insert values must be finite")
                rid = next_id if op.record_id is None else int(op.record_id)
                if rid in self._used_ids or rid in claimed:
                    raise InvalidDatasetError(
                        f"record id {rid} was already used; ids are never recycled"
                    )
                if self._id_floor and rid < self._id_floor:
                    raise InvalidDatasetError(
                        f"record id {rid} is below this restored engine's id "
                        f"floor ({self._id_floor}); ids are never recycled"
                    )
                claimed.add(rid)
                next_id = max(next_id, rid + 1)
                live += 1
            else:
                rid = int(op.record_id)
                # Ids are never recycled, so an id is live at this point iff
                # it was live before the batch or inserted earlier in it, and
                # no earlier op deleted it.
                if rid in deleted or (rid not in self._skyband and rid not in claimed):
                    raise InvalidDatasetError(
                        f"cannot delete record id {rid}: not live at that point in the batch"
                    )
                deleted.add(rid)
                live -= 1
                if not live:
                    raise InvalidDatasetError("cannot delete the last remaining record")

    # ------------------------------------------------------------------ #
    # standing queries (repro.live)
    # ------------------------------------------------------------------ #
    @property
    def live(self) -> "LiveSession":
        """The engine's standing-query session (created lazily)."""
        from ..live.session import LiveSession  # local import: engine <-> live

        with self._lock:
            if self._live is None:
                self._live = LiveSession(self)
            return self._live

    def subscribe(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        *,
        anytime: bool = False,
        **options,
    ) -> "StandingQuery":
        """Register a standing query, maintained under updates.

        Computes the initial answer while holding the engine lock, so
        registration is atomic with respect to updates: every update
        after this call is classified against the returned query, and
        none before it is missed.  Identical registrations share one
        :class:`~repro.live.StandingQuery`.  ``anytime=True`` maintains a
        monotone ``[lower, upper]`` impact bracket through the resumable
        stream path instead of an exact answer.
        """
        with self._lock:
            return self.live._subscribe_locked(focal, k, method, anytime, dict(options))

    def update_affects(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        pairs: "Sequence[tuple[SkybandDelta, bool]]",
        *,
        pruned: bool | None = None,
    ) -> bool:
        """Rules-1–4 verdict: could any update in ``pairs`` change ``(focal, k)``?

        ``pairs`` is the ``(delta, inserted)`` evidence of an applied
        batch (:attr:`~repro.live.AppliedBatch.pairs`).  ``False`` is a
        proof that the answer — and any paused-stream bracket — is
        unchanged; ``True`` is conservative.  ``pruned`` defaults to
        whether this engine would have served the query from its
        k-skyband slice (the cache entries' own flag).
        """
        focal_array = np.asarray(focal, dtype=float)
        with self._lock:
            if pruned is None:
                pruned = self._prunes(k)
            if not pairs:
                return False
            return bool(_BatchDeltas.of(pairs).affects(focal_array, int(k), bool(pruned)))

    def _notify_live(self, pairs: "tuple[tuple[SkybandDelta, bool], ...]") -> None:
        """Fan an applied batch out to the standing queries, outside the lock.

        Called after the engine lock is released so repairs (which run
        full queries) never serialize unrelated engine traffic.
        """
        live = self._live
        if live is not None and pairs:
            live._on_update(pairs)

    def _backing_view(self) -> _BackingView:
        """Row-store view (tombstones included) backing the shared R-tree."""
        values, ids = self._skyband.backing_arrays()
        return _BackingView(values, ids)

    def _finish_update_batch(self, deltas: "_BatchDeltas") -> None:
        """Refresh the snapshot once and reconcile both caches after a batch.

        Every cached answer, paused stream and prepared entry gets one
        rules-1–4 verdict for the whole batch (:meth:`_BatchDeltas.affects`),
        equal to the union of the per-update verdicts.  Each delta carries
        its sequential point-in-time evidence (values and dominator count),
        so the union invalidates exactly what applying the updates one at a
        time would — the coalesced-equals-sequential property the live
        tier's differential suite enforces.
        """
        # Stamp the engine's monotone id allocator onto the snapshot: after a
        # delete of the max-id record the surviving ids alone would re-derive
        # a lower watermark, and a persisted snapshot restored from it could
        # resurrect the dead id.
        self._snapshot = self._skyband.snapshot(self._name, id_high_watermark=self._next_id)
        new_fingerprint = self._snapshot.fingerprint()
        self._update_seq += 1

        entries = [
            *self._result_cache.entries(), *self._partials.entries(), *self._prepared.values()
        ]
        focals = np.array([entry.focal for entry in entries], dtype=float)
        verdicts = deltas.affects(
            focals.reshape(len(entries), self.dimensionality),
            np.array([entry.k for entry in entries], dtype=np.int64),
            np.array([entry.pruned for entry in entries], dtype=bool),
        )
        damaged_ids = {id(entry) for entry, hit in zip(entries, verdicts.tolist()) if hit}

        def damaged(entry) -> bool:
            return id(entry) in damaged_ids

        self._result_cache.apply_update(new_fingerprint, damaged)
        # Paused streams follow the same rules 1-4: an update that provably
        # cannot change an entry's answer cannot change its (pruned)
        # competitor input either, so the suspended computation stays exactly
        # the one a cold re-run would perform and the checkpoint is re-keyed;
        # affected checkpoints are closed and dropped.
        self._partials.apply_update(new_fingerprint, damaged)

        stale = [pkey for pkey, entry in self._prepared.items() if damaged(entry)]
        for pkey in stale:
            evicted = self._prepared.pop(pkey)
            self._drop_hyperplanes_if_unused(evicted)

