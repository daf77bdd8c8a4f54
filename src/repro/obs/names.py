"""The canonical metric-name catalogue: one dotted name per number.

Every metric the stack records — engine counters, per-query statistics,
serving-tier latencies — is declared here, once, before any call site may
use it.  The ``OBS001`` rule of the invariant linter (``tools.analyze``)
statically enforces the contract: a string literal passed to
``registry.counter(...)`` / ``gauge`` / ``histogram`` anywhere in
``repro`` must appear in this catalogue, and dynamic (f-string) names must
extend one of the families declared in :data:`DYNAMIC_METRIC_PREFIXES`.

The catalogue is the *naming* authority only; instruments still live in
:class:`~repro.obs.metrics.MetricsRegistry`, and the historical spellings
keep resolving through :data:`~repro.obs.metrics.LEGACY_ALIASES` (which
maps into this namespace — a consistency test asserts every alias target
is catalogued).

Organisation: serving-tier names are individual constants (call sites
reference them directly); the engine and per-query families are declared
as tuples because their call sites are table-driven (dict literals keyed
by these names feed ``registry.counter(name)`` loops).
"""

from __future__ import annotations

__all__ = [
    # serve.* constants
    "SERVE_TTFA_SECONDS",
    "SERVE_REFINE_SECONDS",
    "SERVE_ANSWERS_TOTAL",
    "SERVE_STREAMS_TOTAL",
    "SERVE_REFINEMENTS_STARTED",
    "SERVE_REFINEMENTS_COMPLETED",
    "SERVE_REFINEMENTS_CANCELLED",
    "SERVE_REFINEMENTS_DEDUPLICATED",
    "SERVE_HONESTY_CHECKED",
    "SERVE_HONESTY_VIOLATIONS",
    "SERVE_DISCONNECTS",
    "SERVE_CONNECTION_RESETS",
    "SERVE_HEAD_TOO_LARGE",
    "SERVE_REQUEST_TIMEOUTS",
    "SERVE_IDLE_CLOSED",
    "SERVE_ACTIVE",
    "SERVE_REJECTED_PREFIX",
    "SERVE_SUBSCRIPTIONS_TOTAL",
    "SERVE_SUBSCRIPTION_DELTAS",
    "SERVE_SUBSCRIPTION_RESUMES",
    "SERVE_UPDATES_TOTAL",
    # query.* constants referenced directly
    "LP_CONSTRAINTS",
    "LP_FALLBACK_CALLS",
    "LP_VERTEX_CERTIFICATES",
    "LP_VERTEX_FALLBACKS",
    "QUERY_REGIONS",
    "QUERY_SECONDS_RESPONSE",
    "QUERY_SECONDS_CPU",
    "QUERY_SECONDS_INDEX_BUILD",
    "QUERY_SECONDS_PHASE_PREFIX",
    # families and the full catalogue
    "ENGINE_METRIC_NAMES",
    "QUERY_METRIC_NAMES",
    "SERVE_METRIC_NAMES",
    "SNAPSHOT_METRIC_NAMES",
    "LIVE_METRIC_NAMES",
    "DYNAMIC_METRIC_PREFIXES",
    "ALL_METRIC_NAMES",
]

# --------------------------------------------------------------------------- #
# serve.* — the asyncio serving tier (PR 7)
# --------------------------------------------------------------------------- #
#: Time-to-first-answer of two-phase requests (histogram, seconds).
SERVE_TTFA_SECONDS = "serve.ttfa.seconds"
#: Background exact-refinement latency (histogram, seconds).
SERVE_REFINE_SECONDS = "serve.refine.seconds"
#: Two-phase answers served (counter).
SERVE_ANSWERS_TOTAL = "serve.answers.total"
#: Anytime streams served (counter).
SERVE_STREAMS_TOTAL = "serve.streams.total"
#: Background refinements launched (counter).
SERVE_REFINEMENTS_STARTED = "serve.refinements.started.total"
#: Background refinements that finished exact (counter).
SERVE_REFINEMENTS_COMPLETED = "serve.refinements.completed.total"
#: Background refinements cancelled by disconnects (counter).
SERVE_REFINEMENTS_CANCELLED = "serve.refinements.cancelled.total"
#: Refinements collapsed onto an in-flight one (counter).
SERVE_REFINEMENTS_DEDUPLICATED = "serve.refinements.deduplicated.total"
#: Refined answers checked against their approx CI (counter).
SERVE_HONESTY_CHECKED = "serve.honesty.checked.total"
#: Exact impacts that fell outside their approx CI (counter).
SERVE_HONESTY_VIOLATIONS = "serve.honesty.violations.total"
#: Requests abandoned before their stream finished (counter).
SERVE_DISCONNECTS = "serve.disconnects.total"
#: Client connections dropped mid-response at the HTTP layer (counter).
SERVE_CONNECTION_RESETS = "serve.connection_resets.total"
#: Requests whose head broke the header-count or size cap, answered 431 (counter).
SERVE_HEAD_TOO_LARGE = "serve.http.head_too_large.total"
#: Started requests whose head or body did not arrive in time, answered 408 (counter).
SERVE_REQUEST_TIMEOUTS = "serve.http.request_timeouts.total"
#: Kept-alive connections closed after idling between requests (counter).
SERVE_IDLE_CLOSED = "serve.http.idle_closed.total"
#: Live admitted requests (gauge).
SERVE_ACTIVE = "serve.active"
#: Dynamic family: one counter per admission rejection reason
#: (``serve.rejected.<reason>.total``).
SERVE_REJECTED_PREFIX = "serve.rejected."
#: Standing SSE subscriptions admitted (counter).
SERVE_SUBSCRIPTIONS_TOTAL = "serve.subscriptions.total"
#: Delta/snapshot events pushed to standing subscribers (counter).
SERVE_SUBSCRIPTION_DELTAS = "serve.subscription.deltas.total"
#: Reconnects that resumed gap-free from an acked version (counter).
SERVE_SUBSCRIPTION_RESUMES = "serve.subscription.resumes.total"
#: Update batches applied through the serving tier (counter).
SERVE_UPDATES_TOTAL = "serve.updates.total"

SERVE_METRIC_NAMES: tuple[str, ...] = (
    SERVE_TTFA_SECONDS,
    SERVE_REFINE_SECONDS,
    SERVE_ANSWERS_TOTAL,
    SERVE_STREAMS_TOTAL,
    SERVE_REFINEMENTS_STARTED,
    SERVE_REFINEMENTS_COMPLETED,
    SERVE_REFINEMENTS_CANCELLED,
    SERVE_REFINEMENTS_DEDUPLICATED,
    SERVE_HONESTY_CHECKED,
    SERVE_HONESTY_VIOLATIONS,
    SERVE_DISCONNECTS,
    SERVE_CONNECTION_RESETS,
    SERVE_HEAD_TOO_LARGE,
    SERVE_REQUEST_TIMEOUTS,
    SERVE_IDLE_CLOSED,
    SERVE_ACTIVE,
    SERVE_SUBSCRIPTIONS_TOTAL,
    SERVE_SUBSCRIPTION_DELTAS,
    SERVE_SUBSCRIPTION_RESUMES,
    SERVE_UPDATES_TOTAL,
)

# --------------------------------------------------------------------------- #
# query.* — per-query statistics (PR 6's canonicalisation of QueryStats)
# --------------------------------------------------------------------------- #
#: Constraint counts of LP feasibility/optimize probes (histogram).
LP_CONSTRAINTS = "query.lp.constraints"
#: LPs solved through stock ``scipy.optimize.linprog`` because scipy lacks
#: the HiGHS binding the reused solver needs (counter).
LP_FALLBACK_CALLS = "query.lp.fallback_calls"
#: CellTree probes settled "empty" from the cell's vertices, each one a
#: feasibility LP not solved (counter).
LP_VERTEX_CERTIFICATES = "query.lp.vertex_certificates"
#: CellTree nodes whose vertices could not be enumerated, so their probes
#: keep the feasibility LP (counter).
LP_VERTEX_FALLBACKS = "query.lp.vertex_fallbacks"
#: Regions in the exact answer (counter).
QUERY_REGIONS = "query.regions"
#: End-to-end response seconds of one query (gauge).
QUERY_SECONDS_RESPONSE = "query.seconds.response"
#: CPU seconds of one query (gauge).
QUERY_SECONDS_CPU = "query.seconds.cpu"
#: Seconds spent building the R-tree index (gauge).
QUERY_SECONDS_INDEX_BUILD = "query.seconds.index_build"
#: Dynamic family: one gauge per recorded phase
#: (``query.seconds.phase.<name>``).
QUERY_SECONDS_PHASE_PREFIX = "query.seconds.phase."

QUERY_METRIC_NAMES: tuple[str, ...] = (
    LP_CONSTRAINTS,
    LP_FALLBACK_CALLS,
    LP_VERTEX_CERTIFICATES,
    LP_VERTEX_FALLBACKS,
    QUERY_REGIONS,
    QUERY_SECONDS_RESPONSE,
    QUERY_SECONDS_CPU,
    "query.seconds.io",
    QUERY_SECONDS_INDEX_BUILD,
    "query.processed_records",
    "query.competitor_records",
    "query.dominator_records",
    "query.celltree.nodes",
    "query.celltree.pruned_by_bounds",
    "query.celltree.reported_early",
    "query.batches",
    "query.lp.feasibility_calls",
    "query.lp.optimize_calls",
    "query.lp.total_constraints",
    "query.index.node_accesses",
    "query.space_bytes",
)

# --------------------------------------------------------------------------- #
# engine.* — the amortized serving engine (PR 1, canonicalised in PR 6)
# --------------------------------------------------------------------------- #
ENGINE_METRIC_NAMES: tuple[str, ...] = (
    "engine.queries",
    "engine.queries.cold",
    "engine.prepared.builds",
    "engine.prepared.reuses",
    "engine.prepared.entries",
    "engine.prepared.capacity",
    "engine.updates.inserts",
    "engine.updates.deletes",
    "engine.result_cache.hits",
    "engine.result_cache.misses",
    "engine.result_cache.insertions",
    "engine.result_cache.evictions",
    "engine.result_cache.invalidated",
    "engine.result_cache.retained",
    "engine.result_cache.adopted",
    "engine.result_cache.rekeyed",
    "engine.result_cache.entries",
    "engine.result_cache.capacity",
    "engine.stream.queries",
    "engine.stream.resumes",
    "engine.partial_store.saved",
    "engine.partial_store.resumes",
    "engine.partial_store.evictions",
    "engine.partial_store.invalidated",
    "engine.partial_store.entries",
    "engine.partial_store.capacity",
    "engine.seconds.cold",
    "engine.seconds.prepare",
    "engine.dataset.cardinality",
)

# --------------------------------------------------------------------------- #
# snapshot.* — the persistence tier (repro.snapshot, PR 9)
# --------------------------------------------------------------------------- #
SNAPSHOT_METRIC_NAMES: tuple[str, ...] = (
    "snapshot.commits",
    "snapshot.commits.deduped",
    "snapshot.checkouts",
    "snapshot.verify.failures",
    "snapshot.diffs",
    "snapshot.cache.saves",
    "snapshot.cache.loads",
    "snapshot.restore.engines",
    "snapshot.restore.replayed_updates",
    "snapshot.restore.fallbacks",
    "snapshot.store.snapshots",
    "snapshot.store.bytes",
)

# --------------------------------------------------------------------------- #
# live.* — standing queries under update streams (repro.live, PR 10)
# --------------------------------------------------------------------------- #
LIVE_METRIC_NAMES: tuple[str, ...] = (
    "live.standing.queries",
    "live.updates.total",
    "live.batches.total",
    "live.batch.updates",
    "live.repairs.total",
    "live.carried_forward.total",
    "live.refines.total",
    "live.deltas.total",
    "live.repair.seconds",
    "live.listener.errors.total",
)

# --------------------------------------------------------------------------- #
# the catalogue
# --------------------------------------------------------------------------- #
#: Declared dynamic families: an f-string metric name is legal iff its
#: static prefix extends one of these.
DYNAMIC_METRIC_PREFIXES: tuple[str, ...] = (
    SERVE_REJECTED_PREFIX,
    QUERY_SECONDS_PHASE_PREFIX,
)

#: Every canonical metric name (the OBS001 membership set).
ALL_METRIC_NAMES: frozenset[str] = (
    frozenset(SERVE_METRIC_NAMES)
    | frozenset(QUERY_METRIC_NAMES)
    | frozenset(ENGINE_METRIC_NAMES)
    | frozenset(SNAPSHOT_METRIC_NAMES)
    | frozenset(LIVE_METRIC_NAMES)
)
