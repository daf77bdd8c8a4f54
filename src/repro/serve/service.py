"""The asyncio serving core: estimate-then-refine over a blocking Engine.

:class:`KSPRService` is the transport-independent heart of ``repro.serve``.
It owns a small thread pool that runs the (synchronous, thread-safe)
:class:`~repro.engine.Engine` off the event loop, and exposes two async
entry points:

* :meth:`KSPRService.answer` — the **two-phase** path.  Phase one computes a
  sampled :class:`~repro.approx.ApproxKSPRResult` (milliseconds) and returns
  immediately; phase two refines to the exact answer in the background and
  resolves :meth:`TwoPhaseAnswer.refined`.  Identical concurrent refinements
  collapse onto one engine execution (**single-flight**, keyed on
  :meth:`~repro.engine.Engine.canonical_key`), and a refinement nobody is
  waiting for any more — every client disconnected — is cancelled
  cooperatively, leaving a resumable engine checkpoint instead of burning
  the pool.  A phase whose answer the engine already caches is served on the
  event loop by a lookup that never computes or waits on the engine lock
  (``Engine.query(..., cached_only=True)``); only a miss or a contended lock
  hops to the pool, and an exact hit starts no refinement at all.
* :meth:`KSPRService.stream` — the anytime path: bridges the engine's
  blocking :meth:`~repro.engine.Engine.query_stream` generator into an async
  iterator of ``(event, payload)`` pairs, propagating the request deadline
  into the stream budget and checkpointing on client disconnect.

Every request is gated by an :class:`~repro.serve.AdmissionController`
checkout, traced with a ``serve.*`` span, and measured into the service's
:class:`~repro.obs.MetricsRegistry` (time-to-first-answer, refinement
latency, admission verdicts, two-phase honesty).

**Honesty accounting.**  For every served approximate answer whose contract
held (``approx.meets()``), the service checks on refinement completion (or
at once, for a cached exact answer) that the exact impact lies inside the
approximate confidence interval (``approx.covers(exact)``) and counts
``serve.honesty.checked`` / ``serve.honesty.violations``.  Coverage is a
*statistical* guarantee — a
``(1 - delta)`` interval may miss with probability up to ``delta`` per
unique query, and a skewed replay repeats that deterministic miss for every
hit on the same key — so the load benchmark bounds the violation rate
across unique queries at ``delta`` plus a three-sigma binomial allowance
rather than asserting zero.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Iterator

from ..approx.estimator import ApproxSpec
from ..approx.result import ApproxKSPRResult
from ..core.result import KSPRResult, PartialKSPRResult
from ..exceptions import SnapshotError
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from ..obs.names import (
    SERVE_ACTIVE,
    SERVE_ANSWERS_TOTAL,
    SERVE_DISCONNECTS,
    SERVE_HONESTY_CHECKED,
    SERVE_HONESTY_VIOLATIONS,
    SERVE_REFINE_SECONDS,
    SERVE_REFINEMENTS_CANCELLED,
    SERVE_REFINEMENTS_COMPLETED,
    SERVE_REFINEMENTS_DEDUPLICATED,
    SERVE_REFINEMENTS_STARTED,
    SERVE_REJECTED_PREFIX,
    SERVE_STREAMS_TOTAL,
    SERVE_SUBSCRIPTION_DELTAS,
    SERVE_SUBSCRIPTION_RESUMES,
    SERVE_SUBSCRIPTIONS_TOTAL,
    SERVE_TTFA_SECONDS,
    SERVE_UPDATES_TOTAL,
)
from ..obs.trace import NULL_TRACER
from .admission import AdmissionController, Checkout
from .protocol import (
    ServeRequest,
    applied_payload,
    delta_payload,
    exact_payload,
    partial_payload,
    paused_payload,
)

__all__ = [
    "ServeConfig",
    "TwoPhaseAnswer",
    "KSPRService",
]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`KSPRService` deployment.

    Parameters
    ----------
    approx:
        Default accuracy contract of phase-one estimates (requests may
        override it per-call).
    refine_method:
        Exact method used for refinements and streams when the request does
        not name one (``None`` = the engine default).
    max_concurrent:
        Admission cap on simultaneously-live requests.
    tenant_burst / tenant_rate:
        Default per-tenant token-bucket capacity and refill (tokens/s).
    tenant_overrides:
        ``{tenant: (burst, rate)}`` budget overrides.
    worker_threads:
        Size of the thread pool bridging the event loop to the blocking
        engine.
    clock:
        Monotonic time source shared by admission, deadlines and latency
        metrics (injectable for deterministic tests).
    """

    approx: ApproxSpec = field(default_factory=lambda: ApproxSpec(epsilon=0.05, delta=0.05))
    refine_method: str | None = None
    max_concurrent: int = 64
    tenant_burst: float = 64.0
    tenant_rate: float = 32.0
    tenant_overrides: dict[str, tuple[float, float]] | None = None
    worker_threads: int = 4
    clock: Callable[[], float] = time.perf_counter


class _RefinementHandle:
    """One in-flight background refinement, shared by all its waiters.

    The single-flight table maps a canonical engine key to at most one live
    handle.  ``waiters`` counts the answers attached to it; when the last
    waiter detaches before completion the cooperative ``cancel`` event is
    set, the engine stream stops at its next work-unit boundary, and the
    engine's own checkpoint logic preserves the partial progress.
    """

    __slots__ = ("key", "cancel", "future", "waiters", "lock", "started_at")

    def __init__(self, key: tuple, started_at: float) -> None:
        self.key = key
        self.cancel = threading.Event()
        #: Resolves to the exact :class:`KSPRResult`, or ``None`` if the
        #: refinement was cancelled before finishing.
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.waiters = 0
        self.lock = threading.Lock()
        self.started_at = started_at

    def attach(self) -> None:
        """Register one more waiter."""
        with self.lock:
            self.waiters += 1

    def detach(self) -> None:
        """Unregister a waiter; the last one out requests cancellation."""
        with self.lock:
            self.waiters -= 1
            last = self.waiters <= 0
        if last and not self.future.done():
            self.cancel.set()

    def waiter(self) -> concurrent.futures.Future:
        """A per-caller future mirroring :attr:`future`.

        Awaiting the shared future directly through
        :func:`asyncio.wrap_future` is unsafe — cancelling one waiter's task
        would cancel the shared future under every other waiter.  The mirror
        absorbs per-waiter cancellation.
        """
        mirror: concurrent.futures.Future = concurrent.futures.Future()

        def _propagate(done: concurrent.futures.Future) -> None:
            if mirror.cancelled():
                return
            try:
                error = done.exception()
                if error is not None:
                    mirror.set_exception(error)
                else:
                    mirror.set_result(done.result())
            # analyze: ignore[EXC001] -- benign race: mirror settled/cancelled by its waiter
            except (concurrent.futures.InvalidStateError, concurrent.futures.CancelledError):
                pass

        self.future.add_done_callback(_propagate)
        return mirror


class TwoPhaseAnswer:
    """The result of :meth:`KSPRService.answer`: approx now, exact later.

    ``approx`` and ``ttfa`` (time-to-first-answer, seconds) are available
    immediately; :meth:`refined` awaits the background exact phase.  When the
    exact answer was already cached, ``exact`` carries it and no refinement
    runs.  The answer must be closed when the client goes away —
    :meth:`close` detaches from the shared refinement (cancelling it if this
    was the last waiter) and releases the admission checkout, so a
    disconnect never leaks capacity.  Usable as an async context manager.
    """

    def __init__(
        self,
        service: "KSPRService",
        request: ServeRequest,
        approx: ApproxKSPRResult,
        ttfa: float,
        checkout: Checkout,
        handle: _RefinementHandle | None,
        exact: KSPRResult | None = None,
    ) -> None:
        self.request = request
        self.approx = approx
        self.ttfa = ttfa
        #: The exact answer when it was a cache hit at answer time, else None.
        self.exact = exact
        self._service = service
        self._checkout = checkout
        self._handle = handle
        self._closed = False

    @property
    def will_refine(self) -> bool:
        """Whether an exact phase follows: a cached answer or a refinement."""
        return self.exact is not None or self._handle is not None

    async def refined(self) -> KSPRResult | None:
        """Await the exact refinement (``None`` if it was cancelled)."""
        if self._handle is None:
            return self.exact
        return await asyncio.wrap_future(self._handle.waiter())

    def close(self) -> None:
        """Detach from the refinement and release capacity (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.detach()
        self._checkout.release()

    async def __aenter__(self) -> "TwoPhaseAnswer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self.close()


def _next_or_none(iterator: Iterator[PartialKSPRResult]) -> PartialKSPRResult | None:
    """``next`` with a ``None`` sentinel (picklable across the pool bridge)."""
    return next(iterator, None)


class KSPRService:
    """Asyncio serving facade over one :class:`~repro.engine.Engine`.

    Parameters
    ----------
    engine:
        The (thread-safe) engine answering queries.
    config:
        Deployment tunables; defaults to :class:`ServeConfig()`.
    admission:
        Externally-built controller (one is constructed from ``config``
        when omitted).
    registry:
        Metrics sink; a private :class:`~repro.obs.MetricsRegistry` is
        created when omitted.
    tracer:
        Span sink for request-path tracing (no-op by default).
    """

    def __init__(
        self,
        engine,
        config: ServeConfig | None = None,
        *,
        admission: AdmissionController | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        snapshot_store=None,
    ) -> None:
        self.engine = engine
        #: Optional :class:`~repro.snapshot.SnapshotStore`.  When configured,
        #: :meth:`commit_snapshot` persists the engine's state on demand and
        #: :meth:`close` commits once more on shutdown, so the next process
        #: can restore a warm engine with ``Engine.from_snapshot``.
        self.snapshot_store = snapshot_store
        self.config = config or ServeConfig()
        self.clock = self.config.clock
        self.admission = admission or AdmissionController(
            max_concurrent=self.config.max_concurrent,
            tenant_burst=self.config.tenant_burst,
            tenant_rate=self.config.tenant_rate,
            tenant_overrides=self.config.tenant_overrides,
            clock=self.clock,
        )
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.worker_threads, thread_name_prefix="repro-serve"
        )
        self._flight_lock = threading.Lock()
        self._refinements: dict[tuple, _RefinementHandle] = {}
        self._finalizers: list[concurrent.futures.Future] = []
        self._closed = False

        registry = self.registry
        self._m_ttfa = registry.histogram(
            SERVE_TTFA_SECONDS, "time-to-first-answer of two-phase requests",
            bounds=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_refine = registry.histogram(
            SERVE_REFINE_SECONDS, "background exact refinement latency",
            bounds=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_answers = registry.counter(SERVE_ANSWERS_TOTAL, "two-phase answers served")
        self._m_streams = registry.counter(SERVE_STREAMS_TOTAL, "anytime streams served")
        self._m_refine_started = registry.counter(
            SERVE_REFINEMENTS_STARTED, "background refinements launched"
        )
        self._m_refine_done = registry.counter(
            SERVE_REFINEMENTS_COMPLETED, "background refinements finished exact"
        )
        self._m_refine_cancelled = registry.counter(
            SERVE_REFINEMENTS_CANCELLED, "background refinements cancelled by disconnects"
        )
        self._m_refine_dedup = registry.counter(
            SERVE_REFINEMENTS_DEDUPLICATED, "refinements collapsed onto an in-flight one"
        )
        self._m_honesty_checked = registry.counter(
            SERVE_HONESTY_CHECKED, "refined answers checked against their approx CI"
        )
        self._m_honesty_violations = registry.counter(
            SERVE_HONESTY_VIOLATIONS, "exact impacts outside their approx CI"
        )
        self._m_disconnects = registry.counter(
            SERVE_DISCONNECTS, "requests abandoned before their stream finished"
        )
        self._m_subscriptions = registry.counter(
            SERVE_SUBSCRIPTIONS_TOTAL, "standing subscriptions opened"
        )
        self._m_sub_deltas = registry.counter(
            SERVE_SUBSCRIPTION_DELTAS, "delta events delivered to subscribers"
        )
        self._m_sub_resumes = registry.counter(
            SERVE_SUBSCRIPTION_RESUMES, "gap-free subscription resumes"
        )
        self._m_updates = registry.counter(
            SERVE_UPDATES_TOTAL, "update batches applied through the serving tier"
        )
        self._g_active = registry.gauge(SERVE_ACTIVE, "live admitted requests")

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _admit(self, request: ServeRequest) -> Checkout:
        """Admission gate shared by both entry points (counts rejections)."""
        from .admission import AdmissionError

        try:
            checkout = self.admission.admit(
                request.tenant, cost=request.cost, deadline_at=request.deadline_at
            )
        except AdmissionError as error:
            self.registry.counter(
                f"{SERVE_REJECTED_PREFIX}{error.reason}.total",
                "requests rejected at admission",
            ).inc()
            raise
        self._g_active.set(self.admission.active)
        return checkout

    async def _run_blocking(self, fn, *args, **kwargs):
        """Run a blocking engine call on the pool and await its result."""
        return await asyncio.wrap_future(self._pool.submit(fn, *args, **kwargs))

    async def commit_snapshot(self) -> str:
        """Persist the engine's state — and its warm caches — right now.

        Runs :meth:`Engine.commit <repro.engine.Engine.commit>` against the
        configured snapshot store on the worker pool (the event loop never
        blocks on disk I/O) and returns the snapshot id.  Raises
        :class:`~repro.exceptions.SnapshotError` when the service was built
        without ``snapshot_store=``.
        """
        if self.snapshot_store is None:
            raise SnapshotError(
                "this service was configured without a snapshot store; pass "
                "snapshot_store= to KSPRService to enable commits"
            )
        return await self._run_blocking(self.engine.commit, self.snapshot_store)

    def _note_honesty(self, approx: ApproxKSPRResult, done: concurrent.futures.Future) -> None:
        """Score one served approx answer against its arrived refinement."""
        if done.cancelled() or done.exception() is not None:
            return
        exact = done.result()
        if exact is not None:
            self._score_honesty(approx, exact)

    def _score_honesty(self, approx: ApproxKSPRResult, exact: KSPRResult) -> None:
        """Count one honesty check when ``approx.meets()``, and a violation when
        its interval misses the exact impact (one interval computed for both)."""
        lower, upper = approx.confidence_interval()
        if (upper - lower) / 2.0 > approx.epsilon:
            return
        self._m_honesty_checked.inc()
        if not lower <= exact.impact_probability() <= upper:
            self._m_honesty_violations.inc()

    # ------------------------------------------------------------------ #
    # two-phase answers
    # ------------------------------------------------------------------ #
    async def answer(self, request: ServeRequest) -> TwoPhaseAnswer:
        """Serve ``request`` in two phases: sampled estimate now, exact later.

        Admits the request (raising
        :class:`~repro.serve.AdmissionError` when shed) and takes the
        approximate phase from the engine's cache on the event loop, or
        computes it on the pool on a miss.  Then — unless ``request.refine``
        is false — it peeks the cache for the exact answer the same way: a
        hit rides on the answer (:attr:`TwoPhaseAnswer.exact`) and is scored
        for honesty at once; a miss attaches to the single-flight background
        refinement for the request's canonical key.  Returns as soon as the
        estimate exists.
        """
        span = self.tracer.span(
            "serve.answer", tenant=request.tenant or "(anonymous)", k=int(request.k)
        )
        checkout = self._admit(request)
        started = self.clock()
        spec = request.approx or self.config.approx
        focal, k = request.focal, int(request.k)
        try:
            approx = self.engine.query(focal, k, approx=spec, cached_only=True)
            if approx is None:
                approx = await self._run_blocking(self.engine.query, focal, k, approx=spec)
        except BaseException:
            checkout.release()
            self._g_active.set(self.admission.active)
            span.set(outcome="error")
            span.finish()
            raise
        ttfa = self.clock() - started
        self._m_ttfa.observe(ttfa)
        self._m_answers.inc()

        exact: KSPRResult | None = None
        handle: _RefinementHandle | None = None
        if request.refine:
            method = request.method or self.config.refine_method
            exact = self.engine.query(focal, k, method=method, cached_only=True)
            if exact is not None:
                self._score_honesty(approx, exact)
            else:
                handle = self._acquire_refinement(request, method)
                handle.future.add_done_callback(
                    lambda done, approx=approx: self._note_honesty(approx, done)
                )
        span.set(outcome="answered", refine=bool(handle is not None))
        span.note(ttfa_seconds=ttfa)
        span.finish()

        answer = TwoPhaseAnswer(self, request, approx, ttfa, checkout, handle, exact)
        if handle is not None:
            # The checkout must outlive the background phase; release it when
            # the shared refinement settles (idempotent with answer.close()).
            handle.future.add_done_callback(lambda _done: self._on_settled(checkout))
        return answer

    def _on_settled(self, checkout: Checkout) -> None:
        checkout.release()
        self._g_active.set(self.admission.active)

    def _acquire_refinement(self, request: ServeRequest, method: str | None) -> _RefinementHandle:
        """Join the in-flight refinement for this key, or launch one."""
        key = self.engine.canonical_key(request.focal, int(request.k), method=method)
        with self._flight_lock:
            handle = self._refinements.get(key)
            if handle is not None and not handle.future.done() and not handle.cancel.is_set():
                handle.attach()
                self._m_refine_dedup.inc()
                return handle
            handle = _RefinementHandle(key, self.clock())
            handle.attach()
            self._refinements[key] = handle
            self._m_refine_started.inc()
            self._pool.submit(self._refine, handle, request, method)
            return handle

    def _refine(self, handle: _RefinementHandle, request: ServeRequest, method: str | None) -> None:
        """Pool-thread body of one background refinement (exact phase)."""
        span = self.tracer.span("serve.refine", k=int(request.k))
        final: PartialKSPRResult | None = None
        try:
            # capture=False: refinement needs the exact terminal result, not
            # per-batch brackets — and a cancelled drain then checkpoints
            # cheaply inside the engine for a later resume.
            for partial in self.engine.query_stream(
                request.focal, int(request.k), method=method,
                cancel=handle.cancel, capture=False,
            ):
                final = partial
        except BaseException as error:
            span.set(outcome="error")
            span.finish()
            if not handle.future.done():
                handle.future.set_exception(error)
            self._forget(handle)
            return
        elapsed = self.clock() - handle.started_at
        if final is not None and final.done:
            self._m_refine.observe(elapsed)
            self._m_refine_done.inc()
            span.set(outcome="exact")
            if not handle.future.done():
                handle.future.set_result(final.to_result())
        else:
            self._m_refine_cancelled.inc()
            span.set(outcome="cancelled")
            if not handle.future.done():
                handle.future.set_result(None)
        span.note(refine_seconds=elapsed)
        span.finish()
        self._forget(handle)

    def _forget(self, handle: _RefinementHandle) -> None:
        with self._flight_lock:
            if self._refinements.get(handle.key) is handle:
                del self._refinements[handle.key]

    # ------------------------------------------------------------------ #
    # anytime streaming
    # ------------------------------------------------------------------ #
    async def stream(self, request: ServeRequest) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """Serve ``request`` as an async stream of ``(event, payload)`` pairs.

        Yields ``("partial", ...)`` for every anytime snapshot (brackets
        tightening monotonically), then exactly one terminal event: either
        ``("exact", ...)`` when the stream finished, or ``("paused", ...)``
        when its deadline/batch budget truncated it (the engine keeps a
        resumable checkpoint).  The request deadline propagates into the
        engine's stream budget, so compute stops at the same instant the
        contract expires.

        Closing the iterator early (client disconnect) cancels the engine
        stream cooperatively, checkpoints its progress, and releases the
        admission checkout — asynchronously; await :meth:`quiesce` to block
        until such cleanups finish.
        """
        span = self.tracer.span(
            "serve.stream", tenant=request.tenant or "(anonymous)", k=int(request.k)
        )
        checkout = self._admit(request)
        self._m_streams.inc()
        cancel = threading.Event()
        method = request.method or self.config.refine_method
        try:
            # query_stream() validates and takes the engine lock eagerly,
            # before returning its generator — keep that off the event loop.
            iterator = await self._run_blocking(
                self.engine.query_stream,
                request.focal, int(request.k), method=method,
                deadline_at=request.deadline_at,
                max_batches=request.max_batches,
                cancel=cancel, capture=True,
            )
        except BaseException:
            checkout.release()
            self._g_active.set(self.admission.active)
            span.set(outcome="error")
            span.finish()
            raise
        seq = 0
        last: PartialKSPRResult | None = None
        pending: concurrent.futures.Future | None = None
        completed = False
        try:
            while True:
                pending = self._pool.submit(_next_or_none, iterator)
                item = await asyncio.wrap_future(pending)
                pending = None
                if item is None:
                    break
                last = item
                if item.done:
                    yield "exact", exact_payload(item.to_result())
                else:
                    yield "partial", partial_payload(item, seq)
                seq += 1
            if last is None or not last.done:
                yield "paused", paused_payload(last, seq)
            completed = True
        finally:
            cancel.set()
            if not completed:
                self._m_disconnects.inc()
            span.set(outcome="complete" if completed else "disconnected")
            span.note(events=seq)
            span.finish()
            # Cleanup must not run inside the (possibly cancelled) consumer
            # task: hand it to the pool, track it for quiesce().
            finalizer = self._pool.submit(self._finalize_stream, iterator, pending, checkout)
            with self._flight_lock:
                self._finalizers.append(finalizer)

    def _finalize_stream(
        self,
        iterator: Iterator[PartialKSPRResult],
        pending: concurrent.futures.Future | None,
        checkout: Checkout,
    ) -> None:
        """Pool-thread teardown of one stream: drain, checkpoint, release."""
        try:
            if pending is not None:
                # A next() may still be executing the generator frame; wait it
                # out (the cancel event bounds it to one work unit) so close()
                # below never races a running frame.
                concurrent.futures.wait([pending])
            # Closing the suspended generator raises GeneratorExit inside the
            # engine's finally block, which checkpoints unfinished progress.
            iterator.close()
        finally:
            checkout.release()
            self._g_active.set(self.admission.active)

    # ------------------------------------------------------------------ #
    # standing subscriptions & updates
    # ------------------------------------------------------------------ #
    async def subscribe(self, request: ServeRequest) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """Serve ``request`` as a standing subscription: an async stream of
        ``(event, payload)`` pairs that never ends on its own.

        Registers (or joins) the engine-side :class:`~repro.live.StandingQuery`
        for the request's canonical key, then yields its catch-up events
        followed by every live :class:`~repro.live.DeltaEvent` the repair
        pipeline emits — in strict ``version`` order, with a per-connection
        ``seq``.  ``request.resume_from`` replays gap-free from the last
        acked version when the bounded event log still covers it, and falls
        back to a single fresh ``snapshot`` event otherwise (never a gap,
        never a duplicate).

        Closing the iterator (client disconnect) detaches the listener and
        releases the admission checkout immediately; the standing query
        itself stays registered so a reconnect can resume it.
        """
        span = self.tracer.span(
            "serve.subscribe", tenant=request.tenant or "(anonymous)", k=int(request.k)
        )
        checkout = self._admit(request)
        self._m_subscriptions.inc()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def listener(event) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, event)

        method = request.method or self.config.refine_method

        def _register():
            # subscribe() may cold-compute the initial answer (blocking);
            # attach() is atomic with it from this thread's point of view —
            # the returned catch-up plus the queued live events form one
            # gap-free version-ordered sequence.
            standing = self.engine.subscribe(
                request.focal, int(request.k), method, anytime=request.anytime
            )
            return standing, standing.attach(listener, resume_from=request.resume_from)

        try:
            standing, catch_up = await self._run_blocking(_register)
        except BaseException:
            checkout.release()
            self._g_active.set(self.admission.active)
            span.set(outcome="error")
            span.finish()
            raise
        if request.resume_from is not None:
            resumed = not catch_up or catch_up[0].version == int(request.resume_from) + 1
            if resumed:
                self._m_sub_resumes.inc()
        seq = 0
        try:
            for event in catch_up:
                payload = delta_payload(event, seq)
                self._m_sub_deltas.inc()
                seq += 1
                yield payload["phase"], payload
            while True:
                event = await queue.get()
                payload = delta_payload(event, seq)
                self._m_sub_deltas.inc()
                seq += 1
                yield payload["phase"], payload
        finally:
            # Unlike stream teardown this never blocks (no generator frame
            # to close): detach + release are lock-bounded and instant.
            standing.detach(listener)
            checkout.release()
            self._g_active.set(self.admission.active)
            span.set(outcome="disconnected")
            span.note(events=seq)
            span.finish()

    async def apply_updates(self, updates) -> dict[str, Any]:
        """Apply one update batch through the engine, off the event loop.

        ``updates`` is an :class:`~repro.live.UpdateBatch` or a sequence of
        :class:`~repro.live.UpdateOp` (e.g. from
        :func:`~repro.serve.protocol.parse_update_batch`).  The batch is
        atomic — every standing subscriber observes either the pre-batch or
        the post-batch dataset, and their repairs have already run by the
        time this returns.  Returns the ``applied`` response payload.
        """
        span = self.tracer.span("serve.update")
        try:
            applied = await self._run_blocking(self.engine.apply_updates, updates)
        except BaseException:
            span.set(outcome="error")
            span.finish()
            raise
        self._m_updates.inc()
        span.set(outcome="applied", updates=len(applied))
        span.finish()
        return applied_payload(applied)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def pending_refinements(self) -> int:
        """Number of in-flight background refinements (test/ops probe)."""
        with self._flight_lock:
            return len(self._refinements)

    async def quiesce(self, timeout: float = 10.0) -> bool:
        """Wait for background refinements and stream cleanups to settle.

        Returns ``True`` when everything settled within ``timeout`` seconds.
        Tests use this to make disconnect cleanup deterministic before
        asserting "no orphaned checkout".
        """
        deadline = self.clock() + timeout
        while True:
            with self._flight_lock:
                self._finalizers = [f for f in self._finalizers if not f.done()]
                busy = bool(self._finalizers) or bool(self._refinements)
            if not busy:
                return True
            if self.clock() >= deadline:
                return False
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        """Cancel in-flight refinements, drain cleanups, stop the pool."""
        if self._closed:
            return
        self._closed = True
        with self._flight_lock:
            handles = list(self._refinements.values())
        for handle in handles:
            handle.cancel.set()
        await self.quiesce()
        if self.snapshot_store is not None:
            # Durable shutdown: persist the final dataset state plus every
            # warm result entry and resumable stream checkpoint, so the next
            # process picks up with ``Engine.from_snapshot`` where this one
            # left off.
            await self._run_blocking(self.engine.commit, self.snapshot_store)
        self._pool.shutdown(wait=True)
