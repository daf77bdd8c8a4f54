"""The standing-query driver: registration, coalescing, metrics, re-arm.

A :class:`LiveSession` owns the standing queries registered against one
engine.  It coalesces bursty update streams into atomic batches
(:meth:`push_insert` / :meth:`push_delete` buffer, :meth:`flush` lands
one :class:`~repro.live.UpdateBatch` as a single snapshot swap), fans
each applied batch out to every standing query for rules-1–4
classification and repair, records the canonical ``live.*`` metrics, and
persists/re-arms registrations across process restarts through the
snapshot store (:meth:`commit` / :meth:`from_snapshot`).

Coalescing is lossless: applying a burst as one batch invalidates
exactly what applying the updates one at a time would (each update's
skyband delta is captured at its sequential point-in-time inside the
batch), so the coalesced final answers are byte-identical to the
sequential ones — a property the hypothesis suite pins down.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.trace import current_tracer
from .standing import StandingQuery
from .updates import AppliedBatch, UpdateBatch, UpdateOp

if TYPE_CHECKING:  # import cycle: engine <-> live
    from ..engine.engine import Engine
    from ..snapshot.store import SnapshotStore

__all__ = ["LiveSession"]


class LiveSession:
    """Coalescing driver for the standing queries of one engine.

    Obtained from :attr:`repro.engine.Engine.live` (one session per
    engine, created lazily); direct construction is equivalent but a
    second session on the same engine would not see its updates, so
    prefer the engine property.
    """

    def __init__(
        self,
        engine: "Engine",
        *,
        max_pending: int = 64,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.engine = engine
        self._max_pending = int(max_pending)
        self._lock = threading.Lock()  # guards registry + pending buffer
        self._queries: dict[tuple, StandingQuery] = {}
        self._pending: list[UpdateOp] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        self._g_standing = self.registry.gauge("live.standing.queries")
        self._m_updates = self.registry.counter("live.updates.total")
        self._m_batches = self.registry.counter("live.batches.total")
        self._h_batch = self.registry.histogram("live.batch.updates")
        self._m_repairs = self.registry.counter("live.repairs.total")
        self._m_carried = self.registry.counter("live.carried_forward.total")
        self._m_refines = self.registry.counter("live.refines.total")
        self._m_deltas = self.registry.counter("live.deltas.total")
        self._h_repair = self.registry.histogram("live.repair.seconds")
        self._m_listener_errors = self.registry.counter("live.listener.errors.total")

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None = None,
        *,
        anytime: bool = False,
        **options: Any,
    ) -> StandingQuery:
        """Register a standing query (or return the identical existing one).

        Computes the initial answer atomically with registration (no
        update can slip between them), so the returned query is
        consistent with the engine state it was armed under.  Identical
        registrations — same focal, ``k``, method, options and mode —
        share one :class:`StandingQuery`.
        """
        return self.engine.subscribe(focal, k, method, anytime=anytime, **options)

    def _subscribe_locked(
        self,
        focal: np.ndarray | Sequence[float],
        k: int,
        method: str | None,
        anytime: bool,
        options: dict,
    ) -> StandingQuery:
        """Create-or-reuse under the engine lock (called by Engine.subscribe)."""
        plan = self.engine._plan(focal, k, method, options, validate=False)
        key = plan.identity + (bool(anytime),)
        with self._lock:
            existing = self._queries.get(key)
        if existing is not None:
            return existing
        standing = StandingQuery(
            self, np.asarray(focal, dtype=float), int(k),
            method=method, anytime=anytime, options=options,
        )
        with self._lock:
            registered = self._queries.setdefault(standing.key, standing)
            self._g_standing.set(len(self._queries))
        return registered

    def _unregister(self, standing: StandingQuery) -> None:
        """Drop a closed standing query from the registry."""
        with self._lock:
            if self._queries.get(standing.key) is standing:
                del self._queries[standing.key]
            self._g_standing.set(len(self._queries))

    def standing(self) -> list[StandingQuery]:
        """The currently registered standing queries."""
        with self._lock:
            return list(self._queries.values())

    def registrations(self) -> list[dict[str, Any]]:
        """Re-armable registration records of every standing query."""
        return [standing.registration() for standing in self.standing()]

    # ------------------------------------------------------------------ #
    # update intake
    # ------------------------------------------------------------------ #
    def push_insert(
        self, values: np.ndarray | Sequence[float], record_id: int | None = None
    ) -> None:
        """Buffer one insert; auto-flushes when the buffer hits ``max_pending``."""
        self._push(UpdateOp.insert(values, record_id))

    def push_delete(self, record_id: int) -> None:
        """Buffer one delete; auto-flushes when the buffer hits ``max_pending``."""
        self._push(UpdateOp.delete(record_id))

    def _push(self, op: UpdateOp) -> None:
        with self._lock:
            self._pending.append(op)
            full = len(self._pending) >= self._max_pending
        if full:
            self.flush()

    @property
    def pending(self) -> int:
        """Number of buffered (not yet applied) updates."""
        with self._lock:
            return len(self._pending)

    def flush(self) -> AppliedBatch | None:
        """Apply every buffered update as one atomic batch.

        Returns the :class:`~repro.live.AppliedBatch`, or ``None`` when
        the buffer was empty.  All registered standing queries are
        classified and repaired before this returns.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        if not pending:
            return None
        return self.engine.apply_updates(pending)

    def apply(self, updates: "UpdateBatch | Iterable[UpdateOp]") -> AppliedBatch:
        """Apply a batch immediately (flushing any buffered updates first)."""
        self.flush()
        return self.engine.apply_updates(updates)

    def refine(self, max_batches: int | None = None) -> int:
        """Advance every unfinished anytime query's bracket; count events."""
        emitted = 0
        for standing in self.standing():
            if standing.refine(max_batches=max_batches) is not None:
                emitted += 1
        return emitted

    # ------------------------------------------------------------------ #
    # fan-out (called by the engine after its lock is released)
    # ------------------------------------------------------------------ #
    def _on_update(self, pairs: tuple) -> None:
        """Classify one applied batch against every standing query."""
        queries = self.standing()
        self._m_updates.inc(len(pairs))
        self._m_batches.inc()
        self._h_batch.observe(float(len(pairs)))
        tracer = current_tracer()
        with tracer.span("live.apply", updates=len(pairs)) as span:
            repaired = 0
            for standing in queries:
                if standing.apply(pairs) is not None:
                    repaired += 1
            span.set(queries=len(queries), repaired=repaired)

    def _record_repair(self, standing: StandingQuery, kind: str, seconds: float) -> None:
        """Metric hook: one recompute finished (initial arm or repair)."""
        if kind == "repair":
            self._m_repairs.inc()
        self._h_repair.observe(seconds)
        tracer = current_tracer()
        with tracer.span("live.repair", kind=kind, k=standing.k) as span:
            span.set(version=standing.version, anytime=standing.anytime)
            span.note(seconds=seconds)

    def _record_carry(self, standing: StandingQuery) -> None:
        """Metric hook: a batch was provably unaffecting for one query."""
        self._m_carried.inc()

    def _record_refine(self, standing: StandingQuery) -> None:
        """Metric hook: an anytime bracket advanced without a dataset change."""
        self._m_refines.inc()

    def _record_delta(self, standing: StandingQuery) -> None:
        """Metric hook: one versioned event emitted."""
        self._m_deltas.inc()

    def _record_listener_error(self, standing: StandingQuery) -> None:
        """Metric hook: a subscriber callback raised (logged, not fatal)."""
        self._m_listener_errors.inc()

    # ------------------------------------------------------------------ #
    # observability + persistence
    # ------------------------------------------------------------------ #
    def metrics(self) -> dict[str, float]:
        """Flat ``{canonical name: value}`` snapshot of the ``live.*`` family."""
        return self.registry.snapshot()

    def metrics_registry(self) -> MetricsRegistry:
        """The session's live metrics registry (shared, not a copy)."""
        return self.registry

    def commit(self, store: "SnapshotStore", parent: str | None = None) -> str:
        """Commit the engine state *and* the standing registrations.

        Returns the snapshot id.  A later :meth:`from_snapshot` re-arms
        the same standing queries against the restored engine — their
        initial answers come warm out of the restored result cache
        whenever the rules-1–4 replay carried them forward.
        """
        snapshot_id = self.engine.commit(store, parent=parent)
        store.save_standing(snapshot_id, self.registrations())
        return snapshot_id

    @classmethod
    def from_snapshot(
        cls,
        store: "SnapshotStore",
        snapshot_id: str,
        *,
        replay_to: str | None = None,
        **engine_options: Any,
    ) -> "LiveSession":
        """Restore an engine from ``store`` and re-arm its standing queries.

        Mirrors :meth:`repro.engine.Engine.from_snapshot` (including
        ``replay_to`` diff replay through the rules-1–4 invalidation),
        then re-subscribes every registration persisted with the base
        snapshot.  Returns the restored engine's live session.
        """
        from ..engine.engine import Engine  # local import: engine <-> live

        engine = Engine.from_snapshot(store, snapshot_id, replay_to=replay_to, **engine_options)
        session = engine.live
        for record in store.load_standing(snapshot_id):
            session.subscribe(
                record["focal"],
                record["k"],
                record["method"],
                anytime=record["anytime"],
                **record["options"],
            )
        return session
