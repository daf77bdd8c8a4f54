"""Standing kSPR queries, incrementally repaired under update streams.

A :class:`StandingQuery` registers one kSPR query — exact, or anytime
with a monotone ``[lower, upper]`` impact bracket — against an engine.
When updates land, the query classifies each one against its frozen
frontier with the engine's rules-1–4 damage localisation
(:meth:`repro.engine.Engine.update_affects`): a provably-unaffected
update carries the current answer forward verbatim (no recompute, no new
version), an affected one triggers a *repair* — a recompute through the
engine's own query path, so the repaired answer is byte-identical to a
cold from-scratch run against the post-update dataset (the differential
suite enforces exactly this).

Every emitted change is a :class:`DeltaEvent` with a strictly-monotone
``version``; a bounded event log supports gap-free replay after a
subscriber disconnect (:meth:`StandingQuery.attach` with
``resume_from``), falling back to a fresh ``snapshot`` event when the
log no longer covers the acked version.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..exceptions import InvalidQueryError

if TYPE_CHECKING:  # import cycle: engine <-> live
    from ..engine.engine import Engine
    from ..index.skyline import SkybandDelta
    from .session import LiveSession

__all__ = ["DeltaEvent", "StandingQuery"]

logger = logging.getLogger(__name__)

#: Event kinds a standing query emits.
_KINDS = ("snapshot", "repair", "refine")


@dataclass(frozen=True)
class DeltaEvent:
    """One versioned change of a standing query's answer.

    ``kind`` is ``"repair"`` (an affected update forced a recompute),
    ``"refine"`` (an anytime bracket tightened with no dataset change),
    or ``"snapshot"`` (the full current answer — the first event of a
    subscription, and the fallback when a reconnect outruns the log).
    ``lower == upper`` for exact queries; ``done`` is whether the answer
    is final (always ``True`` for exact queries).
    """

    version: int
    kind: str
    fingerprint: str
    lower: float
    upper: float
    regions: int
    done: bool

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view (the serving tier's SSE payload body)."""
        return {
            "version": self.version,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "lower": self.lower,
            "upper": self.upper,
            "regions": self.regions,
            "done": self.done,
        }


class StandingQuery:
    """One registered kSPR query maintained under updates.

    Created through :meth:`repro.engine.Engine.subscribe` (or
    :meth:`repro.live.LiveSession.subscribe`) — the constructor computes
    the initial answer, so a fresh instance is immediately consistent
    with the engine state it was registered under.
    """

    def __init__(
        self,
        session: "LiveSession",
        focal: np.ndarray,
        k: int,
        *,
        method: str | None = None,
        anytime: bool = False,
        options: dict | None = None,
        log_limit: int = 256,
    ) -> None:
        self._session = session
        self._engine: "Engine" = session.engine
        self._focal = np.array(focal, dtype=float, copy=True)
        self._k = int(k)
        self._method = method
        self._anytime = bool(anytime)
        self._options = dict(options or {})
        plan = self._engine._plan(self._focal, self._k, method, self._options, validate=False)
        if plan.method == "sample_kspr" and self._anytime:
            raise InvalidQueryError(
                "anytime standing queries need a streaming method; "
                "method='sample' refines through its own adaptive mode"
            )
        # State-free identity (standing queries survive snapshot swaps) plus
        # the mode flag — the serving tier dedupes subscriptions on this.
        self._key = plan.identity + (self._anytime,)
        self._pruned = plan.pruned
        self._lock = threading.RLock()
        self._listeners: list[Callable[[DeltaEvent], None]] = []
        self._log: deque[DeltaEvent] = deque(maxlen=int(log_limit))
        self._version = 0
        self._result: Any = None
        self._bracket = (0.0, 1.0)
        self._regions = 0
        self._fingerprint = ""
        self._done = False
        self._closed = False
        self.repairs = 0
        self.carried_forward = 0
        self.refines = 0
        self.listener_errors = 0
        self._recompute("snapshot")

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def key(self) -> tuple:
        """State-free identity (focal bytes, k, method, options, anytime)."""
        return self._key

    @property
    def focal(self) -> np.ndarray:
        """The registered focal record (a private copy)."""
        return self._focal.copy()

    @property
    def k(self) -> int:
        """Shortlist size of the registered query."""
        return self._k

    @property
    def anytime(self) -> bool:
        """Whether this query maintains an anytime bracket instead of an exact answer."""
        return self._anytime

    @property
    def version(self) -> int:
        """Strictly-monotone answer version (bumps on every emitted event)."""
        with self._lock:
            return self._version

    @property
    def fingerprint(self) -> str:
        """Dataset fingerprint the current answer is valid for."""
        with self._lock:
            return self._fingerprint

    @property
    def done(self) -> bool:
        """Whether the current answer is final (exact queries: always)."""
        with self._lock:
            return self._done

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` unregistered this query."""
        with self._lock:
            return self._closed

    def result(self) -> Any:
        """The current answer: a result for exact queries, the latest
        :class:`~repro.core.result.PartialKSPRResult` for anytime ones."""
        with self._lock:
            return self._result

    def bracket(self) -> tuple[float, float]:
        """Current ``[lower, upper]`` impact bracket (degenerate when exact)."""
        with self._lock:
            return self._bracket

    def events(self) -> list[DeltaEvent]:
        """The retained event log, oldest first."""
        with self._lock:
            return list(self._log)

    def registration(self) -> dict[str, Any]:
        """The arguments needed to re-arm this query on a restored engine
        (:meth:`repro.live.LiveSession.commit` persists these)."""
        return {
            "focal": self._focal.copy(),
            "k": self._k,
            "method": self._method,
            "anytime": self._anytime,
            "options": dict(self._options),
        }

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def attach(
        self,
        listener: Callable[[DeltaEvent], None],
        resume_from: int | None = None,
    ) -> list[DeltaEvent]:
        """Register a listener; return the catch-up events, atomically.

        The returned list and all subsequent listener calls form one
        gap-free, duplicate-free, version-ordered event sequence:

        * ``resume_from=None`` — a fresh subscription; catch-up is one
          synthetic ``snapshot`` event carrying the current answer.
        * ``resume_from=v`` — a reconnect that already acked version
          ``v``; catch-up is every logged event with a later version.
          When the bounded log no longer reaches back to ``v`` the
          catch-up falls back to a single ``snapshot`` event (never a
          gap, never a duplicate).

        Registration and catch-up capture happen under the query lock, so
        no repair can slip between them.
        """
        with self._lock:
            self._listeners.append(listener)
            if resume_from is None:
                return [self.snapshot_event()]
            resume_from = int(resume_from)
            if resume_from >= self._version:
                return []
            tail = [event for event in self._log if event.version > resume_from]
            covered = bool(tail) and tail[0].version == resume_from + 1
            if covered:
                return tail
            return [self.snapshot_event()]

    def detach(self, listener: Callable[[DeltaEvent], None]) -> None:
        """Unregister a listener (idempotent)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def snapshot_event(self) -> DeltaEvent:
        """A synthetic full-state event at the current version (not logged)."""
        with self._lock:
            lower, upper = self._bracket
            return DeltaEvent(
                version=self._version,
                kind="snapshot",
                fingerprint=self._fingerprint,
                lower=lower,
                upper=upper,
                regions=self._regions,
                done=self._done,
            )

    def close(self) -> None:
        """Unregister from the session; further updates are ignored."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._listeners.clear()
        self._session._unregister(self)

    # ------------------------------------------------------------------ #
    # repair machinery (driven by the session)
    # ------------------------------------------------------------------ #
    def apply(self, pairs: "tuple[tuple[SkybandDelta, bool], ...]") -> DeltaEvent | None:
        """Classify one applied batch; repair if any update is damaging.

        Returns the emitted :class:`DeltaEvent`, or ``None`` when every
        update was provably unaffecting (rules 1–4) and the answer was
        carried forward verbatim — same result object, same version.
        """
        with self._lock:
            if self._closed:
                return None
            affected = self._engine.update_affects(
                self._focal, self._k, pairs, pruned=self._pruned
            )
            if not affected:
                self.carried_forward += 1
                # The answer provably did not change; re-stamp it as valid
                # for the new state (mirrors the engine cache's re-keying).
                self._fingerprint = self._engine.fingerprint
                self._session._record_carry(self)
                return None
            event = self._recompute("repair")
            self.repairs += 1
            return event

    def refine(self, max_batches: int | None = None) -> DeltaEvent | None:
        """Advance an anytime query's bracket with no dataset change.

        Resumes the engine's paused-stream checkpoint (carried forward by
        the same rules 1–4) and emits a ``refine`` event when the bracket
        tightened or the answer certified.  No-op for exact queries and
        for already-final answers.
        """
        if not self._anytime:
            return None
        with self._lock:
            if self._closed or self._done:
                return None
            event = self._advance_stream(max_batches=max_batches, kind="refine")
            self.refines += 1
            self._session._record_refine(self)
            return event

    def _recompute(self, kind: str) -> DeltaEvent:
        """Recompute through the engine's query path and emit an event."""
        started = time.perf_counter()
        if self._anytime:
            event = self._advance_stream(max_batches=None, kind=kind)
        else:
            result = self._engine.query(
                self._focal, self._k, method=self._method, **self._options
            )
            impact = float(result.impact_probability())
            self._result = result
            self._bracket = (impact, impact)
            self._regions = len(result)
            self._done = True
            self._fingerprint = self._engine.fingerprint
            event = self._emit(kind)
        self._session._record_repair(self, kind, time.perf_counter() - started)
        return event

    def _advance_stream(self, max_batches: int | None, kind: str) -> DeltaEvent:
        """Advance a fresh/resumed anytime stream; never widen the bracket.

        On a repair the stream runs until its bracket is at least as
        tight as the pre-update one (or the answer certifies) — that is
        what makes "brackets never widen across a repair" unconditional,
        and it terminates because brackets tighten to width zero.  On a
        ``refine`` the optional ``max_batches`` bounds the work instead.
        """
        prev_width = self._bracket[1] - self._bracket[0]
        if kind == "snapshot":
            prev_width = float("inf")
        stream = self._engine.query_stream(
            self._focal, self._k, method=self._method,
            max_batches=max_batches, **self._options,
        )
        last = None
        try:
            for partial in stream:
                last = partial
                lower, upper = partial.impact_bracket()
                if partial.done:
                    break
                if kind != "refine" and (upper - lower) <= prev_width:
                    break
        finally:
            stream.close()  # checkpoints the suspended stream for resume
        if last is None:
            raise RuntimeError("anytime stream yielded no snapshots")
        lower, upper = last.impact_bracket()
        self._result = last
        self._bracket = (float(lower), float(upper))
        self._regions = len(last.regions)
        self._done = bool(last.done)
        self._fingerprint = self._engine.fingerprint
        return self._emit(kind)

    def _emit(self, kind: str) -> DeltaEvent:
        """Bump the version, log the event, and fan out to listeners."""
        assert kind in _KINDS
        self._version += 1
        lower, upper = self._bracket
        event = DeltaEvent(
            version=self._version,
            kind=kind,
            fingerprint=self._fingerprint,
            lower=lower,
            upper=upper,
            regions=self._regions,
            done=self._done,
        )
        self._log.append(event)
        self._session._record_delta(self)
        for listener in list(self._listeners):
            try:
                listener(event)
            # analyze: ignore[EXC001] -- logged and counted; one broken
            # subscriber must not stall the repair pipeline for the rest
            except Exception:
                logger.exception("standing-query listener failed")
                self.listener_errors += 1
                self._session._record_listener_error(self)
        return event
