"""Anytime kSPR execution: pull partial results, pause, resume.

The streaming cores (:func:`repro.core.progressive.progressive_ticks`,
:func:`repro.core.cta.cta_ticks` and :func:`repro.parallel.subtree.parallel_ticks`)
expose the kSPR loops as suspendable generators of
:class:`~repro.core.base.StreamTick` work units.  This module is the driver on
top of them:

* :class:`StreamBudget` — a cooperative execution budget (wall-clock
  deadline, batch cap, cancellation flag) checked *between* work units, so
  granularity is one batch / chunk / shard commit;
* :class:`AnytimeQuery` — wraps a tick stream, accumulates certified regions
  and yields :class:`~repro.core.result.PartialKSPRResult` snapshots whose
  ``[lower, upper]`` impact brackets tighten monotonically.  Advancing past
  the budget simply stops pulling; the suspended generator keeps all loop
  state, so a later :meth:`AnytimeQuery.advance` resumes exactly where the
  query paused and the final answer is byte-identical to an uninterrupted
  run;
* :func:`stream_kspr` — the `kspr()`-shaped entry point returning an
  :class:`AnytimeQuery` for any exact method (serial or, for CTA, sharded
  across worker processes), opened by the same per-method opener
  (:func:`repro.core.query.open_query`) every other entry point runs.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from ..core.base import (
    PreparedQuery,
    Pull,
    QueryContext,
    ReportedCell,
    StreamTick,
    build_region,
    build_result,
)
from ..core.query import open_query, validate_query
from ..core.result import KSPRResult, PartialKSPRResult, PreferenceRegion
from ..exceptions import InvalidQueryError
from ..obs.trace import current_tracer
from ..records import Dataset

__all__ = ["StreamBudget", "AnytimeQuery", "stream_kspr"]


class StreamBudget:
    """Cooperative execution budget for one :meth:`AnytimeQuery.advance` call.

    ``deadline`` is a wall-clock allowance in seconds (from the moment the
    budget is created), ``deadline_at`` an *absolute* :func:`time.perf_counter`
    instant (a serving layer propagates one request deadline through every
    stage this way, so queueing time is charged against the same budget as
    compute), ``max_batches`` caps the number of work units pulled by this
    advance, and ``cancel`` is a :class:`threading.Event` (or any object with
    ``is_set()``, or a zero-argument callable) flipped by the caller to stop
    the stream at the next work-unit boundary.  ``None`` everywhere means
    "run to completion"; when both deadline forms are given the earlier
    instant wins.  A ``deadline_at`` already in the past is exhausted
    immediately (callers that want expired deadlines rejected up front must
    check before starting — see ``repro.serve.AdmissionController``).
    """

    def __init__(
        self,
        deadline: float | None = None,
        max_batches: int | None = None,
        cancel: threading.Event | Callable[[], bool] | None = None,
        deadline_at: float | None = None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise InvalidQueryError("deadline must be non-negative seconds")
        if max_batches is not None and max_batches < 1:
            raise InvalidQueryError("max_batches must be a positive integer")
        self.expires_at = None if deadline is None else time.perf_counter() + float(deadline)
        if deadline_at is not None:
            absolute = float(deadline_at)
            self.expires_at = absolute if self.expires_at is None else min(
                self.expires_at, absolute
            )
        self.max_batches = None if max_batches is None else int(max_batches)
        self.cancel = cancel
        #: Work units consumed under this budget so far.
        self.consumed = 0

    def cancelled(self) -> bool:
        """Whether the caller has flipped the cancellation flag."""
        if self.cancel is None:
            return False
        probe = getattr(self.cancel, "is_set", self.cancel)
        return bool(probe())

    def exhausted(self) -> bool:
        """Whether the next work unit may still be pulled."""
        if self.cancelled():
            return True
        if self.max_batches is not None and self.consumed >= self.max_batches:
            return True
        if self.expires_at is not None and time.perf_counter() >= self.expires_at:
            return True
        return False


class AnytimeQuery:
    """One in-flight kSPR query that can be advanced, paused and resumed.

    Built by :func:`stream_kspr` (or :meth:`repro.engine.Engine.query_stream`,
    which additionally checkpoints paused instances for warm-started
    re-issues).  Pulling snapshots::

        query = stream_kspr(dataset, focal, k=3)
        for snapshot in query.advance(deadline=0.25):
            lo, hi = snapshot.impact_bracket()
        if query.done:
            exact = query.result()
        else:
            ...  # act on query.partial(), resume later with another advance()

    The final :meth:`result` is byte-identical to the corresponding
    all-at-once call (same regions, order, ranks, halfspaces, witnesses) no
    matter how many pauses the query went through.
    """

    def __init__(
        self,
        context: QueryContext,
        ticks: Iterator[StreamTick],
        finalize_geometry: bool = True,
    ) -> None:
        self._context = context
        self._ticks = ticks
        self._finalize_geometry = finalize_geometry
        self._reported: list[ReportedCell] = []
        self._regions: list[PreferenceRegion] = []
        self._tree = None
        self._batches = 0
        self._ticks_consumed = 0
        self._done = False
        self._error: BaseException | None = None
        self._result: KSPRResult | None = None
        self._last: PartialKSPRResult | None = None
        #: When the query last did work (construction counts: preparation
        #: already ran); the gap until the next pull is *pause time*,
        #: excluded from response-time accounting — including a pause taken
        #: before any tick was consumed (e.g. a deadline=0 checkpoint).
        self._idle_since: float | None = time.perf_counter()
        self._advanced_before = False
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once the terminal work unit has been consumed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True when the underlying computation raised; the query is dead.

        A failed query is neither resumable nor checkpointable — advancing it
        again re-raises instead of silently returning a truncated answer.
        """
        return self._error is not None

    @property
    def context(self) -> QueryContext:
        """The underlying query context (dataset snapshot, stats, tolerance)."""
        return self._context

    @property
    def ticks_consumed(self) -> int:
        """Total work units pulled from the producer over the query's lifetime.

        This is the *replay cursor* of a persisted checkpoint: the tick
        streams are deterministic, so a fresh query over the same prepared
        input advanced by exactly this many units is suspended at the
        byte-identical point (see :mod:`repro.snapshot`).
        """
        return self._ticks_consumed

    def partial(self) -> PartialKSPRResult:
        """The most recent snapshot (an empty zero-progress one before any advance)."""
        with self._lock:
            if self._last is None:
                self._last = self._snapshot(StreamTick())
            return self._last

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def advance(
        self,
        *,
        deadline: float | None = None,
        max_batches: int | None = None,
        cancel: threading.Event | Callable[[], bool] | None = None,
        deadline_at: float | None = None,
    ) -> Iterator[PartialKSPRResult]:
        """Pull work units under a budget, yielding one snapshot per unit.

        Stops — leaving the query suspended and resumable — when the budget
        is exhausted, the cancellation flag is set, or the query completes
        (the last yielded snapshot then has ``done=True``).  Budget checks
        happen between work units, so a deadline can overshoot by at most one
        batch / chunk / shard commit.  ``deadline_at`` is the absolute
        :func:`time.perf_counter` form of ``deadline`` (the earlier instant
        wins when both are given) — see :class:`StreamBudget`.
        """
        budget = StreamBudget(
            deadline=deadline, max_batches=max_batches, cancel=cancel,
            deadline_at=deadline_at,
        )
        # The span is created (not entered): a generator's frames run in the
        # caller's context at each pull, so contextvar-scoped entry would
        # leak across yields.  Events land on the span object directly.
        was_resumed = self._advanced_before
        span = current_tracer().span("stream.advance", resumed=was_resumed)
        self._advanced_before = True
        resume_noted = False
        try:
            while not self._done and not budget.exhausted():
                with self._lock:
                    if self._done:
                        break
                    if self._error is not None:
                        raise InvalidQueryError(
                            f"the stream previously failed ({self._error!r}) and cannot resume"
                        ) from self._error
                    if self._idle_since is not None:
                        # Shift the response-time baseline past the pause so
                        # elapsed/response seconds measure compute, not the time
                        # the query sat suspended between advances.
                        paused = time.perf_counter() - self._idle_since
                        self._context.started_at += paused
                        self._idle_since = None
                        # The baseline also shifts between yields of one
                        # advance() call (consumer pacing); only the first
                        # shift of a re-issued advance() is a stream resume.
                        if was_resumed and not resume_noted:
                            span.event("stream.resume", paused_seconds=paused)
                            resume_noted = True
                    try:
                        tick = next(self._ticks, None)
                    except BaseException as error:
                        # The producer crashed: surface it now and on every later
                        # advance — a dead stream must never look completed.
                        self._error = error
                        raise
                    if tick is None:
                        self._error = InvalidQueryError(
                            "the tick stream ended without its terminal work unit"
                        )
                        raise self._error
                    snapshot = self._consume(tick)
                    self._ticks_consumed += 1
                    self._idle_since = time.perf_counter()
                budget.consumed += 1
                yield snapshot
            if not self._done:
                span.event("stream.pause", consumed=budget.consumed)
        finally:
            span.note(consumed=budget.consumed)
            span.set(done=self._done)
            span.finish()

    def run(self) -> KSPRResult:
        """Drain the stream to completion and return the exact result."""
        for _ in self.advance():
            pass
        return self.result()

    def result(self) -> KSPRResult:
        """The complete :class:`KSPRResult`; raises until the query is done."""
        with self._lock:
            if not self._done:
                raise InvalidQueryError(
                    "query has not finished; advance() it to completion first"
                )
            if self._result is None:
                self._result = build_result(
                    self._context, self._reported, self._tree, self._finalize_geometry
                )
            return self._result

    def close(self) -> None:
        """Abandon the query, releasing producer resources (worker pools)."""
        closer = getattr(self._ticks, "close", None)
        if closer is not None:
            closer()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _consume(self, tick: StreamTick) -> PartialKSPRResult:
        context = self._context
        for cell in tick.new_cells:
            self._reported.append(cell)
            self._regions.append(build_region(context, cell))
        if tick.tree is not None:
            self._tree = tick.tree
        self._batches = max(self._batches, tick.batches)
        self._done = tick.done
        self._last = self._snapshot(tick)
        return self._last

    def _snapshot(self, tick: StreamTick) -> PartialKSPRResult:
        context = self._context
        return PartialKSPRResult(
            context.focal,
            context.k,
            tuple(self._regions),
            context.stats,
            done=self._done,
            batches=self._batches,
            frontier=() if self._done else tick.frontier,
            dimensionality=context.cell_dimensionality,
            space=context.space,
            tolerance=context.tolerance,
            elapsed_seconds=time.perf_counter() - context.started_at,
            processed_records=tick.processed,
        )


def stream_kspr(
    dataset: Dataset | np.ndarray | Sequence[Sequence[float]],
    focal: np.ndarray | Sequence[float],
    k: int,
    method: str = "lpcta",
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    shard_factor: int | None = None,
    prepared: PreparedQuery | None = None,
    capture: bool = True,
    **options,
) -> AnytimeQuery:
    """Open an anytime kSPR query (the streaming counterpart of :func:`repro.kspr`).

    Accepts the same query triple, method names and options as
    :func:`repro.kspr` and returns an :class:`AnytimeQuery` ready to be
    advanced under a budget.  The query runs through the method's opener,
    the same one the all-at-once call drains.

    Parameters
    ----------
    dataset:
        The competing options, as a :class:`~repro.records.Dataset` or raw
        ``(n, d)`` array-like.
    focal:
        The focal record whose impact regions are sought.
    k:
        Shortlist size.
    method:
        Any exact :func:`repro.kspr` method name (``"lpcta"`` default).
        The approximate ``"sample"`` mode has no streaming implementation —
        its adaptive variant already refines incrementally.
    workers:
        ``> 1`` shards a ``"cta"`` query's CellTree expansion across worker
        processes (:func:`repro.parallel.subtree.parallel_ticks`): per-shard
        region streams are merged back in the deterministic depth-first
        order of the seed tree, so snapshots — and the final result — are
        identical to the serial stream.  Other methods ignore it.
    chunk_size:
        CTA tick granularity (records per work unit); subsystem default
        when ``None``.
    shard_factor:
        Parallel over-partitioning factor; subsystem default when ``None``.
    prepared:
        Prepared per-focal state from a serving layer (skips partitioning
        and the competitor R-tree build).
    capture:
        ``False`` skips the per-tick frontier freeze (an
        O(active leaves × tree depth) copy): snapshots then report the
        trivial ``impact_upper() == 1.0`` until completion, but
        pause/resume and region streaming are unaffected — the right trade
        for consumers that never read brackets.
    options:
        The method's options, as :func:`repro.kspr` takes them:
        ``bounds_mode`` (LP-CTA), ``space`` (CTA), ``finalize_geometry``
        (CTA, P-CTA, LP-CTA) and ``tolerance`` (every method).

    Returns
    -------
    AnytimeQuery
        The suspended query; pull snapshots with
        :meth:`AnytimeQuery.advance`, or drain with
        :meth:`AnytimeQuery.run`.

    Raises
    ------
    InvalidQueryError
        For malformed query inputs, an unknown method, a method without a
        streaming implementation, or an option the method does not take.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Dataset, stream_kspr
    >>> data = Dataset(np.array([[3, 8, 8], [9, 4, 4], [8, 3, 4], [4, 3, 6]]))
    >>> query = stream_kspr(data, focal=[5, 5, 7], k=3)
    >>> for snapshot in query.advance(max_batches=1):
    ...     lower, upper = snapshot.impact_bracket()
    >>> exact = query.run()          # finish whenever convenient
    >>> bool(lower <= exact.impact_probability() <= upper)
    True
    """
    if not isinstance(dataset, Dataset):
        dataset = Dataset(np.asarray(dataset, dtype=float))
    focal = validate_query(dataset, focal, k)
    pull = Pull(capture=capture, workers=workers, chunk_size=chunk_size, shard_factor=shard_factor)
    opened = open_query(method, dataset, focal, k, options, prepared=prepared, pull=pull)
    return AnytimeQuery(*opened)
