"""LRU result cache for the multi-query serving engine.

Entries are keyed on ``(dataset fingerprint, focal, k, method, options)`` so a
cached answer can only ever be served for the *exact* query it was computed
for, against the *exact* dataset state it was computed on.  On a dataset
update the engine decides, per entry, whether the inserted / deleted record
could influence that entry's answer (see
:meth:`repro.engine.Engine.insert`); unaffected entries are *re-keyed* to the
new dataset fingerprint and keep serving, affected ones are dropped.  That is
what makes invalidation precise instead of a blanket flush.

:class:`PartialStore` applies the same keying and invalidation discipline to
*paused anytime queries*: a deadline-truncated
:meth:`~repro.engine.Engine.query_stream` checkpoints its suspended
:class:`~repro.stream.AnytimeQuery` here, and a re-issue of the same query
warm-starts from the checkpoint instead of recomputing from scratch.  An
update that provably cannot change an entry's answer (rules 1–4 of
:mod:`repro.engine.engine`) also cannot change its pruned competitor input,
so unaffected checkpoints stay resumable across updates; affected ones are
closed and dropped.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.result import KSPRResult
from ..robust import Tolerance

__all__ = ["CacheEntry", "ResultCache", "PartialEntry", "PartialStore", "options_key"]


def _canonical_value(value) -> tuple | str:
    """Collision-free, hashable canonical form of one option value.

    ``repr`` is *not* good enough here: ``repr(np.ndarray)`` elides large
    arrays with ``...`` (so two distinct option arrays can collide on one
    cache key) and its formatting varies across numpy versions.  Arrays are
    therefore keyed on their full bytes plus dtype and shape, numeric scalars
    are normalised (``np.float64(2.0)``, ``2.0`` and ``2`` with equal value
    but different types never alias a *different* value), and containers
    recurse.
    """
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ("ndarray", str(value.dtype), value.shape, digest)
    if isinstance(value, (bool, np.bool_)):
        return ("bool", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("int", int(value))
    if isinstance(value, (float, np.floating)):
        return ("float", repr(float(value)))
    if isinstance(value, str):
        return ("str", value)
    if value is None:
        return ("none",)
    if isinstance(value, Tolerance):
        return value.as_key()
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__name__, value.name)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canonical_value(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(map(repr, value))))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((str(k), _canonical_value(v)) for k, v in value.items())),
        )
    return ("repr", type(value).__name__, repr(value))


def options_key(options: dict) -> tuple:
    """Canonical, hashable, collision-free form of a keyword-options dict."""
    return tuple(sorted((name, _canonical_value(value)) for name, value in options.items()))


@dataclass
class CacheEntry:
    """One cached query answer plus the metadata needed for precise invalidation."""

    fingerprint: str
    focal: np.ndarray
    k: int
    method: str
    opts: tuple
    result: KSPRResult
    #: Whether the cold run used k-skyband pruning (affects which dataset
    #: updates can change the answer).
    pruned: bool = False

    @property
    def key(self) -> tuple:
        """The lookup key this entry is stored under."""
        return (self.fingerprint, self.focal.tobytes(), self.k, self.method, self.opts)


class ResultCache:
    """A bounded LRU cache of :class:`~repro.core.result.KSPRResult` objects.

    ``capacity=0`` is legal and means *caching disabled*: every ``put`` is
    immediately evicted again, every ``get`` misses.  ``capacity=1`` behaves
    as a true single-slot LRU (a hit refreshes the slot, the next distinct
    ``put`` replaces it).

    Not thread-safe by itself; :class:`repro.engine.Engine` serialises access
    through its own lock.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidated = 0
        self.rekeyed = 0

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entries(self) -> list[CacheEntry]:
        """Current entries, least recently used first."""
        return list(self._entries.values())

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    # ------------------------------------------------------------------ #
    # lookup / insertion
    # ------------------------------------------------------------------ #
    def get(self, key: tuple) -> KSPRResult | None:
        """The cached result for ``key``, or None; refreshes LRU order on a hit."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.result

    def put(self, entry: CacheEntry) -> None:
        """Insert an entry, evicting the least recently used one when full."""
        key = entry.key
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = entry
            return
        self._entries[key] = entry
        self.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------ #
    # update-driven invalidation
    # ------------------------------------------------------------------ #
    def apply_update(
        self,
        new_fingerprint: str,
        is_affected: Callable[[CacheEntry], bool],
    ) -> tuple[int, int]:
        """Reconcile the cache with a dataset update.

        Entries for which ``is_affected`` returns True are dropped; the rest
        are re-keyed under ``new_fingerprint`` (their answers are provably
        unchanged by the update) with LRU order preserved.  Returns
        ``(retained, dropped)`` counts.

        Exception-safe: every ``is_affected`` verdict is collected *before*
        any entry is mutated, so a callback that raises leaves the cache
        exactly as it was — no entry re-keyed under the new fingerprint
        while the index still holds the old keys, no half-applied swap.
        """
        entries = list(self._entries.values())
        affected = [bool(is_affected(entry)) for entry in entries]
        retained: OrderedDict[tuple, CacheEntry] = OrderedDict()
        dropped = 0
        for entry, drop in zip(entries, affected):
            if drop:
                dropped += 1
                continue
            entry.fingerprint = new_fingerprint
            retained[entry.key] = entry
        self._entries = retained
        self.invalidated += dropped
        self.rekeyed += len(retained)
        return len(retained), dropped

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def info(self) -> dict[str, int | float]:
        """Counters in a plain dict (for logs, benchmarks and tests)."""
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "rekeyed": self.rekeyed,
        }


@dataclass
class PartialEntry:
    """One paused anytime query plus the metadata for precise invalidation.

    ``query`` is the suspended :class:`~repro.stream.AnytimeQuery` — its
    generator holds the full loop state (CellTree, processed set, certified
    cells), which is what makes a resumed run byte-identical to an
    uninterrupted one.
    """

    fingerprint: str
    focal: np.ndarray
    k: int
    method: str
    opts: tuple
    #: The suspended AnytimeQuery (typed loosely: the store never advances
    #: it, it only checkpoints, hands back and closes).
    query: object
    #: Whether the stream's cold path used k-skyband pruning (same role as
    #: :attr:`CacheEntry.pruned` in the invalidation rule).
    pruned: bool = False
    #: Whether the suspended producers freeze the frontier per tick.  A
    #: ``capture=False`` checkpoint cannot serve a ``capture=True`` re-issue
    #: (its snapshots would silently carry only the trivial upper bound), so
    #: the engine declines to resume it for such callers.
    capture: bool = True
    #: The effective (canonicalised) query options the stream ran under.
    #: Live suspended generators cannot be serialised, so persistence
    #: (:mod:`repro.snapshot`) stores the *replay recipe* instead — these
    #: options plus the consumed-tick count — and the engine rebuilds the
    #: stream deterministically on first resume after a restart.
    options: dict | None = None
    #: Worker count of the suspended producers (informational; restarted
    #: replays always use the serial path, which is snapshot-for-snapshot
    #: identical to the sharded one).
    workers: int | None = None

    @property
    def key(self) -> tuple:
        """The lookup key this entry is stored under."""
        return (self.fingerprint, self.focal.tobytes(), self.k, self.method, self.opts)

    def close(self) -> None:
        """Release the checkpoint's resources (suspended generators, pools)."""
        closer = getattr(self.query, "close", None)
        if closer is not None:
            closer()


class PartialStore:
    """A bounded LRU of paused anytime-query checkpoints.

    ``capacity=0`` disables checkpointing: a ``put`` immediately evicts (and
    closes) the entry, so no paused stream is ever retained.

    Mirrors :class:`ResultCache`'s keying and update reconciliation, with two
    differences: a ``pop`` (checkout) removes the entry — a checkpoint must
    never be advanced by two consumers concurrently — and every entry that
    leaves the store without being resumed is ``close()``d so suspended
    worker pools are released.  Not thread-safe by itself;
    :class:`repro.engine.Engine` serialises access through its own lock.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError("partial store capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, PartialEntry] = OrderedDict()
        self.saves = 0
        self.resumes = 0
        self.evictions = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entries(self) -> list[PartialEntry]:
        """Current checkpoints, least recently used first (for persistence)."""
        return list(self._entries.values())

    def peek(self, key: tuple) -> PartialEntry | None:
        """Look at a checkpoint without checking it out or counting a resume.

        Lets the engine inspect entry metadata (e.g. the capture mode) and
        decide between :meth:`pop` (actual resume) and :meth:`discard`
        (unusable checkpoint) without skewing the counters."""
        return self._entries.get(key)

    def pop(self, key: tuple) -> PartialEntry | None:
        """Check a checkpoint out of the store (it must be re-``put`` to persist)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.resumes += 1
        return entry

    def discard(self, key: tuple) -> None:
        """Drop (and close) a checkpoint that will never be resumed.

        Used when a full result lands under the same key: the checkpoint is
        unreachable from then on — every lookup hits the result cache first —
        so its resources (suspended generators, worker pools) are released
        immediately instead of lingering until LRU pressure.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            entry.close()

    def put(self, entry: PartialEntry) -> None:
        """Checkpoint a paused query, evicting (and closing) the LRU one when full."""
        key = entry.key
        existing = self._entries.pop(key, None)
        if existing is not None and existing.query is not entry.query:
            existing.close()
        self._entries[key] = entry
        self.saves += 1
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.close()
            self.evictions += 1

    def clear(self) -> None:
        """Close and drop every checkpoint (counters are preserved)."""
        for entry in self._entries.values():
            entry.close()
        self._entries.clear()

    def apply_update(
        self,
        new_fingerprint: str,
        is_affected: Callable[[PartialEntry], bool],
    ) -> tuple[int, int]:
        """Reconcile the checkpoints with a dataset update.

        Affected entries are closed and dropped (their suspended computation
        runs against a competitor set the update may have changed);
        unaffected ones are re-keyed under ``new_fingerprint`` — the update
        provably cannot change their answer *or* their pruned competitor
        input, so the suspended computation remains exactly the one a cold
        re-run would perform.  Returns ``(retained, dropped)``.

        Exception-safe like :meth:`ResultCache.apply_update`: all verdicts
        are decided before any checkpoint is closed or re-keyed, so a
        raising ``is_affected`` leaves every checkpoint untouched (and
        still open).
        """
        entries = list(self._entries.values())
        affected = [bool(is_affected(entry)) for entry in entries]
        retained: OrderedDict[tuple, PartialEntry] = OrderedDict()
        dropped = 0
        for entry, drop in zip(entries, affected):
            if drop:
                entry.close()
                dropped += 1
                continue
            entry.fingerprint = new_fingerprint
            retained[entry.key] = entry
        self._entries = retained
        self.invalidated += dropped
        return len(retained), dropped

    def info(self) -> dict[str, int]:
        """Counters in a plain dict (for logs and tests)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "saves": self.saves,
            "resumes": self.resumes,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }
