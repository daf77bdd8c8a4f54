"""The engine's one LRU store: answers, paused streams and prepared state.

:class:`repro.engine.Engine` keeps three instances of :class:`ResultCache`:
finished answers, paused anytime streams (a deadline-truncated
:meth:`~repro.engine.Engine.query_stream` checkpoints its suspended
:class:`~repro.stream.AnytimeQuery` so a re-issue warm-starts from it) and
prepared per-focal state (:class:`~repro.core.base.PreparedQuery`).  Every
key starts with the fingerprint of the dataset state the entry describes, so
a stored value can only ever serve the *exact* dataset state it was computed
on.  On a dataset update the engine gives every entry of all three stores one
rules-1–4 verdict (see :mod:`repro.engine.engine`): an update that provably
cannot change an entry's answer cannot change its pruned competitor input
either, so :meth:`ResultCache.reconcile` re-keys unaffected entries to the
new fingerprint and drops the rest.  That is what makes invalidation precise
instead of a blanket flush.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..robust import Tolerance

__all__ = ["CacheEntry", "ResultCache", "options_key"]


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
    """One stored value plus what rules 1–4 read to reconcile it.

    ``key`` is the key the engine's plan built; its first element is the
    fingerprint of the dataset state the value describes.  ``focal``, ``k``
    and ``pruned`` (whether the value was computed against the k-skyband
    slice) feed the update verdict.  ``value`` is a finished answer, a
    suspended stream (or its :class:`~repro.snapshot.ReplayCheckpoint` after
    a restart) or a :class:`~repro.core.base.PreparedQuery`.  ``capture`` is
    a paused stream's frontier-capture mode: a ``capture=False`` checkpoint
    cannot serve a caller that reads impact brackets.
    """

    key: tuple
    focal: np.ndarray
    k: int
    pruned: bool
    value: Any
    capture: bool = True

    @property
    def fingerprint(self) -> str:
        """The dataset state this entry is valid for."""
        return self.key[0]

    def release(self) -> None:
        """Free the value's resources (a suspended stream's generators and pools)."""
        close = getattr(self.value, "close", None)
        if close is not None:
            close()


class ResultCache:
    """A bounded LRU of :class:`CacheEntry` objects.

    ``capacity=0`` is legal and means *storing disabled*: every ``put`` is
    immediately evicted again.  ``capacity=1`` behaves as a true single-slot
    LRU (a hit refreshes the slot, the next distinct ``put`` replaces it).
    Every entry that leaves the store without being checked out (evicted,
    displaced, discarded or invalidated) is released exactly once.

    Lookups come in four kinds: :meth:`get` (the value, counted as a hit or
    a miss), :meth:`touch` (the entry; a hit is counted and refreshed),
    :meth:`peek` (neither counted nor refreshed) and :meth:`pop` (a counted
    checkout that removes the entry without releasing it, so a paused stream
    is never advanced by two consumers).

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
        self.puts = 0
        self.insertions = 0
        self.evictions = 0
        self.checkouts = 0
        self.invalidated = 0
        self.rekeyed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entries(self) -> list[CacheEntry]:
        """Current entries, least recently used first."""
        return list(self._entries.values())

    def get(self, key: tuple) -> Any:
        """The value stored under ``key``, or None; refreshes LRU order on a hit."""
        entry = self.touch(key)
        if entry is None:
            self.misses += 1
            return None
        return entry.value

    def touch(self, key: tuple) -> CacheEntry | None:
        """The entry under ``key``, refreshed and counted as a hit, or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def peek(self, key: tuple) -> CacheEntry | None:
        """The entry under ``key`` without refreshing or counting it."""
        return self._entries.get(key)

    def pop(self, key: tuple) -> CacheEntry | None:
        """Check an entry out: remove it unreleased (re-``put`` it to keep it)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.checkouts += 1
        return entry

    def discard(self, key: tuple) -> None:
        """Remove and release the entry under ``key``, if any."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            entry.release()

    def put(self, entry: CacheEntry) -> None:
        """Store ``entry`` as most recent, evicting the least recent when full.

        An entry it displaces under the same key is released unless it holds
        the same value (a checked-out stream coming back).
        """
        self.puts += 1
        displaced = self._entries.pop(entry.key, None)
        if displaced is None:
            self.insertions += 1
        elif displaced.value is not entry.value:
            displaced.release()
        self._entries[entry.key] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.release()
            self.evictions += 1

    def reconcile(
        self, fingerprint: str, damaged: Callable[[CacheEntry], bool]
    ) -> tuple[int, int]:
        """Reconcile the store with a dataset update now at ``fingerprint``.

        Entries for which ``damaged`` returns True are released and dropped;
        the rest are re-keyed under ``fingerprint`` (the update provably
        cannot change their value) with LRU order preserved.  Returns
        ``(retained, dropped)``.

        Exception-safe: every verdict is collected *before* any entry is
        touched, so a raising ``damaged`` leaves the store exactly as it was,
        with no entry re-keyed or released.
        """
        entries = list(self._entries.values())
        verdicts = [bool(damaged(entry)) for entry in entries]
        retained: OrderedDict[tuple, CacheEntry] = OrderedDict()
        for entry, drop in zip(entries, verdicts):
            if drop:
                entry.release()
                continue
            entry.key = (fingerprint, *entry.key[1:])
            retained[entry.key] = entry
        self._entries = retained
        dropped = len(entries) - len(retained)
        self.invalidated += dropped
        self.rekeyed += len(retained)
        return len(retained), dropped
