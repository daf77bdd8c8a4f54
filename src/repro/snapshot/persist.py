"""Serialisation of engine cache state keyed on committed snapshots.

The engine's answers and paused streams survive a process restart through
this module:

* **Answers** — result-cache :class:`~repro.engine.cache.CacheEntry`
  objects pickle directly (a :class:`~repro.core.result.KSPRResult` already
  crosses process boundaries in :mod:`repro.parallel`), so the entries are
  persisted as-is, LRU order preserved.

* **Paused streams** — a live :class:`~repro.stream.AnytimeQuery` holds a
  suspended generator frame (CellTree, frontier, certified cells), which no
  serialiser can capture.  Persistence therefore stores the **replay
  recipe** instead: the number of work units already consumed
  (:class:`ReplayCheckpoint`).  Because the tick stream of a kSPR query is
  deterministic for fixed (dataset state, focal, k, method, options), a
  restarted engine rebuilds the stream through its ordinary cold path and
  fast-forwards exactly ``ticks`` units — landing on the same suspended
  frontier the original process held, after which the resumed run is
  byte-identical to an uninterrupted one.

Every load path is defensive: a missing, truncated, undecodable or
older-version cache file yields an empty list (cache persistence is an
optimisation, never a correctness requirement), and entries whose
fingerprint disagrees with the committed snapshot are dropped rather than
trusted.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..engine.cache import CacheEntry
    from .store import SnapshotStore

__all__ = [
    "ReplayCheckpoint",
    "dump_result_entries",
    "load_result_entries",
    "dump_partial_entries",
    "load_partial_entries",
    "dump_standing_records",
    "load_standing_records",
]

#: Version tag of the pickled answer and paused-stream payloads.  Version 2
#: pickles the one :class:`~repro.engine.cache.CacheEntry` shape; a version-1
#: file restores as a cold cache.
_CACHE_FORMAT = 2
#: Version tag of the standing-registration payloads, whose shape never
#: changed: registrations written under version 1 still re-arm.
_STANDING_FORMAT = 1


@dataclass
class ReplayCheckpoint:
    """A paused anytime stream, described by how far to replay it.

    Stands in for the live :class:`~repro.stream.AnytimeQuery` as the value
    of a restored paused-stream entry: on the first resume after a restart
    the engine rebuilds the stream through its cold path (the entry's key
    holds the canonical options) and drains exactly ``ticks`` work units
    before handing it to the consumer.  The entry's ``capture`` keeps the
    original frontier-capture mode; replays always run the serial path,
    whose tick stream is snapshot-for-snapshot identical to the sharded one.
    """

    ticks: int


def checkpoint_of(entry: "CacheEntry") -> ReplayCheckpoint | None:
    """The replay recipe of one paused-stream entry, or None if unrecorded.

    A restored-but-never-resumed entry already holds a recipe and
    re-persists verbatim; a live suspended stream is described by its
    :attr:`~repro.stream.AnytimeQuery.ticks_consumed` cursor.
    """
    if isinstance(entry.value, ReplayCheckpoint):
        return entry.value
    ticks = getattr(entry.value, "ticks_consumed", None)
    return None if ticks is None else ReplayCheckpoint(int(ticks))


def _dump(
    store: "SnapshotStore", path: Path, fingerprint: str, records: list, version: int
) -> None:
    payload = pickle.dumps(
        {"format": version, "fingerprint": fingerprint, "entries": records},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    store._write_atomic(path, payload)


def _load(path: Path, fingerprint: str, version: int) -> list:
    if not path.exists():
        return []
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    # analyze: ignore[EXC001] -- a torn/stale cache file degrades to a cold cache, never an error
    except Exception:
        return []
    if not isinstance(payload, dict) or payload.get("format") != version:
        return []
    if payload.get("fingerprint") != fingerprint:
        return []
    entries = payload.get("entries")
    return list(entries) if isinstance(entries, list) else []


def dump_result_entries(
    store: "SnapshotStore", path: Path, fingerprint: str, entries
) -> int:
    """Persist result-cache entries matching ``fingerprint``; return the count."""
    matching = [entry for entry in entries if entry.fingerprint == fingerprint]
    _dump(store, path, fingerprint, matching, _CACHE_FORMAT)
    return len(matching)


def load_result_entries(path: Path, fingerprint: str) -> "list[CacheEntry]":
    """Load persisted result-cache entries, dropping any stale-fingerprint ones."""
    from ..engine.cache import CacheEntry

    return [
        entry
        for entry in _load(path, fingerprint, _CACHE_FORMAT)
        if isinstance(entry, CacheEntry) and entry.fingerprint == fingerprint
    ]


def dump_partial_entries(
    store: "SnapshotStore", path: Path, fingerprint: str, entries
) -> int:
    """Persist paused-stream checkpoints as replay recipes; return the count.

    Each persisted record is the original entry with its un-serialisable
    live stream swapped for its :class:`ReplayCheckpoint`; entries without
    a tick cursor are skipped (they simply restart cold after a restore — a
    performance loss, never a wrong answer).
    """
    records = []
    for entry in entries:
        recipe = checkpoint_of(entry) if entry.fingerprint == fingerprint else None
        if recipe is not None:
            records.append(dataclasses.replace(entry, value=recipe))
    _dump(store, path, fingerprint, records, _CACHE_FORMAT)
    return len(records)


def load_partial_entries(path: Path, fingerprint: str) -> "list[CacheEntry]":
    """Load persisted stream checkpoints (each value is a :class:`ReplayCheckpoint`)."""
    return [
        entry
        for entry in load_result_entries(path, fingerprint)
        if isinstance(entry.value, ReplayCheckpoint)
    ]


#: The keys a persisted standing-query registration must carry.
_STANDING_KEYS = {"focal", "k", "method", "anytime", "options"}


def dump_standing_records(
    store: "SnapshotStore", path: Path, fingerprint: str, records: list
) -> int:
    """Persist standing-query registrations for one snapshot; return the count.

    A registration (:meth:`repro.live.StandingQuery.registration`) is
    state-free — focal, ``k``, method, options, mode — so unlike the
    caches it survives *any* later dataset state: re-arming replays the
    query against whatever the restored engine holds.  The fingerprint
    is still embedded as an integrity tag for the defensive loader.
    """
    _dump(store, path, fingerprint, list(records), _STANDING_FORMAT)
    return len(records)


def load_standing_records(path: Path, fingerprint: str) -> list:
    """Load persisted registrations; malformed files/records degrade to none."""
    return [
        record
        for record in _load(path, fingerprint, _STANDING_FORMAT)
        if isinstance(record, dict) and _STANDING_KEYS <= set(record)
    ]
