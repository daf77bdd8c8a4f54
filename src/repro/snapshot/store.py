"""Content-addressed, crash-safe persistence of dataset versions.

:class:`SnapshotStore` is the durability tier under the serving engine: it
turns the in-memory :class:`~repro.records.Dataset` lineage an
:class:`~repro.engine.Engine` evolves through inserts and deletes into an
immutable, versioned on-disk history.

**Identity.**  A snapshot id is derived purely from the dataset's identity
state — the content fingerprint (values, ids, row order), the
:attr:`~repro.records.Dataset.id_high_watermark` and the dataset name — so
committing the same state twice is idempotent (the second commit is a no-op
dedupe), and two processes that independently reach the same state agree on
the id without coordination.  The *parent* link is deliberately excluded
from the id: it records how this process happened to arrive at the state
(lineage), not what the state is.

**Crash safety.**  Every file is written via the tmp-file + ``os.replace``
protocol (write to a uniquely-named sibling, flush, fsync, atomic rename),
and the metadata document is written *last*: a snapshot exists exactly when
its ``meta.json`` does.  A crash mid-commit leaves either ignorable ``*.tmp``
debris or a fully committed snapshot — never a half-visible one — and every
previously committed version remains readable.  :meth:`checkout` additionally
re-derives the dataset fingerprint from the decoded payload and verifies it
against the committed metadata, so corruption that slips past the rename
protocol (bit rot, tampering) raises
:class:`~repro.exceptions.SnapshotIntegrityError` instead of serving wrong
bytes.

**Deltas.**  :meth:`diff` expresses the difference between two committed
versions as first-class :class:`UpdateRecord` insert/delete operations —
exactly the updates :meth:`Engine.insert` / :meth:`Engine.delete` accept —
which is what lets a restarted engine *replay* its way from a persisted
snapshot to the current one, running the precise rules-1-4 cache
invalidation per update instead of flushing its restored caches wholesale.

Layout under the store root::

    snapshots/<sid>.meta.json    committed last -- the commit point
    snapshots/<sid>.values.npy   attribute matrix
    snapshots/<sid>.ids.npy      record identifiers
    caches/<sid>.results.pkl     persisted result-cache entries (optional)
    caches/<sid>.partials.pkl    persisted stream checkpoints (optional)
    lineage.jsonl                append-only commit audit log
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..exceptions import SnapshotError, SnapshotIntegrityError
from ..obs.metrics import MetricsRegistry
from ..records import Dataset

__all__ = [
    "SnapshotMeta",
    "UpdateRecord",
    "SnapshotDiff",
    "SnapshotStore",
    "snapshot_id_of",
]

#: On-disk metadata format version (bumped on incompatible layout changes).
_FORMAT = 1


def snapshot_id_of(dataset: Dataset) -> str:
    """Deterministic snapshot identifier of a dataset's identity state.

    Folds in the content fingerprint, the id high-watermark and the name —
    everything that must round-trip — but *not* the parent link or any
    wall-clock time, so re-committing an unchanged state always lands on
    the same id (idempotent commits, cross-process agreement).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-snapshot-v1\x00")
    digest.update(dataset.fingerprint().encode("ascii"))
    digest.update(b"\x00")
    digest.update(str(dataset.id_high_watermark).encode("ascii"))
    digest.update(b"\x00")
    digest.update(dataset.name.encode("utf-8"))
    return digest.hexdigest()[:32]


@dataclass(frozen=True)
class SnapshotMeta:
    """The committed metadata document of one snapshot (``meta.json``)."""

    snapshot_id: str
    fingerprint: str
    id_high_watermark: int
    name: str
    cardinality: int
    dimensionality: int
    #: Snapshot id this state was committed on top of (lineage only; not
    #: part of the snapshot id).  ``None`` for a root commit.
    parent: str | None = None
    #: Wall-clock commit time (seconds since epoch; informational).
    created_at: float = 0.0

    def as_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "snapshot_id": self.snapshot_id,
            "fingerprint": self.fingerprint,
            "id_high_watermark": self.id_high_watermark,
            "name": self.name,
            "cardinality": self.cardinality,
            "dimensionality": self.dimensionality,
            "parent": self.parent,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotMeta":
        if payload.get("format") != _FORMAT:
            raise SnapshotError(
                f"unsupported snapshot metadata format {payload.get('format')!r} "
                f"(this build reads format {_FORMAT})"
            )
        return cls(
            snapshot_id=str(payload["snapshot_id"]),
            fingerprint=str(payload["fingerprint"]),
            id_high_watermark=int(payload["id_high_watermark"]),
            name=str(payload["name"]),
            cardinality=int(payload["cardinality"]),
            dimensionality=int(payload["dimensionality"]),
            parent=payload.get("parent"),
            created_at=float(payload.get("created_at", 0.0)),
        )


@dataclass(frozen=True)
class UpdateRecord:
    """One dataset update, in the vocabulary the engine's update API speaks.

    ``op`` is ``"insert"`` or ``"delete"``; ``values`` carries the record's
    attribute row (for deletes it is informational — the engine deletes by
    id).  Applying a :class:`SnapshotDiff`'s records in order as one
    :meth:`Engine.apply_updates` batch transforms the base snapshot's state
    into the target's, byte-identically.
    """

    op: str
    record_id: int
    values: np.ndarray


@dataclass(frozen=True)
class SnapshotDiff:
    """The insert/delete delta between two committed snapshots.

    ``deletes`` lists records live in the base but not the target,
    ``inserts`` records live in the target but not the base — each in
    ascending record-id order, which (ids being issued monotonically) is
    chronological order.  :attr:`updates` is the replay sequence: all
    deletes, then all inserts, reproducing the target's row order exactly
    (the engine's row store keeps surviving rows in place and appends new
    ones).
    """

    base: str
    target: str
    deletes: tuple[UpdateRecord, ...]
    inserts: tuple[UpdateRecord, ...]

    @property
    def updates(self) -> tuple[UpdateRecord, ...]:
        """Deletes then inserts — the order a replay must apply them in."""
        return self.deletes + self.inserts

    def __len__(self) -> int:
        return len(self.deletes) + len(self.inserts)

    @property
    def is_empty(self) -> bool:
        return not self.deletes and not self.inserts


class SnapshotStore:
    """Immutable, versioned snapshot storage rooted at one directory.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  One store per
        logical dataset history; concurrent *readers* are always safe,
        concurrent committers of the *same* state converge on one snapshot
        (last atomic rename wins, bytes identical either way).

    Notes
    -----
    The store never deletes or rewrites a committed snapshot — history only
    grows.  Counters mirror the engine's observability conventions and are
    exported under canonical ``snapshot.*`` names by
    :meth:`metrics_registry`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._snapshot_dir = self.root / "snapshots"
        self._cache_dir = self.root / "caches"
        self._lineage_path = self.root / "lineage.jsonl"
        self._snapshot_dir.mkdir(parents=True, exist_ok=True)
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        self.commits = 0
        self.commits_deduped = 0
        self.checkouts = 0
        self.verify_failures = 0
        self.diffs = 0
        self.cache_saves = 0
        self.cache_loads = 0
        self.restores = 0
        self.replayed_updates = 0
        self.restore_fallbacks = 0

    # ------------------------------------------------------------------ #
    # path scheme
    # ------------------------------------------------------------------ #
    def _meta_path(self, snapshot_id: str) -> Path:
        return self._snapshot_dir / f"{snapshot_id}.meta.json"

    def _values_path(self, snapshot_id: str) -> Path:
        return self._snapshot_dir / f"{snapshot_id}.values.npy"

    def _ids_path(self, snapshot_id: str) -> Path:
        return self._snapshot_dir / f"{snapshot_id}.ids.npy"

    def _results_path(self, snapshot_id: str) -> Path:
        return self._cache_dir / f"{snapshot_id}.results.pkl"

    def _partials_path(self, snapshot_id: str) -> Path:
        return self._cache_dir / f"{snapshot_id}.partials.pkl"

    def _standing_path(self, snapshot_id: str) -> Path:
        return self._cache_dir / f"{snapshot_id}.standing.pkl"

    @staticmethod
    def _write_atomic(path: Path, payload: bytes) -> None:
        """Write ``payload`` to ``path`` via tmp-file + fsync + atomic rename.

        A crash before the final ``os.replace`` leaves only a ``*.tmp``
        sibling (ignored by every read path); a crash after it leaves the
        complete new file.  No reader can ever observe a partial write.
        """
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            try:
                if tmp.exists():
                    tmp.unlink()
            # analyze: ignore[EXC001] -- best-effort tmp cleanup; debris is harmless (readers skip *.tmp)
            except OSError:
                pass

    @staticmethod
    def _array_bytes(array: np.ndarray) -> bytes:
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
        return buffer.getvalue()

    # ------------------------------------------------------------------ #
    # commit
    # ------------------------------------------------------------------ #
    def commit(self, dataset: Dataset, parent: str | None = None) -> str:
        """Persist one dataset state; return its snapshot id.

        Idempotent: committing a state that is already in the store is a
        counted no-op returning the existing id.  ``parent`` records the
        snapshot this state evolved from (lineage metadata only — it does
        not participate in the id, so the same state reached along two
        histories still dedupes).  The payload files are written first and
        ``meta.json`` last, making the metadata write the commit point.
        """
        snapshot_id = snapshot_id_of(dataset)
        if self._meta_path(snapshot_id).exists():
            self.commits_deduped += 1
            return snapshot_id
        if parent is not None and not self._meta_path(parent).exists():
            raise SnapshotError(f"parent snapshot {parent!r} is not in the store")
        meta = SnapshotMeta(
            snapshot_id=snapshot_id,
            fingerprint=dataset.fingerprint(),
            id_high_watermark=dataset.id_high_watermark,
            name=dataset.name,
            cardinality=dataset.cardinality,
            dimensionality=dataset.dimensionality,
            parent=parent,
            created_at=time.time(),
        )
        self._write_atomic(self._values_path(snapshot_id), self._array_bytes(dataset.values))
        self._write_atomic(self._ids_path(snapshot_id), self._array_bytes(dataset.ids))
        self._write_atomic(
            self._meta_path(snapshot_id),
            json.dumps(meta.as_dict(), sort_keys=True).encode("utf-8"),
        )
        # Audit log entry *after* the commit point: lineage.jsonl is a
        # convenience index, never the source of truth, so a crash between
        # the meta write and this append loses nothing a meta scan cannot
        # reconstruct.
        line = json.dumps(
            {"snapshot_id": snapshot_id, "parent": parent, "created_at": meta.created_at},
            sort_keys=True,
        )
        with open(self._lineage_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        self.commits += 1
        return snapshot_id

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def __contains__(self, snapshot_id: str) -> bool:
        return self._meta_path(snapshot_id).exists()

    def meta(self, snapshot_id: str) -> SnapshotMeta:
        """The committed metadata of one snapshot."""
        path = self._meta_path(snapshot_id)
        if not path.exists():
            raise SnapshotError(f"unknown snapshot {snapshot_id!r}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot {snapshot_id!r} has unreadable metadata: {exc}"
            ) from exc
        return SnapshotMeta.from_dict(payload)

    def snapshot_ids(self) -> list[str]:
        """Every committed snapshot id, oldest first.

        Derived by scanning the committed ``meta.json`` documents (ordered
        by commit time, id as tie-break) — crash debris and cache files are
        invisible here because only a completed metadata write makes a
        snapshot exist.
        """
        metas = []
        for path in self._snapshot_dir.glob("*.meta.json"):
            snapshot_id = path.name[: -len(".meta.json")]
            try:
                metas.append(self.meta(snapshot_id))
            except SnapshotError:
                # A torn metadata file is treated as an uncommitted snapshot:
                # skipping it keeps every *successfully* committed version
                # readable after a crash.
                continue
        metas.sort(key=lambda m: (m.created_at, m.snapshot_id))
        return [m.snapshot_id for m in metas]

    def latest(self) -> str | None:
        """The most recently committed snapshot id, or None for an empty store."""
        ids = self.snapshot_ids()
        return ids[-1] if ids else None

    def lineage(self, snapshot_id: str) -> list[str]:
        """Ancestry chain of a snapshot, root first, ``snapshot_id`` last."""
        chain: list[str] = []
        seen: set[str] = set()
        cursor: str | None = snapshot_id
        while cursor is not None:
            if cursor in seen:
                raise SnapshotError(f"lineage of {snapshot_id!r} contains a cycle")
            seen.add(cursor)
            chain.append(cursor)
            cursor = self.meta(cursor).parent
        chain.reverse()
        return chain

    def size_bytes(self) -> int:
        """Total committed bytes (payloads, metadata, caches, audit log)."""
        total = 0
        for directory in (self._snapshot_dir, self._cache_dir):
            for path in directory.iterdir():
                if path.name.endswith(".tmp"):
                    continue
                total += path.stat().st_size
        if self._lineage_path.exists():
            total += self._lineage_path.stat().st_size
        return total

    # ------------------------------------------------------------------ #
    # checkout
    # ------------------------------------------------------------------ #
    def checkout(self, snapshot_id: str) -> Dataset:
        """Reconstruct the committed dataset, verified byte-for-byte.

        The returned dataset is indistinguishable from the one that was
        committed: same values, ids, row order, name and id high-watermark.
        The content fingerprint is recomputed from the decoded payload and
        compared against the metadata; a mismatch (bit rot, truncation,
        tampering) raises :class:`SnapshotIntegrityError` rather than
        serving corrupt data.
        """
        meta = self.meta(snapshot_id)
        values = self._load_array(self._values_path(snapshot_id), snapshot_id)
        ids = self._load_array(self._ids_path(snapshot_id), snapshot_id)
        try:
            dataset = Dataset(
                values,
                ids=ids,
                name=meta.name,
                id_high_watermark=meta.id_high_watermark,
            )
        except Exception as exc:
            raise SnapshotIntegrityError(
                f"snapshot {snapshot_id!r} payload does not decode to a valid "
                f"dataset: {exc}"
            ) from exc
        if dataset.fingerprint() != meta.fingerprint:
            self.verify_failures += 1
            raise SnapshotIntegrityError(
                f"snapshot {snapshot_id!r} failed fingerprint verification: "
                f"committed {meta.fingerprint[:12]}..., "
                f"loaded {dataset.fingerprint()[:12]}..."
            )
        self.checkouts += 1
        return dataset

    def _load_array(self, path: Path, snapshot_id: str) -> np.ndarray:
        if not path.exists():
            self.verify_failures += 1
            raise SnapshotIntegrityError(
                f"snapshot {snapshot_id!r} is missing its payload file {path.name!r}"
            )
        try:
            return np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            self.verify_failures += 1
            raise SnapshotIntegrityError(
                f"snapshot {snapshot_id!r} payload {path.name!r} is unreadable: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # diff
    # ------------------------------------------------------------------ #
    def diff(self, base: str, target: str) -> SnapshotDiff:
        """The insert/delete delta transforming ``base`` into ``target``.

        Because record ids are never recycled, set difference on ids is the
        whole story: a shared id always names the same record, and the store
        verifies that invariant (differing values under one id raise
        :class:`SnapshotError` — such states cannot arise from engine
        updates and a replay could not reproduce them).
        """
        base_data = self.checkout(base)
        target_data = self.checkout(target)
        base_rows = {int(rid): row for rid, row in zip(base_data.ids, base_data.values)}
        target_rows = {int(rid): row for rid, row in zip(target_data.ids, target_data.values)}
        for rid in base_rows.keys() & target_rows.keys():
            if not np.array_equal(base_rows[rid], target_rows[rid]):
                raise SnapshotError(
                    f"snapshots {base!r} and {target!r} disagree on record "
                    f"{rid}; deltas are insert/delete only (ids are never "
                    "recycled, so one id must always name one record)"
                )
        deletes = tuple(
            UpdateRecord("delete", rid, base_rows[rid])
            for rid in sorted(base_rows.keys() - target_rows.keys())
        )
        inserts = tuple(
            UpdateRecord("insert", rid, target_rows[rid])
            for rid in sorted(target_rows.keys() - base_rows.keys())
        )
        self.diffs += 1
        return SnapshotDiff(base=base, target=target, deletes=deletes, inserts=inserts)

    # ------------------------------------------------------------------ #
    # cache persistence (delegates to repro.snapshot.persist)
    # ------------------------------------------------------------------ #
    def save_caches(self, snapshot_id: str, result_entries, partial_entries) -> tuple[int, int]:
        """Persist cache entries keyed on one committed snapshot.

        Only entries whose fingerprint matches the snapshot's are written
        (the caches are meaningless against any other state).  Live
        suspended generators cannot serialise, so paused-stream checkpoints
        are stored as *replay recipes* (see
        :class:`~repro.snapshot.persist.ReplayCheckpoint`); checkpoints
        without a recorded recipe are skipped.  Returns the
        ``(results, partials)`` counts actually written.
        """
        from .persist import dump_partial_entries, dump_result_entries

        meta = self.meta(snapshot_id)
        saved_results = dump_result_entries(
            self, self._results_path(snapshot_id), meta.fingerprint, result_entries
        )
        saved_partials = dump_partial_entries(
            self, self._partials_path(snapshot_id), meta.fingerprint, partial_entries
        )
        self.cache_saves += 1
        return saved_results, saved_partials

    def has_caches(self, snapshot_id: str) -> bool:
        """Whether any persisted cache file exists for this snapshot."""
        return (
            self._results_path(snapshot_id).exists()
            or self._partials_path(snapshot_id).exists()
        )

    def save_standing(self, snapshot_id: str, registrations: list) -> int:
        """Persist standing-query registrations next to the snapshot's caches.

        ``registrations`` come from
        :meth:`repro.live.LiveSession.registrations`; a later
        :meth:`load_standing` (or
        :meth:`repro.live.LiveSession.from_snapshot`) re-arms them
        against a restored engine.  Returns the count written.
        """
        from .persist import dump_standing_records

        meta = self.meta(snapshot_id)
        written = dump_standing_records(
            self, self._standing_path(snapshot_id), meta.fingerprint, registrations
        )
        self.cache_saves += 1
        return written

    def load_standing(self, snapshot_id: str) -> list:
        """Persisted standing-query registrations for one snapshot.

        Missing or torn files yield an empty list — re-arming is an
        availability feature, never a correctness requirement.
        """
        from .persist import load_standing_records

        meta = self.meta(snapshot_id)
        records = load_standing_records(self._standing_path(snapshot_id), meta.fingerprint)
        if records:
            self.cache_loads += 1
        return records

    def load_result_entries(self, snapshot_id: str) -> list:
        """Persisted result-cache entries for one snapshot (LRU order).

        Missing cache files yield an empty list — cache persistence is an
        optimisation, never a correctness requirement.  Entries whose
        fingerprint does not match the snapshot's committed one are dropped
        defensively.
        """
        from .persist import load_result_entries

        meta = self.meta(snapshot_id)
        entries = load_result_entries(self._results_path(snapshot_id), meta.fingerprint)
        if entries:
            self.cache_loads += 1
        return entries

    def load_partial_entries(self, snapshot_id: str) -> list:
        """Persisted paused-stream checkpoints for one snapshot (LRU order).

        Each returned entry's value is a
        :class:`~repro.snapshot.persist.ReplayCheckpoint`; the engine
        rehydrates it into a live stream on first resume.
        """
        from .persist import load_partial_entries

        meta = self.meta(snapshot_id)
        entries = load_partial_entries(self._partials_path(snapshot_id), meta.fingerprint)
        if entries:
            self.cache_loads += 1
        return entries

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics_registry(self) -> MetricsRegistry:
        """Every store counter under its canonical ``snapshot.*`` name."""
        registry = MetricsRegistry()
        counters = {
            "snapshot.commits": self.commits,
            "snapshot.commits.deduped": self.commits_deduped,
            "snapshot.checkouts": self.checkouts,
            "snapshot.verify.failures": self.verify_failures,
            "snapshot.diffs": self.diffs,
            "snapshot.cache.saves": self.cache_saves,
            "snapshot.cache.loads": self.cache_loads,
            "snapshot.restore.engines": self.restores,
            "snapshot.restore.replayed_updates": self.replayed_updates,
            "snapshot.restore.fallbacks": self.restore_fallbacks,
        }
        for name, value in counters.items():
            registry.counter(name).inc(value)
        registry.gauge("snapshot.store.snapshots").set(len(self.snapshot_ids()))
        registry.gauge("snapshot.store.bytes").set(self.size_bytes())
        return registry

    def metrics(self) -> dict[str, float]:
        """Flat ``{canonical name: value}`` snapshot of the store counters."""
        return self.metrics_registry().snapshot()
