"""Skyline and k-skyband computation over the aggregate R-tree.

P-CTA (Section 5) fetches records to process in *skyline batches*: the first
batch is the skyline of the dataset, and subsequent batches are the skyline of
the dataset after ignoring the union of non-pivot records of all promising
cells.  The paper uses the incremental branch-and-bound skyline (BBS) of
Papadias et al.; this module implements a BBS-style best-first traversal of
the aggregate R-tree under the larger-is-better convention, with support for

* an *exclusion* set of record ids to ignore (used for skyline recomputation),
* the k-skyband (records dominated by fewer than ``k`` others), needed by the
  Appendix B competitor.

For multi-query serving (:mod:`repro.engine`) the module additionally provides
:class:`SkybandIndex`, an *incrementally maintained* dominator-count structure:
it stores, for every live record, the exact number of records dominating it,
and patches those counts in O(n·d) vectorised work per insertion or deletion
instead of recomputing the O(n²) counts from scratch.  Both the patch and the
initial counts run on the column-wise kernel
:func:`repro.index.dominance.order_masks`, which compares one attribute
column at a time over the whole row store (tombstones are masked out
afterwards, so no live-row gather is needed).  ``skyband_ids(k)`` then answers
"which records are in the k-skyband?" for any ``k`` in O(n), and
:meth:`SkybandIndex.snapshot` hands its live rows to a
:class:`~repro.records.Dataset` without re-validating them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..exceptions import InvalidDatasetError
from ..records import Dataset
from .dominance import dominated_counts, order_masks
from .rtree import AggregateRTree, RTreeNode

__all__ = ["skyline", "k_skyband", "skyband_counts", "SkybandIndex", "SkybandDelta"]


def _count_dominators(point: np.ndarray, frontier: list[np.ndarray]) -> int:
    """Number of frontier points dominating ``point``."""
    if not frontier:
        return 0
    at_most, at_least = order_masks(np.vstack(frontier), point)
    return int(np.count_nonzero(at_least & ~at_most))


def _best_first(tree: AggregateRTree, k: int, excluded: set[int]) -> dict[int, int]:
    """BBS traversal: record id -> dominators, for records dominated by fewer than ``k``.

    Records and nodes come off a heap in descending attribute-sum order, and
    one is pruned as soon as ``k`` already-accepted records dominate it (a
    node through its max-corner).  Records in ``excluded`` are skipped and
    never dominate anything.
    """
    dataset = tree.dataset
    accepted_values: list[np.ndarray] = []
    result: dict[int, int] = {}

    counter = itertools.count()
    heap: list[tuple[float, int, str, object]] = []

    def push_node(node: RTreeNode) -> None:
        heapq.heappush(heap, (-float(np.sum(node.mbr.high)), next(counter), "node", node))

    def push_record(position: int) -> None:
        heapq.heappush(
            heap,
            (-float(np.sum(dataset.values[position])), next(counter), "record", position),
        )

    push_node(tree.root)
    while heap:
        _, _, kind, payload = heapq.heappop(heap)
        if kind == "node":
            node: RTreeNode = tree.visit(payload)  # type: ignore[assignment]
            if _count_dominators(node.mbr.high, accepted_values) >= k:
                continue
            if node.is_leaf:
                for position in node.record_positions:
                    push_record(int(position))
            else:
                for child in node.children:
                    if _count_dominators(child.mbr.high, accepted_values) < k:
                        push_node(child)
            continue
        position = int(payload)  # type: ignore[arg-type]
        record_id = int(dataset.ids[position])
        if record_id in excluded:
            continue
        values = dataset.values[position]
        dominators = _count_dominators(values, accepted_values)
        if dominators >= k:
            continue
        accepted_values.append(values)
        result[record_id] = dominators
    return result


def skyline(tree: AggregateRTree, exclude_ids: Iterable[int] | None = None) -> list[int]:
    """Record ids forming the skyline, ignoring ``exclude_ids``.

    The traversal prunes nothing at the node level beyond ordering (node-level
    pruning against the current skyline is applied through the max-corner
    dominance test), which matches BBS behaviour: a node whose max-corner is
    dominated by a skyline record cannot contain skyline records.
    """
    excluded = set(int(x) for x in exclude_ids) if exclude_ids else set()
    return list(_best_first(tree, 1, excluded))


def skyband_counts(tree: AggregateRTree, k: int) -> dict[int, int]:
    """Record id -> number of dominators, for records dominated by fewer than ``k``.

    Implemented as a best-first traversal where a record or node is pruned as
    soon as ``k`` already-accepted records dominate it.
    """
    return _best_first(tree, k, set())


def k_skyband(tree: AggregateRTree, k: int) -> list[int]:
    """Record ids of the k-skyband (dominated by fewer than ``k`` other records)."""
    return list(skyband_counts(tree, k).keys())


@dataclass(frozen=True)
class SkybandDelta:
    """The record one :class:`SkybandIndex` insert or delete updated.

    Attributes
    ----------
    position:
        Row-store position of the inserted / deleted record.
    record_id:
        Its stable identifier.
    values:
        Its attribute vector.
    count:
        Its own dominator count (at insertion time, or just before deletion).
    """

    position: int
    record_id: int
    values: np.ndarray
    count: int


class SkybandIndex:
    """Exact per-record dominator counts with incremental insert / delete.

    The index keeps an append-only row store (positions are stable for the
    lifetime of a record) plus an *active* mask, so deletions never shift the
    positions other components — notably the shared aggregate R-tree of
    :class:`repro.engine.Engine` — may hold.
    """

    def __init__(self, dataset: Dataset) -> None:
        self._load(dataset, dominated_counts(dataset))

    @classmethod
    def _seeded(cls, dataset: Dataset, counts: np.ndarray) -> "SkybandIndex":
        """An index trusting ``counts`` (aligned with ``dataset``'s rows) without recounting."""
        index = cls.__new__(cls)
        index._load(dataset, counts)
        return index

    def _load(self, dataset: Dataset, counts: np.ndarray) -> None:
        n, d = dataset.cardinality, dataset.dimensionality
        capacity = max(8, 2 * n)
        # Column-major, so the dominance kernel reads each attribute column
        # contiguously.
        self._values = np.empty((capacity, d), dtype=float, order="F")
        self._values[:n] = dataset.values
        self._ids = np.empty(capacity, dtype=np.int64)
        self._ids[:n] = dataset.ids
        self._active = np.zeros(capacity, dtype=bool)
        self._active[:n] = True
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._counts[:n] = counts
        self._size = n
        self._position_by_id = {int(record_id): i for i, record_id in enumerate(dataset.ids)}

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def dimensionality(self) -> int:
        """Number of attributes per record."""
        return int(self._values.shape[1])

    @property
    def active_count(self) -> int:
        """Number of live records."""
        return len(self._position_by_id)

    def __contains__(self, record_id: int) -> bool:
        return int(record_id) in self._position_by_id

    def active_positions(self) -> np.ndarray:
        """Row-store positions of all live records, in insertion order."""
        return np.nonzero(self._active[: self._size])[0]

    def values_at(self, positions: np.ndarray | int) -> np.ndarray:
        """Attribute rows for the given row-store positions."""
        return self._values[positions]

    def ids_at(self, positions: np.ndarray | int) -> np.ndarray:
        """Record identifiers for the given row-store positions."""
        return self._ids[positions]

    def live_counts(self) -> np.ndarray:
        """Dominator counts of the live records, in row-store (snapshot) order."""
        return self._counts[self.active_positions()]

    def counts_by_id(self) -> dict[int, int]:
        """Mapping record id -> dominator count over all live records."""
        positions = self.active_positions()
        return {
            int(record_id): int(count)
            for record_id, count in zip(self._ids[positions], self._counts[positions])
        }

    def skyband_ids(self, k: int) -> set[int]:
        """Identifiers of the k-skyband (dominated by fewer than ``k`` records)."""
        positions = self.active_positions()
        mask = self._counts[positions] < k
        return {int(record_id) for record_id in self._ids[positions[mask]]}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def _grow(self) -> None:
        capacity = self._values.shape[0]
        if self._size < capacity:
            return
        new_capacity = 2 * capacity
        for name in ("_values", "_ids", "_active", "_counts"):
            old = getattr(self, name)
            shape = (new_capacity,) + old.shape[1:]
            grown = np.zeros(shape, dtype=old.dtype, order="F")
            grown[:capacity] = old
            setattr(self, name, grown)

    def insert(self, values: np.ndarray, record_id: int) -> SkybandDelta:
        """Add one record and patch every affected dominator count."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dimensionality,):
            raise InvalidDatasetError("inserted record dimensionality does not match")
        if not np.isfinite(values).all():
            raise InvalidDatasetError("inserted record values must be finite")
        record_id = int(record_id)
        if record_id in self._position_by_id:
            raise InvalidDatasetError(f"record id {record_id} is already live")
        self._grow()
        position = self._size

        live = self._active[:position]
        at_most, at_least = order_masks(self._values[:position], values)
        self._counts[:position] += at_most & ~at_least & live

        self._values[position] = values
        self._ids[position] = record_id
        self._active[position] = True
        self._counts[position] = np.count_nonzero(at_least & ~at_most & live)
        self._size += 1
        self._position_by_id[record_id] = position
        return SkybandDelta(
            position=position,
            record_id=record_id,
            values=values.copy(),
            count=int(self._counts[position]),
        )

    def delete(self, record_id: int) -> SkybandDelta:
        """Remove one record and patch every affected dominator count."""
        record_id = int(record_id)
        if record_id not in self._position_by_id:
            raise KeyError(f"no live record with id {record_id}")
        position = self._position_by_id.pop(record_id)
        values = self._values[position].copy()
        count = int(self._counts[position])
        self._active[position] = False

        at_most, at_least = order_masks(self._values[: self._size], values)
        self._counts[: self._size] -= at_most & ~at_least & self._active[: self._size]
        return SkybandDelta(
            position=position,
            record_id=record_id,
            values=values,
            count=count,
        )

    def snapshot(self, name: str = "dataset", id_high_watermark: int | None = None) -> Dataset:
        """Immutable :class:`~repro.records.Dataset` of the live records.

        ``id_high_watermark`` lets the owning engine stamp the snapshot with
        its monotone id allocator, so a snapshot taken after a
        delete-of-the-max-id never re-derives a lower watermark from the
        surviving ids (see :attr:`repro.records.Dataset.id_high_watermark`).
        """
        live = self._active[: self._size]
        return Dataset._trusted(
            np.compress(live, self._values[: self._size], axis=0),
            np.compress(live, self._ids[: self._size]),
            name,
            id_high_watermark,
        )

    def backing_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(values, ids)`` views over the row store, tombstones included.

        Positions index into these views and stay stable for the lifetime of
        a record, which is what lets an R-tree bound to them be maintained
        incrementally (see :meth:`repro.index.rtree.AggregateRTree.rebind_dataset`).
        The views are only valid until the next :meth:`insert` (which may grow
        the underlying arrays); re-fetch after every update.
        """
        return self._values[: self._size], self._ids[: self._size]


def skyline_reference(dataset: Dataset) -> list[int]:
    """O(n^2) skyline used as ground truth by the test-suite."""
    counts = dominated_counts(dataset)
    return [int(record_id) for record_id, count in zip(dataset.ids, counts) if count == 0]


def k_skyband_reference(dataset: Dataset, k: int) -> list[int]:
    """O(n^2) k-skyband used as ground truth by the test-suite."""
    counts = dominated_counts(dataset)
    return [int(record_id) for record_id, count in zip(dataset.ids, counts) if count < k]
