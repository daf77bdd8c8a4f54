"""Aggregate R-tree over the dataset (STR bulk loading).

The paper indexes the dataset with an aggregate R-tree [24]: a regular R-tree
whose internal entries additionally store the number of records in their
subtree.  LP-CTA's group bounds (Section 6.2) use the MBR corners and the
aggregate counts; P-CTA's skyline batches are computed by a branch-and-bound
traversal of the same index; and the disk-based experiments of Appendix A
charge one page access per node visit.

This implementation bulk-loads the tree with the Sort-Tile-Recursive (STR)
algorithm, which produces well-clustered nodes in one pass and is the standard
choice when the data is known up front.  Node accesses are tracked by an
:class:`IOCounter` so experiments can report simulated I/O cost without a real
buffer pool.

For serving scenarios where the dataset changes over time (see
:mod:`repro.engine`), the tree also supports *incremental maintenance*:
:meth:`AggregateRTree.insert_position` adds one record with the classic
least-enlargement descent (splitting overflowing nodes along their longest
MBR axis), and :meth:`AggregateRTree.delete_position` removes one, condensing
empty nodes and shrinking MBRs / aggregate counts on the way back up.  Both
run in O(height · fanout) instead of the O(n log n) full rebuild.  At each
internal node the children's corners are stacked once: one array expression
gives every child's volume and enlargement (the pick keeps the first child
with the least enlargement, then the least volume), and one gives the
children that contain a deleted point.  Rectangles made on this path are a
min/max of valid rectangles or finite points, so they skip
:class:`~repro.index.mbr.MBR` validation.  The tree comes out node for node
as a per-child scan would build it (``tests/test_index_rtree_identity.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import InvalidDatasetError
from ..records import Dataset
from .mbr import MBR

__all__ = ["IOCounter", "RTreeNode", "AggregateRTree"]

#: Default maximum number of entries per node.
DEFAULT_FANOUT = 32


@dataclass
class IOCounter:
    """Counts node (page) accesses performed on the index."""

    node_reads: int = 0

    def reset(self) -> None:
        """Zero the counter (typically at the start of a query)."""
        self.node_reads = 0

    def read(self, count: int = 1) -> None:
        """Record ``count`` node accesses."""
        self.node_reads += count


@dataclass
class RTreeNode:
    """A node of the aggregate R-tree.

    Leaf nodes store the positional indices of their records in the dataset;
    internal nodes store child nodes.  Every node carries its MBR and the
    total number of records in its subtree (the aggregate of the paper).
    """

    mbr: MBR
    count: int
    level: int
    children: list["RTreeNode"] = field(default_factory=list)
    record_positions: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        """True for leaf nodes (which hold record positions)."""
        return self.record_positions is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return f"RTreeNode({kind}, level={self.level}, count={self.count})"


def _str_partition(order: np.ndarray, values: np.ndarray, group_size: int, axis: int) -> list[np.ndarray]:
    """Recursive Sort-Tile-Recursive grouping of record positions."""
    if order.shape[0] <= group_size:
        return [order]
    dimensionality = values.shape[1]
    if axis >= dimensionality:
        # All axes consumed: chop sequentially.
        return [order[i : i + group_size] for i in range(0, order.shape[0], group_size)]
    sorted_order = order[np.argsort(values[order, axis], kind="stable")]
    group_count = math.ceil(sorted_order.shape[0] / group_size)
    remaining_axes = dimensionality - axis - 1
    slabs = max(1, math.ceil(group_count ** (1.0 / (remaining_axes + 1))))
    slab_size = math.ceil(sorted_order.shape[0] / slabs)
    partitions: list[np.ndarray] = []
    for start in range(0, sorted_order.shape[0], slab_size):
        slab = sorted_order[start : start + slab_size]
        partitions.extend(_str_partition(slab, values, group_size, axis + 1))
    return partitions


class AggregateRTree:
    """STR bulk-loaded aggregate R-tree over a :class:`~repro.records.Dataset`."""

    def __init__(self, dataset: Dataset, fanout: int = DEFAULT_FANOUT, aggregate: bool = True) -> None:
        if fanout < 2:
            raise InvalidDatasetError("R-tree fanout must be at least 2")
        self.dataset = dataset
        self.fanout = fanout
        #: Whether subtree counts are maintained (plain R-trees set this to False;
        #: the tree structure is identical, only bookkeeping differs).
        self.aggregate = aggregate
        self.io = IOCounter()
        start = time.perf_counter()
        self.root = self._bulk_load()
        #: Wall-clock seconds spent bulk loading (Appendix D experiment).
        self.build_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _bulk_load(self) -> RTreeNode:
        values = self.dataset.values
        n = values.shape[0]
        if n == 0:
            empty = MBR(np.zeros(self.dataset.dimensionality), np.zeros(self.dataset.dimensionality))
            return RTreeNode(mbr=empty, count=0, level=0, record_positions=np.array([], dtype=int))

        positions = np.arange(n)
        leaf_groups = _str_partition(positions, values, self.fanout, axis=0)
        nodes = [
            RTreeNode(
                mbr=MBR.of(values[group]),
                count=int(group.shape[0]),
                level=0,
                record_positions=np.asarray(group, dtype=int),
            )
            for group in leaf_groups
        ]
        level = 0
        while len(nodes) > 1:
            level += 1
            centers = np.array([(node.mbr.low + node.mbr.high) / 2.0 for node in nodes])
            order = np.arange(len(nodes))
            groups = _str_partition(order, centers, self.fanout, axis=0)
            parents: list[RTreeNode] = []
            for group in groups:
                children = [nodes[i] for i in group]
                mbr = children[0].mbr
                for child in children[1:]:
                    mbr = mbr.union(child.mbr)
                parents.append(
                    RTreeNode(
                        mbr=mbr,
                        count=sum(child.count for child in children),
                        level=level,
                        children=children,
                    )
                )
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def rebind_dataset(self, dataset) -> None:
        """Swap the backing dataset (or dataset-shaped row-store view) of the tree.

        Any object exposing ``values``, ``ids``, ``cardinality`` and
        ``dimensionality`` works.  Every record position currently stored in
        a leaf must refer to the same attribute values in the new backing —
        i.e. it may only *append* rows relative to the old one (an
        append-only row store with stable positions, as maintained by
        :class:`repro.engine.Engine`).
        """
        if dataset.dimensionality != self.dataset.dimensionality:
            raise InvalidDatasetError("rebound dataset must keep the same dimensionality")
        if dataset.cardinality < self.dataset.cardinality:
            raise InvalidDatasetError("rebound dataset must not drop existing rows")
        self.dataset = dataset

    def insert_position(self, position: int) -> None:
        """Insert the record stored at ``position`` of the backing dataset.

        Classic R-tree insertion: descend along the child needing the least
        MBR enlargement, append to the reached leaf, split overflowing nodes
        along the longest axis of their MBR and propagate splits upward
        (growing the tree by one level when the root itself splits).
        """
        position = int(position)
        point = self.dataset.values[position]
        if self.root.count == 0:
            self.root = RTreeNode(
                mbr=MBR._unchecked(point.copy(), point.copy()),
                count=1,
                level=0,
                record_positions=np.array([position], dtype=int),
            )
            return
        sibling = self._insert_into(self.root, position, point)
        if sibling is not None:
            old_root = self.root
            self.root = RTreeNode(
                mbr=old_root.mbr.union(sibling.mbr),
                count=old_root.count + sibling.count,
                level=old_root.level + 1,
                children=[old_root, sibling],
            )

    def delete_position(self, position: int) -> None:
        """Remove the record stored at ``position`` from the tree.

        The leaf holding the record is located through MBR containment, the
        entry is removed, and MBRs / aggregate counts are tightened on the way
        back to the root.  Nodes left empty are discarded and a root with a
        single child is collapsed, so the tree never accumulates dead weight.
        Raises :class:`KeyError` if the position is not in the tree.
        """
        position = int(position)
        point = self.dataset.values[position]
        found = self.root.mbr.contains_point(point) and self._delete_from(self.root, position, point)
        if not found:
            raise KeyError(f"record position {position} is not in the R-tree")
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        if self.root.count == 0:
            zero = np.zeros(self.dataset.dimensionality)
            self.root = RTreeNode(
                mbr=MBR(zero, zero.copy()),
                count=0,
                level=0,
                record_positions=np.array([], dtype=int),
            )

    def _insert_into(self, node: RTreeNode, position: int, point: np.ndarray) -> RTreeNode | None:
        """Recursive insert; returns a freshly-split sibling of ``node`` or None."""
        node.mbr = MBR._unchecked(np.minimum(node.mbr.low, point), np.maximum(node.mbr.high, point))
        node.count += 1
        if node.is_leaf:
            node.record_positions = np.append(node.record_positions, position)
            if node.record_positions.shape[0] > self.fanout:
                return self._split_leaf(node)
            return None
        child = self._choose_child(node, point)
        sibling = self._insert_into(child, position, point)
        if sibling is not None:
            node.children.append(sibling)
            if len(node.children) > self.fanout:
                return self._split_internal(node)
        return None

    @staticmethod
    def _child_bounds(node: RTreeNode) -> tuple[np.ndarray, np.ndarray]:
        """The children's MBR corners stacked as two ``(children, d)`` arrays."""
        return (
            np.array([child.mbr.low for child in node.children]),
            np.array([child.mbr.high for child in node.children]),
        )

    def _choose_child(self, node: RTreeNode, point: np.ndarray) -> RTreeNode:
        """Child whose MBR needs the least volume enlargement (ties: smaller volume, then first)."""
        lows, highs = self._child_bounds(node)
        volume = np.prod(highs - lows, axis=1)
        enlargement = np.prod(np.maximum(highs, point) - np.minimum(lows, point), axis=1) - volume
        keys = list(zip(enlargement.tolist(), volume.tolist()))
        # ``min`` keeps the first of equal keys, and compares them exactly as
        # a per-child scan with ``key < best`` would.
        return node.children[min(range(len(keys)), key=keys.__getitem__)]

    def _split_leaf(self, node: RTreeNode) -> RTreeNode:
        """Split an overflowing leaf along the longest axis; mutates ``node`` in place."""
        positions = node.record_positions
        values = self.dataset.values[positions]
        axis = int(np.argmax(node.mbr.high - node.mbr.low))
        order = np.argsort(values[:, axis], kind="stable")
        half = positions.shape[0] // 2
        keep, move = positions[order[:half]], positions[order[half:]]
        node.record_positions = keep
        node.count = int(keep.shape[0])
        node.mbr = self._points_mbr(keep)
        return RTreeNode(
            mbr=self._points_mbr(move),
            count=int(move.shape[0]),
            level=node.level,
            record_positions=move,
        )

    def _points_mbr(self, positions: np.ndarray) -> MBR:
        """MBR of the (finite) records at ``positions``, built without re-checking."""
        points = self.dataset.values[positions]
        return MBR._unchecked(points.min(axis=0), points.max(axis=0))

    def _split_internal(self, node: RTreeNode) -> RTreeNode:
        """Split an overflowing internal node along the longest axis of its MBR."""
        axis = int(np.argmax(node.mbr.high - node.mbr.low))
        children = sorted(
            node.children, key=lambda child: float(child.mbr.low[axis] + child.mbr.high[axis])
        )
        half = len(children) // 2
        keep, move = children[:half], children[half:]

        def union_of(group: list[RTreeNode]) -> MBR:
            mbr = group[0].mbr
            for member in group[1:]:
                mbr = mbr.union(member.mbr)
            return mbr

        node.children = keep
        node.count = sum(child.count for child in keep)
        node.mbr = union_of(keep)
        return RTreeNode(
            mbr=union_of(move),
            count=sum(child.count for child in move),
            level=node.level,
            children=move,
        )

    def _delete_from(self, node: RTreeNode, position: int, point: np.ndarray) -> bool:
        """Recursive delete below a node containing ``point``; True if the position was removed."""
        if node.is_leaf:
            mask = node.record_positions != position
            if bool(np.all(mask)):
                return False
            node.record_positions = node.record_positions[mask]
            node.count = int(node.record_positions.shape[0])
            if node.count:
                node.mbr = self._points_mbr(node.record_positions)
            return True
        lows, highs = self._child_bounds(node)
        for index in np.flatnonzero(MBR.containing(lows, highs, point)).tolist():
            child = node.children[index]
            if self._delete_from(child, position, point):
                node.count -= 1
                if child.count == 0:
                    del node.children[index]
                    lows, highs = np.delete(lows, index, axis=0), np.delete(highs, index, axis=0)
                else:
                    lows[index], highs[index] = child.mbr.low, child.mbr.high
                if node.children:
                    node.mbr = MBR._unchecked(lows.min(axis=0), highs.max(axis=0))
                return True
        return False

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def height(self) -> int:
        """Number of levels in the tree (1 for a single leaf)."""
        return self.root.level + 1

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """Yield every node in depth-first order (does not touch the I/O counter)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def visit(self, node: RTreeNode) -> RTreeNode:
        """Register a node access with the I/O counter and return the node."""
        self.io.read()
        return node

    def records_under(self, node: RTreeNode) -> np.ndarray:
        """Positional indices of every record stored in ``node``'s subtree."""
        if node.is_leaf:
            return node.record_positions
        parts = [self.records_under(child) for child in node.children]
        return np.concatenate(parts) if parts else np.array([], dtype=int)

    def record_values(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Attribute rows for the given record positions."""
        return self.dataset.values[np.asarray(positions, dtype=int)]

    def record_ids(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Record identifiers for the given record positions."""
        return self.dataset.ids[np.asarray(positions, dtype=int)]

    def memory_bytes(self) -> int:
        """Rough size of the index in bytes (used by the space-consumption figure)."""
        total = 0
        for node in self.iter_nodes():
            total += 2 * node.mbr.low.nbytes + 64
            if node.is_leaf and node.record_positions is not None:
                total += node.record_positions.nbytes
        return total
