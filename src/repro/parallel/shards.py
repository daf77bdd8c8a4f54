"""Shard planning for multi-core kSPR execution.

Two complementary sharding granularities are used by :mod:`repro.parallel`:

* **per-focal shards** — a multi-query workload is partitioned so that every
  query sharing a focal record lands on the same worker (prepared per-focal
  state and result deduplication then work within the worker exactly as they
  do inside :class:`repro.engine.Engine`).  Groups are balanced across
  workers with the classic longest-processing-time heuristic.
* **per-subtree shards** — a single query's CellTree expansion is partitioned
  by re-rooting workers at the active leaves of a partially expanded tree
  (:class:`SubtreeShard` carries everything a worker needs to grow one
  subtree: the leaf's cell and rank offset).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ..core.celltree import Cell

__all__ = ["SubtreeShard", "plan_focal_shards", "resolve_workers"]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` means all available cores."""
    if workers is None:
        return os.cpu_count() or 1
    return max(1, int(workers))


@dataclass(frozen=True)
class SubtreeShard:
    """One unit of per-subtree work: an active leaf of the seed CellTree.

    Attributes
    ----------
    index:
        Position of the leaf in the seed tree's depth-first traversal —
        merging shard outputs in ``index`` order reproduces the exact cell
        order of the single-process run.  The driver keeps the leaf's
        root-path halfspaces under this index and prefixes every reported
        cell's bounding halfspaces with them; the worker never needs them.
    cell:
        The leaf's :class:`~repro.core.celltree.Cell` — its rows, cached
        witnesses and any vertices already enumerated — from which the
        worker grows its tree (``CellTree(root=cell)``), so its rows,
        witness shortcuts and vertex certificates are the ones the leaf
        would have had in the single-process run.
    rank_offset:
        Positive halfspaces accumulated on the root path (``rank() - 1``).
        The worker operates with ``k_local = k - rank_offset`` and reports
        ranks shifted back by the offset.
    """

    index: int
    cell: Cell
    rank_offset: int


def plan_focal_shards(focal_keys: Sequence[bytes], workers: int) -> list[list[int]]:
    """Partition query indices into per-worker shards, grouped by focal record.

    Queries with the same ``focal_keys`` entry are kept together (their
    prepared state is shared), and groups are assigned greedily — largest
    group first, to the least-loaded worker — so shard sizes stay balanced.
    The plan is deterministic: ties break on the group's first query index
    and the lowest worker slot.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    groups: dict[bytes, list[int]] = {}
    for index, key in enumerate(focal_keys):
        groups.setdefault(key, []).append(index)
    ordered = sorted(groups.values(), key=lambda group: (-len(group), group[0]))
    plan: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for group in ordered:
        slot = min(range(workers), key=lambda i: (loads[i], i))
        plan[slot].extend(group)
        loads[slot] += len(group)
    return [shard for shard in plan if shard]
