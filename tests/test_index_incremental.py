"""Tests for incremental index maintenance: R-tree insert/delete, SkybandIndex."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset
from repro.data import independent_dataset
from repro.exceptions import InvalidDatasetError
from repro.index.dominance import dominated_counts, dominates
from repro.index.rtree import AggregateRTree
from repro.index.skyline import (
    SkybandIndex,
    k_skyband_reference,
    skyline,
    skyline_reference,
)


def tree_invariants(tree: AggregateRTree, expected_positions: set[int]) -> None:
    """Structural invariants every (maintained) aggregate R-tree must satisfy."""
    seen: list[int] = []
    for node in tree.iter_nodes():
        if node.is_leaf:
            seen.extend(int(p) for p in node.record_positions)
            if node.record_positions.shape[0]:
                points = tree.dataset.values[node.record_positions]
                assert np.all(points >= node.mbr.low - 1e-12)
                assert np.all(points <= node.mbr.high + 1e-12)
            assert node.count == node.record_positions.shape[0]
        else:
            assert node.children, "internal nodes must have children"
            assert node.count == sum(child.count for child in node.children)
            for child in node.children:
                assert np.all(child.mbr.low >= node.mbr.low - 1e-12)
                assert np.all(child.mbr.high <= node.mbr.high + 1e-12)
    assert sorted(seen) == sorted(expected_positions)
    assert tree.root.count == len(expected_positions)


class TestIncrementalRTree:
    def test_insert_positions_after_rebind(self):
        base = independent_dataset(40, 3, seed=31)
        extra = independent_dataset(25, 3, seed=32)
        tree = AggregateRTree(base, fanout=4)
        combined = Dataset(
            np.vstack([base.values, extra.values]),
            ids=np.arange(65),
        )
        tree.rebind_dataset(combined)
        for position in range(40, 65):
            tree.insert_position(position)
        tree_invariants(tree, set(range(65)))
        # The maintained tree must answer skyline queries exactly.
        assert sorted(skyline(tree)) == sorted(skyline_reference(combined))

    def test_delete_positions(self):
        dataset = independent_dataset(50, 3, seed=33)
        tree = AggregateRTree(dataset, fanout=4)
        removed = {3, 11, 27, 42, 49}
        for position in removed:
            tree.delete_position(position)
        remaining = set(range(50)) - removed
        tree_invariants(tree, remaining)
        survivors = dataset.subset(sorted(remaining))
        assert sorted(skyline(tree)) == sorted(skyline_reference(survivors))

    def test_delete_unknown_position_raises(self):
        dataset = independent_dataset(10, 2, seed=34)
        tree = AggregateRTree(dataset, fanout=4)
        tree.delete_position(4)
        with pytest.raises(KeyError):
            tree.delete_position(4)

    def test_delete_down_to_empty_then_reinsert(self):
        dataset = independent_dataset(12, 2, seed=35)
        tree = AggregateRTree(dataset, fanout=3)
        for position in range(12):
            tree.delete_position(position)
        assert tree.root.count == 0
        for position in range(12):
            tree.insert_position(position)
        tree_invariants(tree, set(range(12)))

    def test_interleaved_churn_keeps_tree_consistent(self):
        rng = np.random.default_rng(36)
        base = independent_dataset(30, 3, seed=36)
        extra_values = rng.random((40, 3))
        all_values = np.vstack([base.values, extra_values])
        backing = Dataset(all_values, ids=np.arange(70))
        tree = AggregateRTree(base, fanout=4)
        tree.rebind_dataset(backing)

        live = set(range(30))
        next_new = 30
        for step in range(60):
            if (step % 3 != 2 and next_new < 70) or len(live) < 5:
                tree.insert_position(next_new)
                live.add(next_new)
                next_new += 1
            else:
                victim = int(rng.choice(sorted(live)))
                tree.delete_position(victim)
                live.remove(victim)
        tree_invariants(tree, live)
        survivors = backing.subset(sorted(live))
        assert sorted(skyline(tree)) == sorted(
            skyline_reference(survivors)
        )

    def test_rebind_rejects_incompatible_datasets(self):
        dataset = independent_dataset(10, 3, seed=37)
        tree = AggregateRTree(dataset, fanout=4)
        with pytest.raises(InvalidDatasetError):
            tree.rebind_dataset(independent_dataset(10, 4, seed=38))
        with pytest.raises(InvalidDatasetError):
            tree.rebind_dataset(independent_dataset(5, 3, seed=39))


class TestSkybandIndex:
    def test_initial_counts_match_reference(self):
        dataset = independent_dataset(60, 3, seed=41)
        index = SkybandIndex(dataset)
        reference = dominated_counts(dataset)
        assert index.counts_by_id() == {
            int(record_id): int(count)
            for record_id, count in zip(dataset.ids, reference)
        }

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_skyband_ids_match_reference(self, k):
        dataset = independent_dataset(60, 3, seed=42)
        index = SkybandIndex(dataset)
        assert index.skyband_ids(k) == set(k_skyband_reference(dataset, k))

    def test_incremental_updates_track_full_recomputation(self):
        rng = np.random.default_rng(43)
        dataset = independent_dataset(40, 3, seed=43)
        index = SkybandIndex(dataset)
        next_id = dataset.next_record_id()
        for step in range(50):
            if step % 3 != 2 or index.active_count < 5:
                index.insert(rng.random(3), next_id)
                next_id += 1
            else:
                live_ids = sorted(index.counts_by_id())
                index.delete(int(rng.choice(live_ids)))
            snapshot = index.snapshot()
            reference = dominated_counts(snapshot)
            assert index.counts_by_id() == {
                int(record_id): int(count)
                for record_id, count in zip(snapshot.ids, reference)
            }

    def test_delta_reports_changed_records(self):
        values = np.array([[0.5, 0.5], [0.2, 0.2], [0.8, 0.1]])
        index = SkybandIndex(Dataset(values))
        assert index.counts_by_id() == {0: 0, 1: 1, 2: 0}
        delta = index.insert(np.array([0.6, 0.6]), 3)
        # The new record dominates records 0 and 1 but not 2.
        assert index.counts_by_id() == {0: 1, 1: 2, 2: 0, 3: 0}
        assert (delta.record_id, delta.count) == (3, 0)
        removal = index.delete(3)
        assert (removal.record_id, removal.count) == (3, 0)
        assert index.counts_by_id() == {0: 0, 1: 1, 2: 0}

    def test_duplicate_or_unknown_ids_rejected(self):
        index = SkybandIndex(independent_dataset(5, 2, seed=44))
        with pytest.raises(InvalidDatasetError):
            index.insert(np.array([0.5, 0.5]), 2)  # id 2 is live
        with pytest.raises(KeyError):
            index.delete(99)

    def test_capacity_growth_preserves_state(self):
        dataset = independent_dataset(4, 2, seed=45)
        index = SkybandIndex(dataset)
        rng = np.random.default_rng(45)
        for offset in range(30):  # force several capacity doublings
            index.insert(rng.random(2), 4 + offset)
        snapshot = index.snapshot()
        assert snapshot.cardinality == 34
        reference = dominated_counts(snapshot)
        assert index.counts_by_id() == {
            int(record_id): int(count)
            for record_id, count in zip(snapshot.ids, reference)
        }


@st.composite
def _tie_heavy_updates(draw):
    """A small-integer dataset (duplicates and ties likely) plus an update script."""
    d = draw(st.integers(min_value=2, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=3), min_size=d, max_size=d)
    initial = draw(st.lists(row, min_size=1, max_size=12))
    script = draw(
        st.lists(
            st.tuples(st.booleans(), row, st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=20,
        )
    )
    return initial, script


class TestRuleFourInvariant:
    """No update moves another record across the updated record's band.

    The engine keeps a pruned cache entry for ``(focal, k)`` across an
    update of a competitor ``r`` with ``c >= k`` dominators (rule 4 in
    :mod:`repro.engine.engine`) without looking at any other record.  That
    is sound only because the update changes the counts of just the records
    ``r`` dominates, and ``r``'s dominators dominate those records too: each
    ends with at least ``c + 1`` dominators after an insert and at least
    ``c`` after a delete, so it sits outside every k-skyband with ``k <= c``
    on both sides of the update.
    """

    @settings(max_examples=300, deadline=None)
    @given(_tie_heavy_updates())
    def test_records_dominated_by_the_update_stay_out_of_its_band(self, case):
        initial, script = case
        index = SkybandIndex(Dataset(np.asarray(initial, dtype=float)))
        next_id = len(initial)
        for insert, row, pick in script:
            before = index.counts_by_id()
            if insert or len(before) == 1:
                delta = index.insert(np.asarray(row, dtype=float), next_id)
                next_id += 1
                floor = delta.count + 1
            else:
                delta = index.delete(sorted(before)[pick % len(before)])
                floor = delta.count
            after = index.counts_by_id()
            changed = {rid for rid in before.keys() & after.keys() if before[rid] != after[rid]}
            snapshot = index.snapshot()
            dominated = {
                int(rid)
                for rid, values in zip(snapshot.ids, snapshot.values)
                if dominates(delta.values, values)
            }
            assert changed == dominated
            assert all(after[rid] >= floor for rid in changed)
            for k in range(1, delta.count + 1):
                assert all((before[rid] < k) == (after[rid] < k) for rid in changed)
