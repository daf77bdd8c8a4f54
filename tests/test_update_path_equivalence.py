"""Array-at-once update path equals its per-element definitions.

Covers the column-wise dominance kernel (:func:`repro.index.dominance.order_masks`)
and every scan built on it, the batch-wide rules-1–4 verdict, the trusted
snapshot constructor, and ``Engine.apply_updates`` reading a batch once.
Matrices are small integers with duplicate rows, so ties and equal rows occur.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, Engine
from repro.engine.engine import _BatchDeltas
from repro.exceptions import InvalidDatasetError
from repro.index.dominance import dominated_counts, order_masks
from repro.index.skyline import SkybandDelta, SkybandIndex
from repro.live import UpdateBatch, UpdateOp


@st.composite
def _matrices(draw, max_rows: int = 24):
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=max_rows))
    value = st.integers(min_value=-2, max_value=2)
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    return np.asarray(rows, dtype=float).reshape(n, d)


@st.composite
def _matrix_and_point(draw):
    rows = draw(_matrices())
    d = rows.shape[1]
    if rows.shape[0] and draw(st.booleans()):
        point = rows[draw(st.integers(0, rows.shape[0] - 1))].copy()  # a row equal to the point
    else:
        point = np.asarray(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)), dtype=float)
    return rows, point


def _parent_partition(values: np.ndarray, focal: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The ``np.all`` / ``np.any`` formulas ``partition_by_focal`` used before the kernel."""
    geq = np.all(values >= focal, axis=1)
    gt_any = np.any(values > focal, axis=1)
    dominator_mask = geq & gt_any
    leq = np.all(values <= focal, axis=1)
    lt_any = np.any(values < focal, axis=1)
    dominated_mask = leq & lt_any
    equal_mask = np.all(values == focal, axis=1)
    competitor_mask = ~(dominator_mask | dominated_mask | equal_mask)
    return competitor_mask, int(np.sum(dominator_mask)), int(np.sum(dominated_mask | equal_mask))


def _is_affected(focal: np.ndarray, k: int, pruned: bool, delta: SkybandDelta) -> bool:
    """Rules 1–4 for one update, as the engine evaluated them one delta at a time."""
    record = delta.values
    if np.all(record <= focal):
        return False
    if np.all(record >= focal) and np.any(record > focal):
        return True
    return not pruned or delta.count < k


class TestOrderMasks:
    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_point())
    def test_masks_equal_the_all_any_definitions(self, case):
        rows, point = case
        at_most, at_least = order_masks(rows, point)
        assert np.array_equal(at_most, np.all(rows <= point, axis=1))
        assert np.array_equal(at_least, np.all(rows >= point, axis=1))
        dominators = np.all(rows >= point, axis=1) & np.any(rows > point, axis=1)
        dominated = np.all(point >= rows, axis=1) & np.any(point > rows, axis=1)
        assert np.array_equal(at_least & ~at_most, dominators)
        assert np.array_equal(at_most & ~at_least, dominated)
        assert np.array_equal(at_most & at_least, np.all(rows == point, axis=1))

    @settings(max_examples=100, deadline=None)
    @given(_matrices(), st.data())
    def test_block_of_points_gives_one_row_of_masks_per_point(self, rows, data):
        d = rows.shape[1]
        block = np.asarray(
            data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=6)),
            dtype=float,
        ).reshape(-1, d)
        at_most, at_least = order_masks(rows, block)
        assert at_most.shape == at_least.shape == (block.shape[0], rows.shape[0])
        for index, point in enumerate(block):
            single = order_masks(rows, point)
            assert np.array_equal(at_most[index], single[0])
            assert np.array_equal(at_least[index], single[1])

    def test_nan_point_matches_np_all(self):
        rows = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        point = np.array([np.nan, 1.0])
        at_most, at_least = order_masks(rows, point)
        assert np.array_equal(at_most, np.all(rows <= point, axis=1))
        assert np.array_equal(at_least, np.all(rows >= point, axis=1))
        assert not at_most.any() and not at_least.any()


class TestDominatedCounts:
    @pytest.mark.parametrize("chunk_size", [1, 7, 512])
    @settings(max_examples=80, deadline=None)
    @given(rows=_matrices(max_rows=30))
    def test_counts_equal_pairwise_brute_force(self, chunk_size, rows):
        counts = dominated_counts(Dataset(rows), chunk_size=chunk_size)
        expected = [
            sum(
                bool(np.all(other >= row) and np.any(other > row))
                for other in rows
            )
            for row in rows
        ]
        assert counts.tolist() == expected


class TestPartitionByFocal:
    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_point())
    def test_partition_equals_the_all_any_formulas(self, case):
        rows, focal = case
        dataset = Dataset(rows, ids=np.arange(rows.shape[0]) * 3 + 1, name="m", id_high_watermark=500)
        partition = dataset.partition_by_focal(focal)
        competitor_mask, dominators, dominated = _parent_partition(rows, focal)
        expected = Dataset(
            rows[competitor_mask], ids=dataset.ids[competitor_mask], name="m", id_high_watermark=500
        )
        assert (partition.dominators, partition.dominated) == (dominators, dominated)
        competitors = partition.competitors
        assert competitors.fingerprint() == expected.fingerprint()
        assert competitors.values.tobytes() == expected.values.tobytes()
        assert competitors.ids.tobytes() == expected.ids.tobytes()
        assert competitors.values.shape == expected.values.shape
        assert competitors.id_high_watermark == 500 and competitors.name == "m"
        assert not competitors.values.flags.writeable and not competitors.ids.flags.writeable

    def test_nan_focal_makes_every_row_a_competitor(self):
        rows = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
        focal = np.array([np.nan, 1.0])
        partition = Dataset(rows).partition_by_focal(focal)
        competitor_mask, dominators, dominated = _parent_partition(rows, focal)
        assert partition.competitors.cardinality == int(competitor_mask.sum()) == 3
        assert (partition.dominators, partition.dominated) == (dominators, dominated) == (0, 0)


@st.composite
def _batches(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    deltas = draw(
        st.lists(st.tuples(row, st.integers(0, 4), st.booleans()), min_size=1, max_size=8)
    )
    focals = draw(st.lists(row, min_size=1, max_size=5))
    pairs = tuple(
        (SkybandDelta(position=i, record_id=i, values=np.asarray(v, dtype=float), count=c), inserted)
        for i, (v, c, inserted) in enumerate(deltas)
    )
    return pairs, np.asarray(focals, dtype=float)


class TestBatchRules:
    """One array verdict per entry equals the union of the per-delta rules 1–4."""

    @staticmethod
    def _ks(pairs) -> list[int]:
        # k on both sides of every delta's own count.
        ks = {k for delta, _ in pairs for k in (delta.count, delta.count + 1) if k >= 1}
        return sorted(ks | {1})

    @settings(max_examples=200, deadline=None)
    @given(_batches())
    def test_block_verdicts_equal_the_union_over_deltas(self, case):
        pairs, focals = case
        deltas = _BatchDeltas.of(pairs)
        entries = [
            (focal, k, pruned)
            for focal in focals
            for k in self._ks(pairs)
            for pruned in (True, False)
        ]
        verdicts = deltas.affects(
            np.array([focal for focal, _, _ in entries]),
            np.array([k for _, k, _ in entries]),
            np.array([pruned for _, _, pruned in entries]),
        )
        expected = [
            any(_is_affected(focal, k, pruned, delta) for delta, _ in pairs)
            for focal, k, pruned in entries
        ]
        assert verdicts.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(_batches())
    def test_update_affects_equals_the_union_over_deltas(self, case):
        pairs, focals = case
        d = focals.shape[1]
        engine = Engine(Dataset(np.ones((1, d))), k_max=4)
        for focal in focals:
            for k in self._ks(pairs):
                for pruned in (True, False):
                    expected = any(_is_affected(focal, k, pruned, delta) for delta, _ in pairs)
                    assert engine.update_affects(focal, k, list(pairs), pruned=pruned) is expected

    def test_engine_verdicts_after_a_real_batch(self):
        rng = np.random.default_rng(5)
        engine = Engine(Dataset(rng.integers(0, 4, size=(30, 3)).astype(float)), k_max=4)
        focals = [engine.dataset.values[i] for i in range(6)]
        ks = (1, 2, 5)
        for focal in focals:
            for k in ks:
                engine.query(focal, k, method="pcta", finalize_geometry=False)
        before = [(focal, k) for focal in focals for k in ks]
        batch = [UpdateOp.insert(rng.integers(0, 4, size=3).astype(float)) for _ in range(5)]
        batch.append(UpdateOp.delete(int(engine.dataset.ids[10])))
        applied = engine.apply_updates(batch)
        for focal, k in before:
            pruned = k <= engine.k_max
            expected = any(_is_affected(focal, k, pruned, delta) for delta, _ in applied.pairs)
            assert engine.update_affects(focal, k, applied.pairs) is expected
            kept = engine.cached_result(focal, k, method="pcta", options={"finalize_geometry": False})
            assert (kept is None) == expected


class TestTrustedSnapshot:
    @settings(max_examples=100, deadline=None)
    @given(_matrices(max_rows=12), st.data())
    def test_snapshot_equals_a_checked_dataset(self, rows, data):
        if not rows.shape[0]:
            rows = np.zeros((1, rows.shape[1]))
        index = SkybandIndex(Dataset(rows))
        next_id = rows.shape[0]
        d = rows.shape[1]
        for insert in data.draw(st.lists(st.booleans(), max_size=10)):
            live = sorted(index.counts_by_id())
            if insert or not live:
                values = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
                index.insert(np.asarray(values, dtype=float), next_id)
                next_id += 1
            else:
                index.delete(live[data.draw(st.integers(0, len(live) - 1))])
        positions = index.active_positions()
        for watermark in (None, next_id + 3):
            trusted = index.snapshot("s", id_high_watermark=watermark)
            checked = Dataset(
                index.values_at(positions),
                ids=index.ids_at(positions),
                name="s",
                id_high_watermark=watermark,
            )
            assert trusted.fingerprint() == checked.fingerprint()
            assert trusted.id_high_watermark == checked.id_high_watermark
            assert trusted.values.shape == checked.values.shape
            assert trusted.values.dtype == checked.values.dtype and trusted.ids.dtype == checked.ids.dtype
            assert not trusted.values.flags.writeable and not trusted.ids.flags.writeable

    def test_snapshot_still_checks_the_watermark(self):
        index = SkybandIndex(Dataset(np.eye(3)))
        with pytest.raises(InvalidDatasetError):
            index.snapshot(id_high_watermark=2)

    def test_snapshot_owns_its_arrays(self):
        index = SkybandIndex(Dataset(np.eye(3)))
        snapshot = index.snapshot()
        index.insert(np.array([5.0, 5.0, 5.0]), 7)
        index.delete(0)
        assert snapshot.values.tolist() == np.eye(3).tolist()
        assert snapshot.ids.tolist() == [0, 1, 2]


class _ShiftingBatch(UpdateBatch):
    """A batch whose contents change after the first read of ``ops``."""

    def __init__(self, first, later) -> None:
        super().__init__(first)
        self._later = tuple(later)
        self.reads = 0

    @property
    def ops(self) -> tuple[UpdateOp, ...]:
        self.reads += 1
        return tuple(self._ops) if self.reads == 1 else self._later


class TestFrozenBatch:
    def test_engine_applies_exactly_the_ops_it_validated(self):
        engine = Engine(Dataset(np.eye(3) + 1.0), k_max=2)
        first = (UpdateOp.insert([0.5, 0.5, 0.5]), UpdateOp.delete(0))
        batch = _ShiftingBatch(first, [UpdateOp.delete(99)])  # 99 was never live
        applied = engine.apply_updates(batch)
        assert batch.reads == 1
        assert [(op.op, op.record_id) for op in applied.ops] == [("insert", 3), ("delete", 0)]
        assert sorted(engine.dataset.ids.tolist()) == [1, 2, 3]
        assert engine.cardinality == 3
