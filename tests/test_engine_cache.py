"""Cache correctness: identity of served results and precision of invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, kspr
from repro.data import independent_dataset
from repro.engine import Engine, ResultCache
from repro.engine.cache import CacheEntry, PartialEntry, PartialStore, options_key
from repro.index.skyline import SkybandDelta


@pytest.fixture
def cached_engine() -> Engine:
    return Engine(independent_dataset(60, 3, seed=23), k_max=8)


class TestResultCacheUnit:
    def _entry(self, tag: str, k: int = 2) -> CacheEntry:
        return CacheEntry(
            fingerprint="fp",
            focal=np.array([float(len(tag)), 1.0]),
            k=k,
            method=tag,
            opts=(),
            result=object(),  # type: ignore[arg-type] - identity is all that matters here
        )

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        first, second, third = self._entry("a"), self._entry("b"), self._entry("c")
        cache.put(first)
        cache.put(second)
        assert cache.get(first.key) is first.result  # refresh "a"
        cache.put(third)  # evicts "b", the least recently used
        assert cache.get(second.key) is None
        assert cache.get(first.key) is first.result
        assert cache.get(third.key) is third.result
        assert cache.evictions == 1

    def test_apply_update_rekeys_unaffected_entries(self):
        cache = ResultCache(capacity=4)
        keep, drop = self._entry("keep"), self._entry("drop")
        cache.put(keep)
        cache.put(drop)
        retained, dropped = cache.apply_update(
            "fp2", lambda entry: entry.method == "drop"
        )
        assert (retained, dropped) == (1, 1)
        assert keep.fingerprint == "fp2"
        assert cache.get(keep.key) is keep.result
        assert all(entry.method != "drop" for entry in cache.entries())

    def test_options_key_is_order_insensitive(self):
        assert options_key({"a": 1, "b": "x"}) == options_key({"b": "x", "a": 1})


class TestServedResults:
    def test_cache_hit_returns_identical_object(self, cached_engine):
        focal = cached_engine.dataset.values[4] * 0.98
        cold = cached_engine.query(focal, 3)
        hot = cached_engine.query(focal, 3)
        assert hot is cold  # byte-identical by construction
        metrics = cached_engine.metrics()
        assert metrics["engine.result_cache.hits"] == 1
        assert metrics["engine.result_cache.entries"] == 1

    def test_different_options_are_distinct_entries(self, cached_engine):
        focal = cached_engine.dataset.values[4] * 0.98
        with_geometry = cached_engine.query(focal, 3)
        without_geometry = cached_engine.query(focal, 3, finalize_geometry=False)
        assert with_geometry is not without_geometry
        assert cached_engine.metrics()["engine.result_cache.entries"] == 2

    def test_served_result_matches_cold_recomputation(
        self, cached_engine, results_identical
    ):
        focal = cached_engine.dataset.values[9] * 0.97
        served = cached_engine.query(focal, 4)
        fresh = Engine(cached_engine.dataset, k_max=8)
        results_identical(served, fresh.query(focal, 4))


class TestPreciseInvalidation:
    """Inserted/deleted records must invalidate exactly the affected entries."""

    @pytest.fixture
    def engine(self) -> Engine:
        # A hand-built 2-D dataset so dominance relations are obvious.
        values = np.array(
            [
                [0.90, 0.20],
                [0.20, 0.90],
                [0.70, 0.60],
                [0.60, 0.70],
                [0.30, 0.30],
                [0.15, 0.10],
            ]
        )
        return Engine(Dataset(values), k_max=6)

    def test_insert_dominated_by_focal_keeps_entry(self, engine):
        high_focal = np.array([0.95, 0.95])  # dominates the new record below
        cached = engine.query(high_focal, 2)
        engine.insert([0.40, 0.40])
        assert engine.query(high_focal, 2) is cached
        assert engine.metrics()["engine.result_cache.retained"] >= 1

    def test_insert_competitor_drops_entry_and_recomputes_correctly(
        self, engine, results_identical
    ):
        low_focal = np.array([0.25, 0.85])
        cached = engine.query(low_focal, 2)
        engine.insert([0.80, 0.75])  # competitor of the focal, in-band
        refreshed = engine.query(low_focal, 2)
        assert refreshed is not cached
        results_identical(refreshed, Engine(engine.dataset, k_max=6).query(low_focal, 2))

    def test_one_update_splits_entries_by_relevance(self, engine):
        high_focal = np.array([0.95, 0.95])
        low_focal = np.array([0.25, 0.85])
        high_cached = engine.query(high_focal, 2)
        low_cached = engine.query(low_focal, 2)
        # Dominated by high_focal but an in-band competitor of low_focal.
        engine.insert([0.80, 0.75])
        assert engine.query(high_focal, 2) is high_cached
        assert engine.query(low_focal, 2) is not low_cached
        metrics = engine.metrics()
        assert metrics["engine.result_cache.invalidated"] == 1
        assert metrics["engine.result_cache.rekeyed"] >= 1

    def test_delete_of_irrelevant_record_keeps_entry(self, engine):
        high_focal = np.array([0.95, 0.95])
        cached = engine.query(high_focal, 2)
        # Record [0.15, 0.10] is dominated by the focal record: irrelevant.
        engine.delete(5)
        assert engine.query(high_focal, 2) is cached

    def test_delete_of_competitor_drops_entry(self, engine, results_identical):
        low_focal = np.array([0.25, 0.85])
        cached = engine.query(low_focal, 2)
        engine.delete(2)  # [0.70, 0.60] competes with the focal record
        refreshed = engine.query(low_focal, 2)
        assert refreshed is not cached
        results_identical(refreshed, Engine(engine.dataset, k_max=6).query(low_focal, 2))
        naive = kspr(engine.dataset, low_focal, 2)
        assert abs(refreshed.total_volume() - naive.total_volume()) < 1e-9

    def test_out_of_band_insert_keeps_pruned_entry_and_stays_correct(self):
        # Chain of dominators: a new record below the chain has many
        # dominators, so a k=1 entry for an incomparable focal must survive —
        # and keeping it must be sound: a from-scratch answer on the updated
        # dataset covers the same region.
        values = np.array(
            [
                [0.90, 0.90],
                [0.80, 0.80],
                [0.70, 0.70],
                [0.60, 0.60],
                [0.05, 0.95],
            ]
        )
        engine = Engine(Dataset(values), k_max=4)
        focal = np.array([0.10, 0.95])  # incomparable to the chain records
        cached = engine.query(focal, 1)
        engine.insert([0.50, 0.40])  # competitor of focal, but 4 dominators >= k=1
        assert engine.query(focal, 1) is cached
        naive = kspr(engine.dataset, focal, 1)
        assert abs(cached.total_volume() - naive.total_volume()) < 1e-9
        # An unpruned entry reads every competitor, in band or not: dropped.
        unpruned = Engine(Dataset(values), k_max=4, prune_skyband=False)
        unpruned_cached = unpruned.query(focal, 1)
        unpruned.insert([0.50, 0.40])
        assert unpruned.query(focal, 1) is not unpruned_cached

    def test_out_of_band_delete_keeps_pruned_entry_and_stays_correct(self):
        values = np.array(
            [
                [0.90, 0.90],
                [0.80, 0.80],
                [0.50, 0.40],  # 2 dominators: out of every k<=2 band
                [0.05, 0.95],
            ]
        )
        engine = Engine(Dataset(values), k_max=4)
        focal = np.array([0.10, 0.95])
        cached = engine.query(focal, 2)
        engine.delete(2)  # the out-of-band record
        assert engine.query(focal, 2) is cached
        naive = kspr(engine.dataset, focal, 2)
        assert abs(cached.total_volume() - naive.total_volume()) < 1e-9

    def test_insert_landing_exactly_on_band_boundary_keeps_entry(self):
        """A new competitor with *exactly* k dominators sits just outside the
        k-skyband (pruning keeps counts < k): the cached entry must survive
        and keep matching a from-scratch answer."""
        values = np.array(
            [
                [0.90, 0.90],
                [0.80, 0.80],  # two dominators for the record inserted below
                [0.05, 0.95],
            ]
        )
        engine = Engine(Dataset(values), k_max=4)
        focal = np.array([0.10, 0.95])
        cached = engine.query(focal, 2)
        engine.insert([0.70, 0.60])  # dominated by exactly k=2 records
        assert engine.query(focal, 2) is cached
        naive = kspr(engine.dataset, focal, 2)
        assert abs(cached.total_volume() - naive.total_volume()) < 1e-9

    def test_delete_landing_exactly_on_band_boundary_keeps_entry(self):
        """Deleting a record with exactly k dominators (just outside the band)
        must retain the entry — no survivor can cross into the band."""
        values = np.array(
            [
                [0.90, 0.90],
                [0.80, 0.80],
                [0.70, 0.60],  # exactly 2 dominators: outside every k<=2 band
                [0.05, 0.95],
            ]
        )
        engine = Engine(Dataset(values), k_max=4)
        focal = np.array([0.10, 0.95])
        cached = engine.query(focal, 2)
        engine.delete(2)
        assert engine.query(focal, 2) is cached
        naive = kspr(engine.dataset, focal, 2)
        assert abs(cached.total_volume() - naive.total_volume()) < 1e-9

    def test_insert_delete_fingerprint_round_trip_revives_nothing_stale(self, engine):
        focal = np.array([0.25, 0.85])
        cached = engine.query(focal, 2)
        record_id = engine.insert([0.80, 0.75])  # invalidates the entry
        engine.delete(record_id)  # dataset returns to the original state
        refreshed = engine.query(focal, 2)
        # The entry was dropped on insert; after the round trip the query is
        # recomputed cold but must equal the original answer.
        assert refreshed is not cached
        assert abs(refreshed.total_volume() - cached.total_volume()) < 1e-12

    def test_insert_equal_to_focal_keeps_entry_and_stays_correct(self, engine):
        # Rule 1 covers ties: a copy of the focal record never outscores it.
        focal = np.array([0.25, 0.85])
        cached = engine.query(focal, 2)
        engine.insert(focal.copy())
        assert engine.query(focal, 2) is cached
        naive = kspr(engine.dataset, focal, 2)
        assert abs(cached.total_volume() - naive.total_volume()) < 1e-9


class TestUpdateAffectsRules:
    """``Engine.update_affects`` applies rules 1–4, one case per rule.

    The deltas are built by hand so each case sits exactly on the rule it
    names; :class:`TestPreciseInvalidation` checks the same verdicts end to
    end through real inserts and deletes.
    """

    K = 2
    FOCAL = np.array([0.20, 0.90])

    @pytest.fixture
    def engine(self) -> Engine:
        values = np.array([[0.90, 0.80], [0.10, 0.05], [0.95, 0.97]])
        return Engine(Dataset(values), k_max=4)

    @staticmethod
    def _delta(values, count: int) -> SkybandDelta:
        return SkybandDelta(
            position=0, record_id=999, values=np.array(values, dtype=float), count=count
        )

    def _affects(self, engine, delta, *, pruned: bool | None = True, k: int = K) -> bool:
        return any(
            engine.update_affects(self.FOCAL, k, [(delta, inserted)], pruned=pruned)
            for inserted in (True, False)
        )

    def test_record_dominated_by_or_equal_to_focal_never_affects(self, engine):
        for values in ([0.10, 0.05], [0.20, 0.90], [0.20, 0.10]):
            for pruned in (True, False):
                delta = self._delta(values, count=0)
                assert not self._affects(engine, delta, pruned=pruned)

    def test_dominator_of_focal_always_affects(self, engine):
        # Rule 2 holds whatever the record's own count, in band or not.
        for count in (0, self.K, self.K + 3):
            assert self._affects(engine, self._delta([0.95, 0.97], count))

    def test_in_band_competitor_affects_pruned_entry(self, engine):
        for count in range(self.K):
            assert self._affects(engine, self._delta([0.30, 0.20], count))

    def test_out_of_band_competitor_keeps_pruned_entry(self, engine):
        for count in (self.K, self.K + 3):
            assert not self._affects(engine, self._delta([0.30, 0.20], count))

    def test_unpruned_entry_is_affected_by_any_competitor(self, engine):
        # An unpruned entry reads every competitor, so rule 4 never applies.
        for count in (0, self.K, self.K + 3):
            delta = self._delta([0.30, 0.20], count)
            assert self._affects(engine, delta, pruned=False)

    def test_pruned_defaults_to_the_engines_own_slice_choice(self, engine):
        out_of_band = [(self._delta([0.30, 0.20], self.K + 3), True)]
        assert not engine.update_affects(self.FOCAL, self.K, out_of_band)
        # k above k_max runs unpruned, and so does an engine built without pruning.
        assert engine.update_affects(self.FOCAL, engine.k_max + 1, out_of_band)
        unpruned = Engine(engine.dataset, k_max=4, prune_skyband=False)
        assert unpruned.update_affects(self.FOCAL, self.K, out_of_band)

    def test_a_batch_affects_when_any_one_update_does(self, engine):
        irrelevant = (self._delta([0.10, 0.05], 0), True)
        dominator = (self._delta([0.95, 0.97], 0), False)
        assert not engine.update_affects(self.FOCAL, self.K, [])
        assert not engine.update_affects(self.FOCAL, self.K, [irrelevant])
        assert engine.update_affects(self.FOCAL, self.K, [irrelevant, dominator])


class _ClosableQuery:
    """Stand-in for a suspended AnytimeQuery: all the store touches is close()."""

    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _partial(tag: str) -> PartialEntry:
    return PartialEntry(
        fingerprint="fp",
        focal=np.array([float(len(tag)), 1.0]),
        k=2,
        method=tag,
        opts=(),
        query=_ClosableQuery(),
    )


class TestApplyUpdateExceptionSafety:
    """A raising is_affected callback must leave both caches fully intact.

    The bug this guards against: the one-pass implementation re-keyed (and,
    for checkpoints, closed) entries *while* iterating, so a callback raising
    midway left the cache half re-keyed under the new fingerprint — stale
    answers reachable under keys the dataset state no longer justified.
    """

    def _boom(self, entry):
        raise RuntimeError("boom")

    def test_result_cache_is_untouched_by_a_raising_callback(self):
        cache = ResultCache(capacity=4)
        entries = [
            CacheEntry("fp", np.array([float(i), 1.0]), 2, "m", (), object())
            for i in range(3)
        ]
        for entry in entries:
            cache.put(entry)
        with pytest.raises(RuntimeError, match="boom"):
            cache.apply_update("fp2", self._boom)
        assert len(cache) == 3
        assert all(entry.fingerprint == "fp" for entry in cache.entries())
        assert [entry.key for entry in cache.entries()] == [e.key for e in entries]
        assert cache.invalidated == 0 and cache.rekeyed == 0
        # Every entry is still served under its original key.
        for entry in entries:
            assert cache.get(entry.key) is entry.result

    def test_partial_store_is_untouched_and_still_open(self):
        store = PartialStore(capacity=4)
        entries = [_partial(tag) for tag in ("a", "bb", "ccc")]
        for entry in entries:
            store.put(entry)
        with pytest.raises(RuntimeError, match="boom"):
            store.apply_update("fp2", self._boom)
        assert len(store) == 3
        assert all(not entry.query.closed for entry in entries)
        assert all(entry.fingerprint == "fp" for entry in store.entries())
        assert store.invalidated == 0
        for entry in entries:
            assert store.pop(entry.key) is entry

    def test_callback_raising_after_some_verdicts_mutates_nothing(self):
        cache = ResultCache(capacity=4)
        first = CacheEntry("fp", np.array([1.0, 1.0]), 2, "m", (), object())
        second = CacheEntry("fp", np.array([2.0, 1.0]), 2, "m", (), object())
        cache.put(first)
        cache.put(second)

        def boom_on_second(entry):
            if entry is second:
                raise RuntimeError("late boom")
            return True  # first would be dropped — but must not be

        with pytest.raises(RuntimeError, match="late boom"):
            cache.apply_update("fp2", boom_on_second)
        assert cache.get(first.key) is first.result
        assert cache.get(second.key) is second.result


class TestCapacityEdges:
    def test_negative_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError):
            PartialStore(capacity=-1)

    def test_result_cache_capacity_zero_disables_caching(self):
        cache = ResultCache(capacity=0)
        entry = CacheEntry("fp", np.array([1.0, 1.0]), 2, "m", (), object())
        cache.put(entry)
        assert len(cache) == 0
        assert cache.get(entry.key) is None
        assert cache.insertions == 1 and cache.evictions == 1

    def test_result_cache_capacity_one_is_a_true_lru_slot(self):
        cache = ResultCache(capacity=1)
        first = CacheEntry("fp", np.array([1.0, 1.0]), 2, "m", (), object())
        second = CacheEntry("fp", np.array([2.0, 1.0]), 2, "m", (), object())
        cache.put(first)
        assert cache.get(first.key) is first.result  # hit refreshes the slot
        cache.put(second)  # replaces it
        assert cache.get(first.key) is None
        assert cache.get(second.key) is second.result
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        first = CacheEntry("fp", np.array([1.0, 1.0]), 2, "m", (), object())
        second = CacheEntry("fp", np.array([2.0, 1.0]), 2, "m", (), object())
        third = CacheEntry("fp", np.array([3.0, 1.0]), 2, "m", (), object())
        cache.put(first)
        cache.put(second)
        assert cache.get(first.key) is first.result  # now "second" is LRU
        cache.put(third)
        assert cache.get(second.key) is None
        assert cache.get(first.key) is first.result

    def test_partial_store_capacity_zero_closes_immediately(self):
        store = PartialStore(capacity=0)
        entry = _partial("a")
        store.put(entry)
        assert len(store) == 0
        assert entry.query.closed
        assert store.saves == 1 and store.evictions == 1

    def test_partial_store_capacity_one_closes_the_displaced_checkpoint(self):
        store = PartialStore(capacity=1)
        first, second = _partial("a"), _partial("bb")
        store.put(first)
        store.put(second)
        assert first.query.closed and not second.query.closed
        assert store.pop(second.key) is second
