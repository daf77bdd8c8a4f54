"""Tests for the amortized serving engine: correctness, batching, workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, kspr, verify_result
from repro.data import independent_dataset
from repro.engine import (
    Engine,
    QueryBatch,
    QuerySpec,
    Workload,
    generate_workload,
    replay,
    run_batch,
    zipf_weights,
)
from repro.exceptions import InvalidDatasetError, InvalidQueryError
from repro.index.skyline import skyline_reference


@pytest.fixture
def serving_dataset() -> Dataset:
    return independent_dataset(80, 3, seed=11)


@pytest.fixture
def focals(serving_dataset: Dataset) -> list[np.ndarray]:
    """Focal records close to strong options, so answers are non-trivial."""
    skyline_ids = skyline_reference(serving_dataset)
    picks = []
    for record_id in skyline_ids[:3]:
        picks.append(serving_dataset.record_by_id(record_id).values * 0.97)
    return picks


class TestEngineCorrectness:
    @pytest.mark.parametrize("method", ["cta", "pcta", "lpcta"])
    def test_unpruned_cold_path_is_byte_identical_to_kspr(
        self, serving_dataset, focals, results_identical, method
    ):
        engine = Engine(serving_dataset, method=method, prune_skyband=False)
        for focal in focals:
            expected = kspr(serving_dataset, focal, 3, method=method)
            results_identical(engine.query(focal, 3), expected)

    @pytest.mark.parametrize("method", ["cta", "pcta", "lpcta"])
    def test_pruned_cold_path_answers_the_same_query(
        self, serving_dataset, focals, method
    ):
        engine = Engine(serving_dataset, method=method, k_max=8)
        for focal in focals:
            result = engine.query(focal, 4)
            naive = kspr(serving_dataset, focal, 4, method=method)
            # Pruning may merge cells but never changes the covered region.
            assert abs(result.total_volume() - naive.total_volume()) < 1e-9
            report = verify_result(result, serving_dataset, focal, 4, samples=400, rng=9)
            assert report.is_consistent

    def test_pruning_reduces_cold_work(self, serving_dataset, focals):
        pruned = Engine(serving_dataset, k_max=8)
        unpruned = Engine(serving_dataset, prune_skyband=False)
        focal = focals[0]
        fast = pruned.query(focal, 2)
        slow = unpruned.query(focal, 2)
        assert fast.stats.competitor_records <= slow.stats.competitor_records
        assert abs(fast.total_volume() - slow.total_volume()) < 1e-9

    def test_method_aliases_and_options_forwarded(self, serving_dataset, focals):
        engine = Engine(serving_dataset)
        result = engine.query(focals[0], 2, method="lp_cta", bounds_mode="group")
        assert result.stats.algorithm == "LP-CTA[group]"

    def test_prepared_state_reused_across_option_variants(self, serving_dataset, focals):
        engine = Engine(serving_dataset)
        focal = focals[0]
        engine.query(focal, 3)
        builds_before = engine.metrics()["engine.prepared.builds"]
        engine.query(focal, 3, bounds_mode="group")  # different cache key
        assert engine.metrics()["engine.prepared.builds"] == builds_before
        assert engine.metrics()["engine.prepared.reuses"] >= 1

    def test_query_validation(self, serving_dataset):
        engine = Engine(serving_dataset)
        with pytest.raises(InvalidQueryError):
            engine.query([0.5, 0.5, 0.5], 0)
        with pytest.raises(InvalidQueryError):
            engine.query([0.5, 0.5, 0.5], serving_dataset.cardinality + 1)
        with pytest.raises(InvalidQueryError):
            engine.query([0.5, np.nan, 0.5], 2)
        with pytest.raises(InvalidQueryError):
            engine.query([0.5, 0.5], 2)
        with pytest.raises(InvalidQueryError):
            engine.query([0.5, 0.5, 0.5], 2, method="definitely-not-a-method")


class TestEngineUpdates:
    def test_insert_then_query_matches_fresh_rebuild(
        self, serving_dataset, focals, results_identical
    ):
        engine = Engine(serving_dataset, k_max=8)
        engine.query(focals[0], 3)
        engine.insert([0.95, 0.9, 0.92])
        rebuilt = Engine(engine.dataset, k_max=8)
        for focal in focals:
            results_identical(engine.query(focal, 3), rebuilt.query(focal, 3))

    def test_delete_then_query_matches_fresh_rebuild(
        self, serving_dataset, focals, results_identical
    ):
        engine = Engine(serving_dataset, k_max=8)
        victim = int(serving_dataset.ids[17])
        engine.delete(victim)
        rebuilt = Engine(engine.dataset, k_max=8)
        assert engine.cardinality == serving_dataset.cardinality - 1
        for focal in focals:
            results_identical(engine.query(focal, 3), rebuilt.query(focal, 3))

    def test_insert_delete_round_trip_restores_answers(
        self, serving_dataset, focals, results_identical
    ):
        engine = Engine(serving_dataset, k_max=8)
        before = engine.query(focals[0], 3)
        fingerprint_before = engine.fingerprint
        record_id = engine.insert([0.99, 0.98, 0.97])
        engine.delete(record_id)
        assert engine.fingerprint == fingerprint_before
        results_identical(engine.query(focals[0], 3), before)

    def test_updates_keep_verification_consistent(self, serving_dataset, focals):
        engine = Engine(serving_dataset, k_max=8)
        rng = np.random.default_rng(4)
        for _ in range(3):
            engine.insert(rng.random(3))
        engine.delete(int(serving_dataset.ids[5]))
        focal = focals[1]
        result = engine.query(focal, 4)
        report = verify_result(result, engine.dataset, focal, 4, samples=400, rng=13)
        assert report.is_consistent

    def test_stable_ids_are_never_recycled(self, serving_dataset):
        engine = Engine(serving_dataset)
        record_id = engine.insert([0.5, 0.5, 0.5])
        engine.delete(record_id)
        with pytest.raises(InvalidDatasetError):
            engine.insert([0.4, 0.4, 0.4], record_id=record_id)

    def test_delete_of_an_id_that_is_not_live_is_rejected(self, serving_dataset):
        engine = Engine(serving_dataset)
        record_id = engine.insert([0.5, 0.5, 0.5])
        engine.delete(record_id)
        fingerprint = engine.fingerprint
        for dead_or_unknown in (record_id, engine.dataset.next_record_id() + 5):
            with pytest.raises(InvalidDatasetError, match="not live"):
                engine.delete(dead_or_unknown)
        assert engine.fingerprint == fingerprint
        assert engine.metrics()["engine.updates.deletes"] == 1

    def test_skyband_ids_track_updates(self, serving_dataset):
        engine = Engine(serving_dataset)
        dominator = engine.insert([2.0, 2.0, 2.0])  # dominates everything
        band = engine.skyband_ids(1)
        assert band == {dominator}
        engine.delete(dominator)
        assert engine.skyband_ids(1) == set(skyline_reference(serving_dataset))

    def test_skyline_served_from_maintained_tree(self, serving_dataset):
        engine = Engine(serving_dataset)
        assert sorted(engine.skyline()) == sorted(skyline_reference(serving_dataset))
        rng = np.random.default_rng(6)
        for _ in range(5):
            engine.insert(rng.random(3))
        engine.delete(int(serving_dataset.ids[0]))
        engine.delete(int(serving_dataset.ids[33]))
        assert sorted(engine.skyline()) == sorted(skyline_reference(engine.dataset))


class TestBatch:
    def test_concurrent_batch_matches_reference(self, serving_dataset, focals):
        engine = Engine(serving_dataset, k_max=8)
        specs = [QuerySpec(focal=focal, k=k) for focal in focals for k in (2, 3)]
        report = QueryBatch(engine, max_workers=4).run(specs)
        assert len(report) == len(specs)
        assert not report.errors
        for outcome in report:
            naive = kspr(serving_dataset, outcome.spec.focal, outcome.spec.k)
            assert abs(outcome.result.total_volume() - naive.total_volume()) < 1e-9

    def test_batch_accepts_tuples_and_reports_errors(self, serving_dataset, focals):
        engine = Engine(serving_dataset)
        report = run_batch(
            engine,
            [(focals[0], 2), (focals[0], 0)],  # second one is invalid
            max_workers=2,
        )
        assert report.outcomes[0].ok
        assert not report.outcomes[1].ok
        assert isinstance(report.outcomes[1].error, InvalidQueryError)
        summary = report.summary()
        assert summary["queries"] == 2.0
        assert summary["failed"] == 1.0

    def test_repeated_specs_hit_the_cache(self, serving_dataset, focals):
        engine = Engine(serving_dataset)
        specs = [QuerySpec(focal=focals[0], k=3)] * 5
        report = QueryBatch(engine, max_workers=1).run(specs)
        assert report.cold_queries == 1
        assert report.cache_hits == 4


class TestWorkload:
    def test_deterministic_given_seed(self, serving_dataset):
        first = generate_workload(serving_dataset, 30, seed=21, k_range=(1, 6))
        second = generate_workload(serving_dataset, 30, seed=21, k_range=(1, 6))
        assert first.queries == second.queries

    def test_seed_determinism_regression(self, serving_dataset):
        """Same seed ⇒ byte-identical trace, across every random code path.

        Guards against module-level randomness sneaking back in: focal
        selection, k draws and the multiplicative perturbation must all flow
        through the one seeded generator.
        """
        kwargs = dict(
            zipf_s=1.3, focal_pool=12, k_choices=[2, 3, 5], perturb=0.08, method="cta"
        )
        first = generate_workload(serving_dataset, 40, seed=99, **kwargs)
        second = generate_workload(serving_dataset, 40, seed=99, **kwargs)
        assert first.to_json() == second.to_json()
        different = generate_workload(serving_dataset, 40, seed=100, **kwargs)
        assert first.queries != different.queries

    def test_explicit_rng_generator_is_honored(self, serving_dataset):
        """An explicit Generator (or int) in ``rng`` drives all randomness."""
        from repro.engine.workload import resolve_rng

        kwargs = dict(k_range=(1, 4), perturb=0.05)
        via_seed = generate_workload(serving_dataset, 20, seed=7, **kwargs)
        via_rng_int = generate_workload(serving_dataset, 20, rng=7, **kwargs)
        via_generator = generate_workload(
            serving_dataset, 20, rng=np.random.default_rng(7), **kwargs
        )
        assert via_seed.queries == via_rng_int.queries == via_generator.queries
        # rng takes precedence over a conflicting seed.
        overridden = generate_workload(serving_dataset, 20, seed=1234, rng=7, **kwargs)
        assert overridden.queries == via_seed.queries
        generator = np.random.default_rng(5)
        assert resolve_rng(generator) is generator

    def test_zipf_skew_concentrates_traffic(self, serving_dataset):
        workload = generate_workload(
            serving_dataset, 200, zipf_s=1.5, focal_pool=10, seed=3
        )
        counts: dict[tuple, int] = {}
        for query in workload:
            counts[query.focal] = counts.get(query.focal, 0) + 1
        assert workload.unique_focals <= 10
        assert max(counts.values()) >= 5 * min(counts.values())

    def test_k_values_respect_bounds(self, serving_dataset):
        workload = generate_workload(serving_dataset, 50, k_choices=[2, 4, 8], seed=5)
        assert {query.k for query in workload} <= {2, 4, 8}
        ranged = generate_workload(serving_dataset, 50, k_range=(3, 5), seed=5)
        assert all(3 <= query.k <= 5 for query in ranged)

    def test_invalid_k_parameters_rejected_up_front(self, serving_dataset):
        with pytest.raises(InvalidQueryError):
            generate_workload(serving_dataset, 10, k_choices=[0, 5], seed=5)
        with pytest.raises(InvalidQueryError):
            generate_workload(serving_dataset, 10, k_choices=[], seed=5)
        with pytest.raises(InvalidQueryError):
            generate_workload(serving_dataset, 10, k_range=(0, 4), seed=5)

    def test_json_round_trip(self, serving_dataset):
        workload = generate_workload(serving_dataset, 10, seed=8, method="pcta")
        restored = Workload.from_json(workload.to_json())
        assert restored.queries == workload.queries
        assert restored.metadata["seed"] == 8

    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(20, s=1.3)
        assert abs(float(weights.sum()) - 1.0) < 1e-12
        assert np.all(np.diff(weights) < 0)

    def test_replay_serves_repeats_from_cache(self, serving_dataset):
        engine = Engine(serving_dataset, k_max=8)
        workload = generate_workload(
            serving_dataset, 25, zipf_s=1.6, focal_pool=4, k_choices=[2, 3], seed=17
        )
        report = replay(engine, workload)
        assert not report.errors
        assert report.cache_hits == len(workload) - workload.unique_queries
        assert report.cold_queries == workload.unique_queries
