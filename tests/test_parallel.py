"""Tests for ``repro.parallel``: shard planning, sharded execution, merge identity."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial import QhullError

import repro.core.celltree as celltree_module
import repro.geometry.linprog as linprog_module
import repro.geometry.polytope as polytope_module
import repro.parallel.subtree as subtree_module
import test_differential_kspr as grid
from repro import Dataset, Engine, kspr
from repro.core.celltree import Cell, CellTree
from repro.core.cta import cta
from repro.data import anticorrelated_dataset, independent_dataset
from repro.engine import QueryBatch, QuerySpec
from repro.parallel import (
    ShardedExecutor,
    parallel_cta,
    plan_focal_shards,
    resolve_workers,
    results_identical,
)
from repro.exceptions import GeometryError
from repro.geometry.halfspace import build_hyperplanes, original_space_hyperplanes
from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import LP_CONSTRAINTS, Histogram
from repro.obs.names import LP_FALLBACK_CALLS, LP_VERTEX_CERTIFICATES, LP_VERTEX_FALLBACKS
from repro.parallel.compare import assert_results_identical


class TestShardPlanning:
    def test_same_focal_stays_on_one_worker(self):
        keys = [b"a", b"b", b"a", b"c", b"a", b"b"]
        plan = plan_focal_shards(keys, workers=2)
        assigned = {index: shard_id for shard_id, shard in enumerate(plan) for index in shard}
        for focal in (b"a", b"b", b"c"):
            shard_ids = {assigned[i] for i, key in enumerate(keys) if key == focal}
            assert len(shard_ids) == 1, f"focal {focal!r} split across workers"
        assert sorted(assigned) == list(range(len(keys)))

    def test_balanced_and_deterministic(self):
        keys = [bytes([value]) for value in range(12)]
        plan_a = plan_focal_shards(keys, workers=4)
        plan_b = plan_focal_shards(keys, workers=4)
        assert plan_a == plan_b
        sizes = sorted(len(shard) for shard in plan_a)
        assert sizes == [3, 3, 3, 3]

    def test_more_workers_than_groups(self):
        plan = plan_focal_shards([b"x", b"x"], workers=8)
        assert plan == [[0, 1]]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            plan_focal_shards([b"x"], workers=0)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 1
        assert resolve_workers(None) >= 1


class TestSubtreeShardedCTA:
    """parallel_cta must be structurally identical to serial cta — always."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_identical_to_serial(self, workers):
        dataset = independent_dataset(50, 3, seed=301)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.95
        serial = cta(dataset, focal, 3)
        sharded = parallel_cta(dataset, focal, 3, workers=workers, shard_factor=2)
        assert_results_identical(sharded, serial)

    def test_one_worker_is_the_serial_run(self):
        dataset = independent_dataset(50, 3, seed=301)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.95
        serial = cta(dataset, focal, 3)
        single = parallel_cta(dataset, focal, 3, workers=1)
        assert_results_identical(single, serial)
        assert single.stats.algorithm == serial.stats.algorithm == "CTA"
        assert single.stats.lp.feasibility_calls == serial.stats.lp.feasibility_calls
        assert single.stats.lp.optimize_calls == serial.stats.lp.optimize_calls

    def test_identical_on_anticorrelated_data(self):
        dataset = anticorrelated_dataset(70, 3, seed=302)
        focal = dataset.values[5] * 0.97
        assert_results_identical(
            parallel_cta(dataset, focal, 2, workers=2),
            cta(dataset, focal, 2),
        )

    def test_two_dimensional_and_high_k(self):
        dataset = independent_dataset(40, 2, seed=303)
        focal = dataset.values[0] * 1.02
        assert_results_identical(
            parallel_cta(dataset, focal, 5, workers=2),
            cta(dataset, focal, 5),
        )

    def test_empty_answer_when_focal_is_dominated(self):
        dataset = Dataset([[5.0, 5.0], [4.0, 4.0], [3.0, 3.0]])
        result = parallel_cta(dataset, [1.0, 1.0], 2, workers=2)
        assert result.is_empty

    def test_whole_space_when_focal_dominates(self):
        dataset = Dataset([[0.2, 0.1], [0.1, 0.3]])
        result = parallel_cta(dataset, [0.9, 0.9], 1, workers=2)
        assert result.total_volume() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("space", ["transformed", "original"])
    def test_workers_build_the_serial_hyperplanes_bit_for_bit(self, monkeypatch, space):
        """Workers get the remaining competitors' rows, ids and the focal, not
        hyperplanes.  Every hyperplane a worker inserts has the coefficient,
        offset and norm bits of that record's hyperplane built on its own."""
        dataset = independent_dataset(60, 3, seed=306)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.97
        serial = cta(dataset, focal, 3, space=space)
        inserted: list = []
        insert = CellTree.insert

        def recording(tree, hyperplane, *args, **kwargs):
            inserted.append((threading.get_ident(), hyperplane))
            return insert(tree, hyperplane, *args, **kwargs)

        monkeypatch.setattr(CellTree, "insert", recording)
        monkeypatch.setattr(subtree_module, "ProcessPoolExecutor", ThreadPoolExecutor)
        assert_results_identical(parallel_cta(dataset, focal, 3, workers=2, shard_factor=2, space=space), serial)
        built = [hyperplane for thread, hyperplane in inserted if thread != threading.get_ident()]
        assert len({hyperplane.record_id for hyperplane in built}) > 10
        build = build_hyperplanes if space == "transformed" else original_space_hyperplanes
        for hyperplane in built:
            values = dataset.record_by_id(hyperplane.record_id).values
            alone = build(values[None, :], focal, [hyperplane.record_id])[0]
            assert hyperplane.coefficients.tobytes() == alone.coefficients.tobytes()
            assert float(hyperplane.offset).hex() == float(alone.offset).hex()
            assert float(hyperplane.norm).hex() == float(alone.norm).hex()

    def test_merged_result_verifies_against_ground_truth(self):
        from repro import verify_result

        dataset = independent_dataset(60, 3, seed=304)
        focal = dataset.values[9] * 0.96
        result = parallel_cta(dataset, focal, 3, workers=2)
        report = verify_result(result, dataset, focal, 3, samples=500, rng=305)
        assert report.is_consistent


class TestShardedExecutor:
    @pytest.fixture(scope="class")
    def dataset(self) -> Dataset:
        return independent_dataset(150, 3, seed=310)

    @pytest.fixture(scope="class")
    def specs(self, dataset) -> list:
        return [
            QuerySpec(focal=dataset.values[i] * 0.98, k=2 + (i % 3)) for i in range(5)
        ] + [QuerySpec(focal=dataset.values[0] * 0.98, k=2)]  # duplicate of query 0

    def test_matches_engine_answers(self, dataset, specs):
        engine = Engine(dataset)
        expected = [engine.query(spec.focal, spec.k) for spec in specs]
        report = ShardedExecutor(dataset, workers=1).run(specs)
        assert not report.errors
        for got, want in zip(report.results, expected):
            assert_results_identical(got, want)

    def test_multiprocess_matches_single_process(self, dataset, specs):
        single = ShardedExecutor(dataset, workers=1).run(specs)
        multi = ShardedExecutor(dataset, workers=2).run(specs)
        assert not multi.errors
        for got, want in zip(multi.results, single.results):
            assert_results_identical(got, want)

    def test_duplicate_queries_are_deduplicated(self, dataset, specs):
        report = ShardedExecutor(dataset, workers=1).run(specs)
        assert report.cache_hits == 1
        assert report.cold_queries == len(specs) - 1
        assert results_identical(report.results[0], report.results[-1])

    def test_unpruned_mode_matches_plain_kspr(self, dataset):
        focal = dataset.values[3] * 0.97
        report = ShardedExecutor(dataset, workers=1, prune_skyband=False).run(
            [QuerySpec(focal=focal, k=3)]
        )
        assert_results_identical(report.results[0], kspr(dataset, focal, 3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_keep_their_type_across_worker_counts(self, dataset, workers):
        from repro.exceptions import InvalidQueryError

        report = ShardedExecutor(dataset, workers=workers).run(
            [QuerySpec(focal=dataset.values[0] * 0.9, k=2), QuerySpec(focal=np.array([1.0]), k=2)]
        )
        assert len(report.errors) == 1
        assert report.outcomes[0].ok and not report.outcomes[1].ok
        assert isinstance(report.outcomes[1].error, InvalidQueryError)

    def test_given_counts_are_never_recounted(self, dataset, monkeypatch):
        import importlib

        from repro.index.dominance import dominated_counts

        counts = dominated_counts(dataset)
        expected = ShardedExecutor(dataset, workers=1).run([QuerySpec(dataset.values[7] * 0.96, 2)])

        def recount(_dataset, *args, **kwargs):
            raise AssertionError("dominator counts were recounted")

        # import_module: ``repro.index.skyline`` is also the name of a function.
        for module in ("repro.index.skyline", "repro.parallel.executor"):
            monkeypatch.setattr(importlib.import_module(module), "dominated_counts", recount)
        report = ShardedExecutor(dataset, workers=1, dominator_counts=counts).run(
            [QuerySpec(dataset.values[7] * 0.96, 2), QuerySpec(dataset.values[8] * 0.96, 3)]
        )
        assert not report.errors
        assert_results_identical(report.results[0], expected.results[0])

    def test_an_empty_dataset_fails_each_query_not_the_run(self):
        from repro.exceptions import ReproError

        report = ShardedExecutor(Dataset(np.empty((0, 3))), workers=1).run(
            [QuerySpec(np.ones(3), 1), QuerySpec(np.ones(3) * 0.5, 1)]
        )
        assert len(report.errors) == 2
        assert all(isinstance(outcome.error, ReproError) for outcome in report.outcomes)

    def test_precomputed_counts_accepted(self, dataset):
        from repro.index.dominance import dominated_counts

        counts = dominated_counts(dataset)
        focal = dataset.values[7] * 0.96
        with_counts = ShardedExecutor(dataset, workers=1, dominator_counts=counts).run(
            [QuerySpec(focal=focal, k=2)]
        )
        without = ShardedExecutor(dataset, workers=1).run([QuerySpec(focal=focal, k=2)])
        assert_results_identical(with_counts.results[0], without.results[0])


class TestEngineIntegration:
    def test_query_batch_workers_adopts_into_cache(self):
        dataset = independent_dataset(120, 3, seed=320)
        specs = [(dataset.values[i] * 0.98, 2) for i in range(4)]
        engine = Engine(dataset)
        report = QueryBatch(engine, workers=2).run(specs)
        assert not report.errors
        assert engine.metrics()["engine.result_cache.adopted"] == len(specs)
        # Adopted answers serve later engine queries as cache hits.
        hot = engine.query(specs[0][0], specs[0][1])
        assert hot is report.results[0]

    def test_engine_query_workers_routes_cta_and_caches(self):
        dataset = independent_dataset(100, 3, seed=321)
        focal = dataset.values[4] * 0.97
        reference = Engine(dataset, method="cta").query(focal, 3)
        engine = Engine(dataset, method="cta")
        sharded = engine.query(focal, 3, workers=2)
        assert_results_identical(sharded, reference)
        # The cached entry is shared with serial queries (workers is not part
        # of the cache key: the answers are identical by construction).
        assert engine.query(focal, 3) is sharded

    def test_sharded_batch_serves_repeats_from_engine_cache(self):
        dataset = independent_dataset(100, 3, seed=323)
        specs = [(dataset.values[i] * 0.98, 2) for i in range(3)]
        engine = Engine(dataset)
        first = QueryBatch(engine, workers=2).run(specs)
        assert first.cold_queries == len(specs)
        # Second identical batch: everything is already in the engine cache —
        # nothing may be recomputed (or even dispatched to workers).
        second = QueryBatch(engine, workers=2).run(specs)
        assert second.cache_hits == len(specs)
        assert second.cold_queries == 0
        for warm, cold in zip(second.results, first.results):
            assert warm is cold

    def test_snapshot_state_is_internally_consistent(self):
        dataset = independent_dataset(80, 3, seed=324)
        engine = Engine(dataset)
        engine.insert([0.95, 0.95, 0.95])
        snapshot, counts = engine.snapshot_state()
        assert counts.shape == (snapshot.cardinality,)
        # Counts must describe exactly the returned snapshot's records.
        from repro.index.dominance import dominated_counts

        assert np.array_equal(counts, dominated_counts(snapshot))
        # After a seeded churn of inserts and deletes the counts (read as one
        # array from the index) still describe the engine's dataset row by row.
        rng = np.random.default_rng(325)
        for _ in range(30):
            if rng.random() < 0.5:
                engine.insert(rng.random(3))
            else:
                engine.delete(int(rng.choice(engine.dataset.ids)))
        snapshot, counts = engine.snapshot_state()
        assert snapshot is engine.dataset
        assert np.array_equal(counts, dominated_counts(engine.dataset))
        assert np.array_equal(engine.dominator_counts(), counts)

    def test_adopt_result_rejects_stale_fingerprints(self):
        dataset = independent_dataset(60, 3, seed=322)
        engine = Engine(dataset)
        focal = dataset.values[2] * 0.98
        result = engine.query(focal, 2)
        stale = "not-the-current-fingerprint"
        assert not engine.adopt_result(stale, focal, 2, None, {}, result)
        assert engine.adopt_result(engine.fingerprint, focal, 2, None, {}, result)


class TestShardedMetrics:
    """The caller's registry holds every shard's ``query.lp.*`` counters and histogram.

    Sharded CTA does not solve the LPs serial CTA solves: a worker starts
    probing at its seed leaf, while the serial tree probes that leaf's
    ancestors first.  So the oracle is the sharded run itself, with its shard
    groups on threads of this process, where hooks count each certificate,
    failed vertex enumeration and LP as it happens.
    """

    COUNTERS = (LP_VERTEX_CERTIFICATES, LP_VERTEX_FALLBACKS, LP_FALLBACK_CALLS)

    @staticmethod
    def _case(case):
        dataset, focal, _ = grid._build_case(*case)
        return dataset, focal, case[2]

    @classmethod
    def _tally(cls, monkeypatch, dataset, focal, k, stock: bool) -> tuple[dict, Histogram, MetricsRegistry]:
        """Expected counter values and histogram of one sharded run, and that run's registry."""
        certificates: list = []
        failures: list = []
        rows: list = []
        certified_empty = Cell._certified_empty
        enumerate_vertices = celltree_module.polytope_vertices
        solve = linprog_module.linprog

        def counting_certificate(cell, halfspace, tolerance):
            verdict = certified_empty(cell, halfspace, tolerance)
            if verdict:
                certificates.append(1)
            return verdict

        def counting_enumeration(*args, **kwargs):
            try:
                return enumerate_vertices(*args, **kwargs)
            except GeometryError:
                failures.append(1)
                raise

        def counting_solve(c, A_ub=None, b_ub=None, **kwargs):
            rows.append(0 if A_ub is None else len(A_ub))
            return solve(c, A_ub=A_ub, b_ub=b_ub, **kwargs)

        monkeypatch.setattr(Cell, "_certified_empty", counting_certificate)
        monkeypatch.setattr(celltree_module, "polytope_vertices", counting_enumeration)
        monkeypatch.setattr(linprog_module, "linprog", counting_solve)
        monkeypatch.setattr(subtree_module, "ProcessPoolExecutor", ThreadPoolExecutor)
        registry = MetricsRegistry()
        with use_registry(registry):
            parallel_cta(dataset, focal, k, workers=2, shard_factor=2)
        histogram = Histogram(LP_CONSTRAINTS)
        for count in rows:
            histogram.observe(count)
        expected = dict(zip(cls.COUNTERS, (len(certificates), len(failures), len(rows) if stock else 0)))
        return expected, histogram, registry

    @classmethod
    def _assert_holds(cls, registry: MetricsRegistry, expected: dict, histogram: Histogram) -> None:
        assert {name: registry.counter(name).value for name in cls.COUNTERS} == expected
        assert registry.histogram(LP_CONSTRAINTS).as_dict() == histogram.as_dict()

    @pytest.mark.parametrize(
        "case",
        [(16, 3, 3, "independent", 8000), (12, 4, 2, "anticorrelated", 11001), (14, 4, 3, "independent", 12001)],
        ids=str,
    )
    def test_worker_processes_ship_their_counters(self, monkeypatch, case):
        dataset, focal, k = self._case(case)
        pooled = MetricsRegistry()
        with use_registry(pooled):
            parallel_cta(dataset, focal, k, workers=2, shard_factor=2)
        expected, histogram, threaded = self._tally(monkeypatch, dataset, focal, k, stock=False)
        assert expected[LP_VERTEX_CERTIFICATES] > 0
        self._assert_holds(threaded, expected, histogram)
        self._assert_holds(pooled, expected, histogram)

    def test_fallback_counters_merge_too(self, monkeypatch):
        """Stock linprog and a failing Qhull make the other two counters count."""
        dataset, focal, k = self._case((14, 3, 2, "anticorrelated", 7000))
        monkeypatch.setattr(linprog_module, "linprog", linprog_module._stock_linprog)
        monkeypatch.setattr(polytope_module, "HalfspaceIntersection", _qhull_fails)
        expected, histogram, registry = self._tally(monkeypatch, dataset, focal, k, stock=True)
        assert expected[LP_VERTEX_FALLBACKS] > 0 and expected[LP_FALLBACK_CALLS] > 0
        self._assert_holds(registry, expected, histogram)


def _qhull_fails(*args, **kwargs):
    raise QhullError("vertex enumeration forced to fail")
