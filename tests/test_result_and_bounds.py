"""Unit tests for the result model, rank bounds and the progressive loop pieces."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.bounds as bounds_module
from repro import Dataset, PreferenceRegion, QueryStats, lpcta, pcta
from repro.core.bounds import (
    BoundsMode,
    OriginalSpaceBoundEvaluator,
    RankBounds,
    TransformedBoundEvaluator,
    cell_score_interval,
    fast_vectors,
    score_objective,
)
from repro.core.celltree import CellTree
from repro.core.progressive import exists_unprocessed_not_dominated
from repro.core.verify import rank_under_weights
from repro.data import independent_dataset, restaurant_example
from repro.geometry.halfspace import Halfspace, Hyperplane, build_hyperplane
from repro.geometry.transform import random_weight_vectors, original_to_transformed
from repro.index.rtree import AggregateRTree


class TestScoreObjective:
    def test_linear_form_matches_direct_score(self):
        point = np.array([2.0, 5.0, 3.0])
        coefficients, constant = score_objective(point)
        rng = np.random.default_rng(0)
        for weights in rng.dirichlet(np.ones(3), size=20):
            transformed = original_to_transformed(weights)
            assert coefficients @ transformed + constant == pytest.approx(point @ weights)

    def test_cell_score_interval_brackets_scores(self):
        point = np.array([1.0, 4.0, 2.0])
        low, high = cell_score_interval(point, (), 2)
        rng = np.random.default_rng(1)
        samples = rng.dirichlet(np.ones(3), size=200) @ point
        assert low <= samples.min() + 1e-9
        assert high >= samples.max() - 1e-9


class TestFastVectors:
    def test_vectors_bound_weights_in_cell(self):
        # Cell: w_0 > 0.3 inside the 2-d transformed space.
        cell = (Halfspace(Hyperplane(np.array([1.0, 0.0]), 0.3), "+"),)
        low, high = fast_vectors(cell, 2)
        assert low.shape == (3,)
        assert low[0] == pytest.approx(0.3, abs=1e-6)
        assert high[0] == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= low[2] <= high[2] <= 0.7 + 1e-6

    def test_fast_bounds_bracket_tight_bounds(self):
        dataset = independent_dataset(40, 3, seed=3)
        cell = (Halfspace(Hyperplane(np.array([1.0, 0.2]), 0.35), "+"),)
        vector_low, vector_high = fast_vectors(cell, 2)
        for record in dataset:
            tight_low, tight_high = cell_score_interval(record.values, cell, 2)
            assert float(record.values @ vector_low) <= tight_low + 1e-9
            assert float(record.values @ vector_high) >= tight_high - 1e-9


class TestRankBounds:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RankBounds(lower=5, upper=3)

    @pytest.mark.parametrize("mode", list(BoundsMode))
    def test_bounds_bracket_true_rank(self, mode):
        dataset = independent_dataset(60, 3, seed=23)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.9
        partition = dataset.partition_by_focal(focal)
        tree = AggregateRTree(partition.competitors)
        evaluator = TransformedBoundEvaluator(tree, focal, dimensionality=2, mode=mode)

        celltree = CellTree(2, k=1000)
        for record in list(partition.competitors)[:5]:
            celltree.insert(build_hyperplane(record.values, focal, record.record_id))

        rng = np.random.default_rng(7)
        for leaf in celltree.iter_active_leaves():
            bounds = evaluator.evaluate(leaf.cell, k=1000)
            assert bounds.lower <= bounds.upper
            # Sample points inside the cell and check the competitor-only rank.
            for weights in random_weight_vectors(3, 40, rng):
                transformed = original_to_transformed(weights)
                if all(h.contains(transformed) for h in leaf.path_halfspaces()):
                    rank = rank_under_weights(partition.competitors, focal, weights)
                    assert bounds.lower <= rank <= bounds.upper


class TestOriginalSpaceBounds:
    def test_group_bound_solves_one_lp_per_corner(self, monkeypatch):
        """A child's low corner needs only its minimum, its high corner only its maximum."""
        dataset = independent_dataset(60, 3, seed=23)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.9
        partition = dataset.partition_by_focal(focal)
        tree = AggregateRTree(partition.competitors, fanout=4)
        internal = [tree.root]
        for node in internal:
            internal.extend(child for child in node.children if not child.is_leaf)
        assert len(internal) > 1, "the case needs internal R-tree nodes below the root"
        children = [child for node in internal for child in node.children]
        lows = {(child.mbr.low - focal).tobytes() for child in children}
        highs = {(child.mbr.high - focal).tobytes() for child in children}
        # Records need both ends of their interval; a one-record child's
        # corners coincide with its record, so those keys are set aside.
        records = {(values - focal).tobytes() for values in partition.competitors.values}

        calls: list[tuple[str, bytes]] = []

        def counted(kind, solve):
            def wrapper(objective, *args, **kwargs):
                calls.append((kind, np.asarray(objective, dtype=float).tobytes()))
                return solve(objective, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(bounds_module, "minimize_linear", counted("min", bounds_module.minimize_linear))
        monkeypatch.setattr(bounds_module, "maximize_linear", counted("max", bounds_module.maximize_linear))
        evaluator = OriginalSpaceBoundEvaluator(tree, focal, dimensionality=3)
        celltree = CellTree(3, k=1000)
        for record in list(partition.competitors)[:3]:
            celltree.insert(Hyperplane(record.values - focal, 0.0, record.record_id))
        for leaf in celltree.iter_active_leaves():
            evaluator.evaluate(leaf.cell, k=1000)

        corner_calls = [(kind, key) for kind, key in calls if key not in records]
        assert any(kind == "min" for kind, _ in corner_calls)
        assert any(kind == "max" for kind, _ in corner_calls)
        for kind, key in corner_calls:
            assert (kind == "min" and key in lows) or (kind == "max" and key in highs), kind


class TestExistsUnprocessedNotDominated:
    def test_detects_uncovered_record(self):
        dataset = Dataset([[0.9, 0.1], [0.1, 0.9], [0.4, 0.4]])
        tree = AggregateRTree(dataset)
        pivots = np.array([[0.5, 0.5]])
        assert exists_unprocessed_not_dominated(tree, pivots, processed_ids=set())

    def test_all_records_dominated_by_pivot(self):
        dataset = Dataset([[0.1, 0.1], [0.2, 0.3], [0.3, 0.2]])
        tree = AggregateRTree(dataset)
        pivots = np.array([[0.5, 0.5]])
        assert not exists_unprocessed_not_dominated(tree, pivots, processed_ids=set())

    def test_processed_records_are_ignored(self):
        dataset = Dataset([[0.9, 0.9], [0.1, 0.1]])
        tree = AggregateRTree(dataset)
        pivots = np.array([[0.5, 0.5]])
        assert not exists_unprocessed_not_dominated(tree, pivots, processed_ids={0})

    def test_no_pivots_means_any_unprocessed_counts(self):
        dataset = Dataset([[0.2, 0.2]])
        tree = AggregateRTree(dataset)
        assert exists_unprocessed_not_dominated(tree, np.empty((0, 2)), processed_ids=set())
        assert not exists_unprocessed_not_dominated(tree, np.empty((0, 2)), processed_ids={0})


class TestPreferenceRegion:
    def test_membership_and_volume(self):
        region = PreferenceRegion(
            halfspaces=(Halfspace(Hyperplane(np.array([1.0, 0.0]), 0.5), "-"),),
            rank=1,
            dimensionality=2,
        )
        assert region.contains_transformed(np.array([0.2, 0.2]))
        assert not region.contains_transformed(np.array([0.7, 0.1]))
        assert not region.contains_transformed(np.array([0.6, 0.6]))  # outside simplex
        assert region.volume == pytest.approx(0.375, abs=1e-9)
        assert region.vertices.shape[1] == 2

    def test_contains_weights_uses_original_space(self):
        region = PreferenceRegion(
            halfspaces=(Halfspace(Hyperplane(np.array([1.0, 0.0]), 0.5), "-"),),
            rank=1,
            dimensionality=2,
        )
        assert region.contains_weights(np.array([0.2, 0.3, 0.5]))
        assert not region.contains_weights(np.array([0.7, 0.2, 0.1]))


class TestQueryStats:
    def test_phases_accumulate(self):
        stats = QueryStats()
        stats.add_phase("insertion", 1.0)
        stats.add_phase("insertion", 0.5)
        assert stats.phase_seconds["insertion"] == pytest.approx(1.5)

    def test_io_seconds_model(self):
        stats = QueryStats(index_node_accesses=100)
        assert stats.io_seconds() == pytest.approx(0.02)
        assert stats.io_seconds(seconds_per_access=0.001) == pytest.approx(0.1)

    def test_result_summary_fields(self, restaurants):
        dataset, kyma = restaurants
        result = pcta(dataset, kyma, 3)
        summary = result.summary()
        assert summary["regions"] == len(result)
        assert summary["k"] == 3
        assert 0.0 < summary["impact_probability"] <= 1.0
        assert summary["response_seconds"] > 0.0


class TestEmptyResultSemantics:
    """Empty answers flow through the same code path as non-empty ones."""

    def _empty_result(self):
        from repro import KSPRResult

        return KSPRResult(np.array([1.0, 2.0]), 2, [], QueryStats(algorithm="test"))

    def test_empty_impact_probability_is_exactly_zero(self):
        result = self._empty_result()
        assert result.impact_probability() == 0.0
        assert result.total_volume() == 0.0
        assert result.is_empty

    def test_empty_summary_routes_through_impact_probability(self):
        summary = self._empty_result().summary()
        assert summary["impact_probability"] == 0.0
        assert summary["regions"] == 0.0
        assert summary["volume"] == 0.0

    def test_dominated_focal_produces_consistent_empty_summary(self):
        dataset = independent_dataset(40, 3, seed=9)
        focal = dataset.values.min(axis=0) * 0.5  # dominated by everything
        result = lpcta(dataset, focal, 1)
        assert result.is_empty
        assert result.summary()["impact_probability"] == result.impact_probability() == 0.0

    def test_empty_partial_result_semantics(self):
        from repro import PartialKSPRResult

        stats = QueryStats(algorithm="test")
        in_flight = PartialKSPRResult(
            np.array([1.0, 2.0]), 2, [], stats, done=False, batches=1, dimensionality=1
        )
        # Nothing certified yet: the lower bound is exactly zero, while the
        # upper bound stays trivially sound (empty frontier capture here).
        assert in_flight.impact_lower() == 0.0
        assert in_flight.summary()["impact_lower"] == 0.0
        done = PartialKSPRResult(
            np.array([1.0, 2.0]), 2, [], stats, done=True, batches=1, dimensionality=1
        )
        assert done.impact_bracket() == (0.0, 0.0)
        summary = done.summary()
        assert summary["impact_lower"] == summary["impact_upper"] == 0.0
        assert done.to_result().impact_probability() == 0.0
        assert done.to_result().summary()["impact_probability"] == 0.0


class TestProgressiveReporting:
    def test_early_reporting_happens_on_easy_instances(self):
        dataset, kyma = restaurant_example()
        result = pcta(dataset, kyma, 3)
        # The example is small; every region is reported before termination or
        # at the final exact step — either way the counters are consistent.
        assert result.stats.processed_records <= dataset.cardinality
        assert result.stats.batches >= 1

    def test_lpcta_stats_include_bound_activity(self):
        dataset = independent_dataset(80, 3, seed=71)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.95
        result = lpcta(dataset, focal, 3)
        stats = result.stats
        assert stats.cells_reported_early + stats.cells_pruned_by_bounds >= 0
        assert "bounds" in stats.phase_seconds
