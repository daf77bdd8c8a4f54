"""Tests for market-impact analysis, the experiment harness and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kspr
from repro.analysis import impact_probability, market_impact, weighted_impact_probability
from repro.data import independent_dataset, restaurant_example
from repro.exceptions import InvalidQueryError
from repro.experiments import (
    ExperimentConfig,
    MeasuredRun,
    format_table,
    render_figure,
    run_figure,
    run_method,
    select_focal,
    sweep,
)
from repro.experiments.figures import FIGURES
from repro.core.result import SECONDS_PER_PAGE, QueryStats


@pytest.fixture(scope="module")
def kyma_result():
    dataset, kyma = restaurant_example()
    return dataset, kyma, kspr(dataset, kyma, 3)


class TestImpactAnalysis:
    def test_uniform_probability_between_zero_and_one(self, kyma_result):
        _, _, result = kyma_result
        probability = impact_probability(result)
        assert 0.0 < probability <= 1.0

    def test_weighted_probability_close_to_uniform_for_uniform_sampler(self, kyma_result):
        dataset, _, result = kyma_result
        exact = impact_probability(result)
        estimated = weighted_impact_probability(result, dataset.dimensionality, samples=4000, rng=1)
        assert estimated == pytest.approx(exact, abs=0.05)

    def test_biased_sampler_changes_probability(self, kyma_result):
        dataset, _, result = kyma_result

        def ambiance_lovers(rng, count):
            # Users who care mostly about the third attribute (ambiance).
            raw = rng.dirichlet(np.array([1.0, 1.0, 8.0]), size=count)
            return raw

        biased = weighted_impact_probability(
            result, dataset.dimensionality, sampler=ambiance_lovers, samples=3000, rng=2
        )
        uniform = impact_probability(result)
        assert biased != pytest.approx(uniform, abs=1e-3)

    def test_market_impact_summary(self, kyma_result):
        dataset, _, result = kyma_result
        summary = market_impact(result, dataset.dimensionality, samples=3000, rng=3)
        assert summary.region_count == len(result)
        assert summary.mean_preference is not None
        assert summary.mean_preference.shape == (3,)
        assert summary.mean_preference.sum() == pytest.approx(1.0, abs=1e-6)

    def test_empty_result_has_zero_impact(self):
        dataset = independent_dataset(30, 3, seed=5)
        # A hopeless focal record: dominated by everything.
        result = kspr(dataset, np.zeros(3), 1)
        assert impact_probability(result) == 0.0
        summary = market_impact(result, 3, samples=100, rng=1)
        assert summary.mean_preference is None
        assert summary.uniform_probability == 0.0


class TestHarness:
    def test_select_focal_policies(self):
        dataset = independent_dataset(100, 3, seed=7)
        skyline_focal = select_focal(dataset, "skyline-random", seed=1)
        top_focal = select_focal(dataset, "skyline-top", seed=1)
        random_focal = select_focal(dataset, "random", seed=1)
        assert skyline_focal.shape == (3,)
        assert top_focal.shape == (3,)
        assert random_focal.shape == (3,)
        with pytest.raises(InvalidQueryError):
            select_focal(dataset, "bogus")

    def test_run_method_produces_metrics(self):
        dataset = independent_dataset(40, 3, seed=8)
        focal = select_focal(dataset, "skyline-top", seed=0)
        run = run_method("P-CTA", dataset, focal, 2, config_label={"k": 2})
        assert run.method == "P-CTA"
        assert run.config["k"] == 2
        assert run.metrics["response_seconds"] > 0
        assert run.metrics["result_regions"] >= 0

    def test_run_method_rejects_unknown_method(self):
        dataset = independent_dataset(10, 3, seed=9)
        with pytest.raises(InvalidQueryError):
            run_method("QUANTUM", dataset, dataset.values[0], 2)

    def test_sweep_averages_queries(self):
        configs = [
            ExperimentConfig(cardinality=30, dimensionality=3, k=2, queries=2, focal_policy="skyline-top")
        ]
        rows = sweep(configs, methods=["P-CTA"])
        assert len(rows) == 1
        assert rows[0].config["n"] == 30

    def test_experiment_config_dataset_dispatch(self):
        synthetic = ExperimentConfig(distribution="COR", cardinality=20, dimensionality=3).dataset()
        surrogate = ExperimentConfig(distribution="NBA", cardinality=20, dimensionality=8).dataset()
        assert synthetic.cardinality == 20
        assert surrogate.dimensionality == 8


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["x", float("nan")]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-" in lines[1]

    def test_measured_run_row_order(self):
        run = MeasuredRun("M", {"k": 3}, {"metric": 1.0})
        assert run.row(["method", "k", "metric", "missing"]) == ["M", 3, 1.0, pytest.approx(float("nan"), nan_ok=True)]

    def test_registry_contains_all_figures(self):
        expected = {
            "table1", "fig09", "fig10a", "fig10b", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
            "fig22", "fig23", "fig24",
        }
        assert expected == set(FIGURES)

    def test_run_figure_unknown_id(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_table1_renders(self):
        rendered = render_figure(run_figure("table1"))
        assert "HOTEL" in rendered
        assert "paper_cardinality" in rendered


class TestDiskModel:
    def test_cost_breakdown(self):
        stats = QueryStats(index_node_accesses=50)
        stats.response_seconds = 0.5
        assert SECONDS_PER_PAGE == 0.0002  # the paper's SSD random read
        assert stats.io_seconds() == pytest.approx(0.01)
        assert stats.response_seconds + stats.io_seconds() == pytest.approx(0.51)

    def test_custom_latency(self):
        stats = QueryStats(index_node_accesses=10)
        assert stats.io_seconds(seconds_per_access=0.001) == pytest.approx(0.01)
