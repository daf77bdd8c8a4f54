"""Tests for the public query API, the verification oracle and the CLI glue."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, available_methods, kspr, verify_result
from repro.core.verify import VerificationReport, rank_under_weights
from repro.data import independent_dataset, restaurant_example
from repro.exceptions import InvalidQueryError
from repro.experiments.__main__ import main as experiments_cli
from repro.experiments.report import render_runs
from repro.experiments.metrics import MeasuredRun


class TestKsprDispatch:
    def test_available_methods(self):
        names = available_methods()
        assert {"cta", "pcta", "lpcta", "op-cta", "olp-cta"} <= set(names)

    @pytest.mark.parametrize("spelling", ["LPCTA", "lpcta", "lp_cta", " lpcta "])
    def test_method_name_normalisation(self, spelling, restaurants):
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, 3, method=spelling)
        assert result.stats.algorithm.startswith("LP-CTA")

    def test_bounds_mode_string_forwarded(self, restaurants):
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, 3, method="lpcta", bounds_mode="group")
        assert result.stats.algorithm == "LP-CTA[group]"

    def test_finalize_geometry_can_be_disabled(self, restaurants):
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, 3, finalize_geometry=False)
        assert all(region.geometry is None for region in result.regions)
        # Geometry can still be computed lazily afterwards.
        assert result.total_volume() > 0

    def test_every_method_serves_as_an_engine_default(self):
        """An engine stores its default method canonically ("sample" becomes
        "sample_kspr"); every query on the default must still resolve."""
        from repro import Engine
        from repro.parallel import ShardedExecutor

        dataset = independent_dataset(60, 3, seed=4)
        focal = dataset.values[0] * 0.97
        for method in available_methods():
            assert Engine(dataset, method=method).query(focal, 2) is not None
        report = ShardedExecutor(dataset, workers=1, method="sample").run([(focal, 2)])
        assert not report.errors

    def test_low_dimensional_dataset_rejected(self):
        with pytest.raises(InvalidQueryError):
            kspr(Dataset([[1.0], [2.0]]), [1.5], 1)

    def test_focal_shape_validated(self, small_ind_dataset):
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, np.ones((2, 2)), 2)


class TestQueryValidation:
    """Early input validation in kspr() (before any algorithm work starts)."""

    @pytest.mark.parametrize("bad_k", [0, -3, 1.5, "2", True])
    def test_non_positive_or_non_integer_k_rejected(self, small_ind_dataset, bad_k):
        focal = small_ind_dataset.values[0]
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, focal, bad_k)

    def test_numpy_integer_k_accepted(self, restaurants):
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, np.int64(3))
        assert result.k == 3

    def test_k_larger_than_cardinality_rejected(self, small_ind_dataset, restaurants):
        focal = small_ind_dataset.values[0]
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, focal, small_ind_dataset.cardinality + 1)
        # k == n is the boundary and stays legal.
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, dataset.cardinality, finalize_geometry=False)
        assert result.k == dataset.cardinality

    def test_focal_dimensionality_mismatch_rejected(self, small_ind_dataset):
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, [0.5, 0.5], 2)
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, [0.5, 0.5, 0.5, 0.5], 2)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_focal_rejected(self, small_ind_dataset, bad_value):
        with pytest.raises(InvalidQueryError):
            kspr(small_ind_dataset, [0.5, bad_value, 0.5], 2)


class TestOptionRejection:
    """An option a method does not take is an InvalidQueryError at every entry point."""

    #: (method, an option that method does not take)
    CASES = [
        ("pcta", {"space": "original"}),
        ("lpcta", {"space": "original"}),
        ("op-cta", {"finalize_geometry": True}),
        ("olp-cta", {"bounds_mode": "group"}),
        ("cta", {"bounds_mode": "group"}),
        ("pcta", {"bogus": 1}),
    ]

    @staticmethod
    def _case():
        dataset = independent_dataset(200, 3, seed=1)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.97
        return dataset, focal

    @pytest.mark.parametrize("method, option", CASES)
    def test_every_entry_point_rejects_at_call_time(self, method, option):
        from repro import Engine, stream_kspr

        dataset, focal = self._case()
        (name,) = option
        engine = Engine(dataset)
        calls = (
            lambda: kspr(dataset, focal, 2, method=method, **option),
            lambda: stream_kspr(dataset, focal, 2, method=method, **option),
            lambda: engine.query(focal, 2, method=method, **option),
            lambda: engine.query_stream(focal, 2, method=method, **option),
        )
        for call in calls:
            with pytest.raises(InvalidQueryError, match=rf"'{name}'") as caught:
                call()
            assert method.replace("-", "_") in str(caught.value)
        # Rejected before any prepared state was built or any query counted.
        assert engine.metrics()["engine.prepared.builds"] == 0
        assert engine.metrics()["engine.queries"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_executor_reports_the_rejection_per_query(self, workers):
        from repro.engine import QuerySpec
        from repro.parallel import ShardedExecutor

        dataset, focal = self._case()
        specs = [
            QuerySpec(focal=focal, k=2, method="pcta"),
            QuerySpec(focal=focal * 0.99, k=2, method="pcta", options=(("space", "original"),)),
        ]
        report = ShardedExecutor(dataset, workers=workers).run(specs)
        assert report.outcomes[0].completed
        assert isinstance(report.outcomes[1].error, InvalidQueryError)
        assert "'space'" in str(report.outcomes[1].error)

    def test_rejected_stream_option_leaves_the_engine_serving(self):
        """A stream once ran P-CTA in the transformed space under an original-space
        key; the cached transformed hyperplanes then broke a later OP-CTA query."""
        from repro import Engine
        from repro.parallel import assert_results_identical

        dataset, focal = self._case()
        engine = Engine(dataset)
        with pytest.raises(InvalidQueryError, match="space"):
            engine.query_stream(focal, 2, method="pcta", space="original")
        result = engine.query(focal, 2, method="op-cta")
        assert_results_identical(result, Engine(dataset).query(focal, 2, method="op-cta"))
        assert result.stats.algorithm == "OP-CTA"

    def test_workers_is_ignored_by_methods_without_sharding(self):
        from repro import Engine, stream_kspr
        from repro.parallel import assert_results_identical

        dataset, focal = self._case()
        serial = kspr(dataset, focal, 2, method="pcta")
        assert_results_identical(
            stream_kspr(dataset, focal, 2, method="pcta", workers=2).run(), serial
        )
        sharded = Engine(dataset, prune_skyband=False).query(focal, 2, method="pcta", workers=2)
        assert_results_identical(sharded, serial)
        assert sharded.stats.algorithm == "P-CTA"

    def test_unknown_bounds_mode_is_an_invalid_query(self):
        from repro import Engine

        dataset, focal = self._case()
        with pytest.raises(InvalidQueryError, match="bounds_mode"):
            kspr(dataset, focal, 2, method="lpcta", bounds_mode="fastest")
        with pytest.raises(InvalidQueryError, match="bounds_mode"):
            Engine(dataset).query(focal, 2, method="lpcta", bounds_mode="fastest")


class TestVerification:
    def test_rank_under_weights_matches_dataset_rank(self, small_ind_dataset):
        weights = np.full(3, 1.0 / 3.0)
        focal = small_ind_dataset.values[5]
        expected = small_ind_dataset.rank_of(focal, weights)
        assert rank_under_weights(small_ind_dataset, focal, weights) == expected

    def test_report_flags_wrong_results(self):
        dataset, kyma = restaurant_example()
        correct = kspr(dataset, kyma, 3)
        # Deliberately answer the wrong query (k=1 regions for a k=3 check):
        # the verifier must flag missing coverage (false negatives).
        wrong = kspr(dataset, kyma, 1)
        report = verify_result(wrong, dataset, kyma, 3, samples=1000, rng=2)
        assert not report.is_consistent
        assert report.false_negatives
        assert not report.false_positives  # k=1 regions are a subset of k=3 ones
        # And the correct answer passes the same check.
        assert verify_result(correct, dataset, kyma, 3, samples=1000, rng=2).is_consistent

    def test_report_counters_add_up(self):
        dataset = independent_dataset(30, 3, seed=3)
        focal = dataset.values[int(np.argmax(dataset.values.sum(axis=1)))] * 0.97
        result = kspr(dataset, focal, 2)
        report = verify_result(result, dataset, focal, 2, samples=300, rng=5)
        assert isinstance(report, VerificationReport)
        assert report.checked + report.skipped_boundary == report.samples
        assert report.mismatches == len(report.false_positives) + len(report.false_negatives)


class TestCliAndReporting:
    def test_cli_lists_figures(self, capsys):
        assert experiments_cli([]) == 0
        output = capsys.readouterr().out
        assert "fig10b" in output
        assert "fig22" in output

    def test_cli_runs_a_table(self, capsys):
        assert experiments_cli(["table1"]) == 0
        output = capsys.readouterr().out
        assert "HOTEL" in output

    def test_render_runs_ad_hoc(self):
        runs = [MeasuredRun("X", {"k": 1}, {"metric": 2.0})]
        rendered = render_runs("title", ["method", "k", "metric"], runs)
        assert rendered.startswith("title")
        assert "X" in rendered


class TestResultContainer:
    def test_indexing_and_iteration(self, restaurants):
        dataset, kyma = restaurants
        result = kspr(dataset, kyma, 3)
        assert len(list(result)) == len(result)
        assert result[0] is result.regions[0]
        assert not result.is_empty

    def test_ranks_include_dominators(self):
        # Two records dominate the focal one, so its best possible rank is 3.
        dataset = Dataset([[5.0, 5.0], [4.0, 4.0], [0.5, 2.0], [2.0, 0.5]])
        result = kspr(dataset, [1.0, 1.0], 4)
        assert not result.is_empty
        assert all(region.rank >= 3 for region in result.regions)
