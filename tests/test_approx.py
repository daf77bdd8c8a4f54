"""The statistical contract of the sampling-based approximate kSPR mode.

Four groups of guarantees are enforced:

* **calibration** — across 180 seeded trials on small instances whose exact
  impact probability is known (computed by the exact algorithms), the true
  value falls inside the reported Clopper–Pearson / Hoeffding intervals at
  no less than the nominal ``1 - delta`` rate (minus binomial slack);
* **determinism** — estimates are a pure function of the seeded chunk
  stream: identical across repeated calls, across worker counts (process
  pools included) and across every integration surface (``kspr``,
  ``Engine.query(approx=...)``, ``QueryBatch``, ``ShardedExecutor``);
* **validation** — malformed ``epsilon`` / ``delta`` / ``samples`` / ``mode``
  / ``chunk`` values raise :class:`~repro.exceptions.InvalidQueryError` at
  admission, at every entry point;
* **stream cross-validation** — the sampled interval is consistent with the
  exact anytime brackets (:func:`repro.approx.cross_check_stream`) at the
  nominal rate across seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ApproxSpec, Dataset, Engine, QueryBatch, ShardedExecutor, kspr
from repro.approx import (
    ApproxKSPRResult,
    clopper_pearson_bounds,
    cross_check_stream,
    hoeffding_half_width,
    required_samples,
    sample_chunk,
    sample_kspr,
    sample_preference_weights,
)
from repro.core.query import available_methods
from repro.data import anticorrelated_dataset, independent_dataset
from repro.engine.batch import QuerySpec
from repro.exceptions import InvalidQueryError
from repro.robust import validate_approx_params


def _competitive_focal(dataset: Dataset) -> np.ndarray:
    """A focal with a non-trivial impact: a discounted copy of a top record."""
    best_row = int(dataset.values.sum(axis=1).argmax())
    return dataset.values[best_row] * 0.95


# --------------------------------------------------------------------------- #
# samplers
# --------------------------------------------------------------------------- #
class TestSampler:
    def test_weights_live_on_the_simplex(self):
        for mode in ("uniform", "stratified"):
            weights = sample_preference_weights(4, 500, seed=3, mode=mode)
            assert weights.shape == (500, 4)
            assert np.all(weights >= 0.0)
            assert np.allclose(weights.sum(axis=1), 1.0)

    def test_chunk_stream_is_deterministic_and_index_local(self):
        # Chunk j depends only on (seed, j): drawing chunks out of order or
        # in isolation reproduces the same vectors.
        a = sample_chunk(3, 64, seed=9, index=2)
        b = sample_chunk(3, 64, seed=9, index=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_chunk(3, 64, seed=9, index=3))
        assert not np.array_equal(a, sample_chunk(3, 64, seed=8, index=2))

    def test_stratified_first_coordinate_covers_every_stratum(self):
        # The stick-breaking map sends the first cube coordinate to w_1
        # monotonically (decreasing), so stratification shows up as exactly
        # one w_1 per stratum of the Beta(1, d-1) CDF.
        count = 200
        weights = sample_chunk(3, count, seed=5, index=0, mode="stratified")
        cdf = 1.0 - (1.0 - weights[:, 0]) ** 2  # Beta(1, 2) CDF at w_1
        strata = np.floor(cdf * count).astype(int)
        np.testing.assert_array_equal(np.sort(strata), np.arange(count))

    def test_uniform_marginal_mean_matches_dirichlet(self):
        weights = sample_preference_weights(5, 20_000, seed=1)
        np.testing.assert_allclose(weights.mean(axis=0), np.full(5, 0.2), atol=0.01)

    def test_sampler_input_validation(self):
        with pytest.raises(InvalidQueryError):
            sample_chunk(1, 10, seed=0, index=0)
        with pytest.raises(InvalidQueryError):
            sample_chunk(3, -1, seed=0, index=0)
        with pytest.raises(InvalidQueryError):
            sample_chunk(3, 10, seed=0, index=0, mode="sobol")


# --------------------------------------------------------------------------- #
# interval arithmetic
# --------------------------------------------------------------------------- #
class TestIntervals:
    def test_required_samples_inverts_hoeffding(self):
        for epsilon, delta in [(0.01, 0.05), (0.05, 0.1), (0.002, 0.01)]:
            needed = required_samples(epsilon, delta)
            assert hoeffding_half_width(needed, delta) <= epsilon
            assert hoeffding_half_width(needed - 1, delta) > epsilon

    def test_clopper_pearson_edge_cases(self):
        lower, upper = clopper_pearson_bounds(0, 100, 0.05)
        assert lower == 0.0 and 0.0 < upper < 0.1
        lower, upper = clopper_pearson_bounds(100, 100, 0.05)
        assert upper == 1.0 and 0.9 < lower < 1.0
        with pytest.raises(InvalidQueryError):
            clopper_pearson_bounds(5, 0, 0.05)
        with pytest.raises(InvalidQueryError):
            clopper_pearson_bounds(11, 10, 0.05)

    def test_clopper_pearson_matches_beta_ppf_bit_for_bit(self):
        from scipy.stats import beta

        # The fixed-size deltas, and the adaptive mode's look deltas
        # delta / 2^j for the default contract.
        deltas = [0.2, 0.1, 0.05, 0.01, 1e-4] + [0.05 / 2.0**look for look in range(1, 9)]
        rng = np.random.default_rng(20231)
        checked = 0
        for samples in (1, 2, 3, 7, 10, 64, 100, 999, 10**4, 123_457, 10**6):
            interior = rng.integers(0, samples + 1, size=4)
            hits_grid = {0, 1, samples - 1, samples, *(int(h) for h in interior)}
            for hits in sorted(h for h in hits_grid if 0 <= h <= samples):
                for delta in deltas:
                    expected_lower = (
                        0.0 if hits == 0
                        else float(beta.ppf(delta / 2.0, hits, samples - hits + 1))
                    )
                    expected_upper = (
                        1.0 if hits == samples
                        else float(beta.ppf(1.0 - delta / 2.0, hits + 1, samples - hits))
                    )
                    assert clopper_pearson_bounds(hits, samples, delta) == (
                        expected_lower, expected_upper
                    ), (hits, samples, delta)
                    checked += 1
        assert checked > 800

    def test_estimates_never_import_scipy_stats(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import asyncio, sys\n"
            "from repro import ApproxSpec, Engine\n"
            "from repro.data import independent_dataset\n"
            "from repro.serve import KSPRService, ServeConfig, ServeRequest\n"
            "from repro.serve.protocol import approx_payload\n"
            "engine = Engine(independent_dataset(60, 3, seed=3))\n"
            "focal = engine.dataset.values[engine.dataset.values.sum(axis=1).argmax()] * 0.98\n"
            "service = KSPRService(engine, ServeConfig(worker_threads=1,\n"
            "    approx=ApproxSpec(epsilon=0.1, delta=0.1, seed=1)))\n"
            "async def go():\n"
            "    answer = await service.answer(ServeRequest(focal=focal, k=2))\n"
            "    assert await answer.refined() is not None\n"
            "    approx_payload(answer.approx)\n"
            "    answer.close()\n"
            "    await service.close()\n"
            "asyncio.run(go())\n"
            "assert service.registry.counter('serve.honesty.checked.total').value == 1\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_interval_method_dispatch(self):
        data = independent_dataset(50, 3, seed=7)
        result = sample_kspr(data, _competitive_focal(data), 3, samples=500, seed=1)
        assert result.confidence_interval("cp") == result.clopper_pearson_interval()
        assert result.confidence_interval("hoeffding") == result.hoeffding_interval()
        with pytest.raises(InvalidQueryError):
            result.confidence_interval("wald")


# --------------------------------------------------------------------------- #
# calibration: the CI must cover the exact impact at the nominal rate
# --------------------------------------------------------------------------- #
class TestCalibration:
    DELTA = 0.1

    def _coverage(self, dataset, focal, k, mode, trials, offset):
        exact = kspr(dataset, focal, k).impact_probability()
        samples = 400
        cp_hits = hoeffding_hits = 0
        for trial in range(trials):
            result = sample_kspr(
                dataset, focal, k,
                samples=samples, delta=self.DELTA, seed=offset + trial, mode=mode,
            )
            lower, upper = result.clopper_pearson_interval()
            cp_hits += lower <= exact <= upper
            lower, upper = result.hoeffding_interval()
            hoeffding_hits += lower <= exact <= upper
        return cp_hits / trials, hoeffding_hits / trials

    @pytest.mark.parametrize(
        "make_dataset, k, mode, offset",
        [
            (lambda: independent_dataset(80, 3, seed=31), 3, "uniform", 1000),
            (lambda: anticorrelated_dataset(60, 3, seed=32), 4, "uniform", 2000),
            (lambda: independent_dataset(80, 3, seed=31), 3, "stratified", 3000),
        ],
    )
    def test_interval_coverage_across_seeded_trials(self, make_dataset, k, mode, offset):
        # 3 x 60 = 180 seeded trials overall; per-case coverage of a
        # >= 1 - delta = 0.9 interval over 60 trials dips below 0.8 with
        # probability < 2e-2 even at the nominal boundary, and Clopper-
        # Pearson is conservative in practice.
        dataset = make_dataset()
        trials = 60
        cp_rate, hoeffding_rate = self._coverage(
            dataset, _competitive_focal(dataset), k, mode, trials, offset
        )
        assert cp_rate >= 0.8, f"Clopper–Pearson coverage {cp_rate} below nominal"
        assert hoeffding_rate >= cp_rate, (
            "Hoeffding is strictly wider than Clopper–Pearson at equal delta"
        )
        assert hoeffding_rate >= 0.9

    def test_default_plan_meets_epsilon_contract(self):
        dataset = independent_dataset(60, 3, seed=41)
        result = sample_kspr(dataset, _competitive_focal(dataset), 3,
                             epsilon=0.05, delta=0.1, seed=5)
        assert result.samples == required_samples(0.05, 0.1)
        lower, upper = result.hoeffding_interval()
        assert (upper - lower) / 2.0 <= 0.05 + 1e-12
        assert result.meets()

    def test_never_topk_focal_estimates_zero(self):
        dataset = independent_dataset(50, 3, seed=51)
        buried = dataset.values.min(axis=0) * 0.5  # dominated by everything
        exact = kspr(dataset, buried, 2)
        assert exact.is_empty
        result = sample_kspr(dataset, buried, 2, samples=300, seed=1)
        assert result.hits == 0 and result.is_empty
        assert result.clopper_pearson_interval()[0] == 0.0

    def test_always_topk_focal_estimates_one(self):
        dataset = independent_dataset(50, 3, seed=52)
        crown = dataset.values.max(axis=0) * 2.0  # dominates everything
        result = sample_kspr(dataset, crown, 1, samples=300, seed=1)
        assert result.estimate == 1.0
        assert result.clopper_pearson_interval()[1] == 1.0

    def test_constant_indicator_queries_skip_the_draw(self, monkeypatch):
        # With >= k dominators (or an empty competitor set) every sample
        # classifies identically — no weight vector may be materialized.
        import repro.approx.estimator as estimator_module

        def boom(*args, **kwargs):
            raise AssertionError("sample_chunk must not be called")

        monkeypatch.setattr(estimator_module, "sample_chunk", boom)
        dataset = independent_dataset(50, 3, seed=53)
        buried = dataset.values.min(axis=0) * 0.5
        zero = sample_kspr(dataset, buried, 2, samples=400, seed=1)
        assert (zero.hits, zero.samples, zero.estimate) == (0, 400, 0.0)
        crown = dataset.values.max(axis=0) * 2.0
        one = sample_kspr(dataset, crown, 1, samples=400, seed=1)
        assert (one.hits, one.samples, one.estimate) == (400, 400, 1.0)

    def test_constant_indicator_adaptive_metadata_matches_a_real_run(self):
        # The short-circuit must report the sample count / looks / delta
        # spending an actual adaptive run over the constant indicator would
        # produce — not fixed-plan metadata with adaptive=True stamped on.
        dataset = independent_dataset(50, 3, seed=54)
        buried = dataset.values.min(axis=0) * 0.5
        result = sample_kspr(dataset, buried, 2, epsilon=0.02, delta=0.05,
                             adaptive=True, seed=1)
        assert result.adaptive
        assert result.ci_delta == pytest.approx(0.05 / (2.0 ** result.looks))
        assert result.samples < required_samples(0.02, 0.05)
        assert result.half_width("clopper-pearson") <= 0.02


# --------------------------------------------------------------------------- #
# adaptive mode
# --------------------------------------------------------------------------- #
class TestAdaptive:
    def test_adaptive_stops_once_width_meets_epsilon(self):
        dataset = anticorrelated_dataset(80, 3, seed=61)
        focal = _competitive_focal(dataset)
        result = sample_kspr(dataset, focal, 3, epsilon=0.03, delta=0.05,
                             adaptive=True, seed=7)
        assert result.adaptive and result.looks >= 1
        assert result.half_width("clopper-pearson") <= 0.03
        # Skewed impact needs far fewer samples than the Hoeffding plan.
        assert result.samples < required_samples(0.03, 0.05)

    def test_adaptive_spends_delta_with_a_union_bound(self):
        dataset = independent_dataset(60, 3, seed=62)
        result = sample_kspr(dataset, _competitive_focal(dataset), 3,
                             epsilon=0.05, delta=0.1, adaptive=True, seed=3)
        assert result.ci_delta == pytest.approx(0.1 / (2.0 ** result.looks))
        spent = sum(0.1 / (2.0 ** j) for j in range(1, result.looks + 1))
        assert spent <= 0.1

    def test_adaptive_respects_the_sample_cap(self):
        dataset = independent_dataset(60, 3, seed=63)
        result = sample_kspr(dataset, _competitive_focal(dataset), 3,
                             epsilon=0.001, delta=0.05, adaptive=True,
                             max_samples=2000, seed=3)
        assert result.samples == 2000
        assert not result.meets()  # honest: the cap beat the contract

    def test_adaptive_is_deterministic(self):
        dataset = independent_dataset(60, 3, seed=64)
        focal = _competitive_focal(dataset)
        a = sample_kspr(dataset, focal, 3, epsilon=0.04, adaptive=True, seed=9)
        b = sample_kspr(dataset, focal, 3, epsilon=0.04, adaptive=True, seed=9)
        assert (a.hits, a.samples, a.looks) == (b.hits, b.samples, b.looks)


# --------------------------------------------------------------------------- #
# determinism across surfaces and worker counts
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_repeated_calls_reproduce_bit_identically(self):
        dataset = independent_dataset(100, 4, seed=71)
        focal = _competitive_focal(dataset)
        a = sample_kspr(dataset, focal, 5, samples=3000, seed=13)
        b = sample_kspr(dataset, focal, 5, samples=3000, seed=13)
        assert a.hits == b.hits and a.estimate == b.estimate

    def test_worker_count_does_not_change_the_estimate(self):
        dataset = independent_dataset(100, 4, seed=72)
        focal = _competitive_focal(dataset)
        serial = sample_kspr(dataset, focal, 5, samples=2048, seed=13)
        sharded = sample_kspr(dataset, focal, 5, samples=2048, seed=13, workers=2)
        assert serial.hits == sharded.hits

    def test_pruned_prepared_state_preserves_the_estimate(self):
        # Engine-prepared (k-skyband pruned) classification must agree with
        # the unpruned direct call: Lemma 6 for the top-k indicator.
        dataset = independent_dataset(150, 3, seed=73)
        focal = _competitive_focal(dataset)
        direct = sample_kspr(dataset, focal, 3, samples=2000, seed=5)
        engine = Engine(dataset)
        served = engine.query(focal, 3, method="sample", samples=2000, seed=5)
        assert direct.hits == served.hits

    def test_mixed_exact_and_sample_batch_shares_the_partition(self):
        # One focal, both methods in one shard: the exact answer and the
        # sampled estimate must both be correct (the worker shares one
        # pruned partition between the tree-less and tree-ful entries).
        dataset = independent_dataset(100, 3, seed=75)
        focal = _competitive_focal(dataset)
        specs = [
            QuerySpec(focal=focal, k=3),
            QuerySpec(focal=focal, k=3, method="sample",
                      options=(("samples", 2000), ("seed", 3))),
        ]
        report = ShardedExecutor(dataset, workers=1).run(specs)
        exact_result, sampled = report.outcomes[0].result, report.outcomes[1].result
        assert not isinstance(exact_result, ApproxKSPRResult)
        assert isinstance(sampled, ApproxKSPRResult)
        lower, upper = sampled.hoeffding_interval(0.02)
        assert lower <= exact_result.impact_probability() <= upper

    def test_engine_kspr_and_executor_agree(self):
        dataset = independent_dataset(80, 3, seed=74)
        focal = _competitive_focal(dataset)
        options = dict(samples=1500, seed=17, epsilon=0.05)
        via_kspr = kspr(dataset, focal, 4, method="sample", **options)
        via_engine = Engine(dataset).query(focal, 4, method="sample", **options)
        spec = QuerySpec(focal=focal, k=4, method="sample",
                         options=tuple(options.items()))
        via_executor = ShardedExecutor(dataset, workers=2).run([spec, spec])
        estimates = {via_kspr.estimate, via_engine.estimate}
        estimates.update(o.result.estimate for o in via_executor.outcomes)
        assert len(estimates) == 1


# --------------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------------- #
class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, "wide", True])
    def test_bad_epsilon_rejected(self, bad):
        with pytest.raises(InvalidQueryError):
            validate_approx_params(epsilon=bad, delta=0.05)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0, "x"])
    def test_bad_delta_rejected(self, bad):
        with pytest.raises(InvalidQueryError):
            validate_approx_params(epsilon=0.05, delta=bad)

    @pytest.mark.parametrize("bad", [0, -5, 2.5, True])
    def test_bad_samples_rejected(self, bad):
        with pytest.raises(InvalidQueryError):
            validate_approx_params(epsilon=0.05, delta=0.05, samples=bad)

    def test_bad_mode_and_chunk_rejected(self):
        with pytest.raises(InvalidQueryError):
            validate_approx_params(epsilon=0.05, delta=0.05, mode="halton")
        with pytest.raises(InvalidQueryError):
            validate_approx_params(epsilon=0.05, delta=0.05, chunk=0)

    def test_bad_seed_and_adaptive_rejected_at_admission(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError, match="seed"):
            validate_approx_params(epsilon=0.05, delta=0.05, seed="x")
        with pytest.raises(InvalidQueryError, match="adaptive"):
            validate_approx_params(epsilon=0.05, delta=0.05, adaptive="yes")
        with pytest.raises(InvalidQueryError, match="seed"):
            sample_kspr(dataset, kyma, 3, seed="x")
        with pytest.raises(InvalidQueryError, match="seed"):
            Engine(dataset).query(kyma, 3, approx={"seed": "x"})
        with pytest.raises(InvalidQueryError, match="adaptive"):
            Engine(dataset).query(kyma, 3, approx={"adaptive": "yes"})

    def test_bad_max_samples_rejected_at_admission(self, restaurants):
        dataset, kyma = restaurants
        for bad in (True, 0, -5, "many"):
            with pytest.raises(InvalidQueryError, match="max_samples"):
                sample_kspr(dataset, kyma, 3, adaptive=True, max_samples=bad)
        # And it is a first-class spec field, accepted by both spellings.
        spec = ApproxSpec(epsilon=0.05, adaptive=True, max_samples=2000, seed=1)
        engine = Engine(dataset)
        via_approx = engine.query(kyma, 3, approx=spec)
        via_method = engine.query(kyma, 3, method="sample", epsilon=0.05,
                                  adaptive=True, max_samples=2000, seed=1)
        assert via_method is via_approx
        assert via_approx.samples <= 2000

    def test_high_dimension_warns_exactly_once_per_query(self):
        import warnings

        from repro.robust import DegenerateInputWarning

        dataset = independent_dataset(40, 7, seed=88)
        focal = dataset.values[0] * 0.97
        for call in (
            lambda: kspr(dataset, focal, 2, method="sample", samples=100, seed=1),
            lambda: Engine(dataset).query(focal, 2, approx=ApproxSpec(samples=100, seed=1)),
            lambda: sample_kspr(dataset, focal, 2, samples=100, seed=1),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            degenerate = [
                w for w in caught if issubclass(w.category, DegenerateInputWarning)
            ]
            assert len(degenerate) == 1

    def test_entry_points_raise_at_admission(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError):
            kspr(dataset, kyma, 3, method="sample", epsilon=2.0)
        with pytest.raises(InvalidQueryError):
            sample_kspr(dataset, kyma, 3, delta=0.0)
        engine = Engine(dataset)
        with pytest.raises(InvalidQueryError):
            engine.query(kyma, 3, approx=ApproxSpec(epsilon=-1.0))
        with pytest.raises(InvalidQueryError):
            engine.query(kyma, 3, approx="very")
        with pytest.raises(InvalidQueryError):
            engine.query(kyma, 3, method="cta", approx=True)
        with pytest.raises(InvalidQueryError, match="epsilonn"):
            engine.query(kyma, 3, approx={"epsilonn": 0.02})  # typo'd field
        with pytest.raises(InvalidQueryError):
            sample_kspr(dataset, kyma, 99)  # k > n: shared query validation

    def test_none_epsilon_or_delta_rejected(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError, match="None"):
            sample_kspr(dataset, kyma, 3, epsilon=None)
        with pytest.raises(InvalidQueryError, match="None"):
            Engine(dataset).query(kyma, 3, approx={"delta": None})

    def test_approx_spec_conflicting_kwarg_rejected(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError, match="epsilon"):
            Engine(dataset).query(kyma, 3, approx={"epsilon": 0.2}, epsilon=0.5)

    def test_space_option_rejected_with_invalid_query_error(self, restaurants):
        dataset, kyma = restaurants
        for call in (
            lambda: sample_kspr(dataset, kyma, 3, samples=100, space="transformed"),
            lambda: kspr(dataset, kyma, 3, method="sample", samples=100, space="original"),
            lambda: Engine(dataset).query(kyma, 3, method="sample", samples=100, space="transformed"),
        ):
            with pytest.raises(InvalidQueryError, match="space"):
                call()

    def test_adaptive_with_explicit_samples_rejected(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError, match="adaptive"):
            sample_kspr(dataset, kyma, 3, adaptive=True, samples=500)
        with pytest.raises(InvalidQueryError, match="adaptive"):
            Engine(dataset).query(kyma, 3, approx={"adaptive": True, "samples": 500})

    def test_query_stream_rejects_the_sampling_method(self, restaurants):
        dataset, kyma = restaurants
        with pytest.raises(InvalidQueryError, match="streaming"):
            Engine(dataset).query_stream(kyma, 3, method="sample")


# --------------------------------------------------------------------------- #
# dispatch and serving integration
# --------------------------------------------------------------------------- #
class TestIntegration:
    def test_sample_is_a_first_class_method(self, restaurants):
        dataset, kyma = restaurants
        assert "sample" in available_methods()
        result = kspr(dataset, kyma, 3, method="sample", samples=1000, seed=2)
        assert isinstance(result, ApproxKSPRResult)
        assert result.stats.algorithm == "SAMPLE[uniform]"
        assert len(result) == 0 and list(result) == []

    def test_engine_caches_approx_results_per_contract(self):
        dataset = independent_dataset(80, 3, seed=81)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        spec = ApproxSpec(epsilon=0.05, seed=1, samples=500)
        first = engine.query(focal, 3, approx=spec)
        assert engine.query(focal, 3, approx=spec) is first
        # A different contract (epsilon / seed / mode) never aliases.
        assert engine.query(focal, 3, approx=ApproxSpec(epsilon=0.1, seed=1, samples=500)) is not first
        assert engine.query(focal, 3, approx=ApproxSpec(epsilon=0.05, seed=2, samples=500)) is not first
        assert (
            engine.query(focal, 3, approx=ApproxSpec(epsilon=0.05, seed=1, samples=500, mode="stratified"))
            is not first
        )

    def test_approx_and_method_sample_spellings_share_one_cache_entry(self):
        # The two documented spellings of one query must key identically:
        # spec fields are expanded to the full ApproxSpec (defaults
        # included) before the cache key is computed.
        dataset = independent_dataset(60, 3, seed=86)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        via_approx = engine.query(focal, 3, approx={"epsilon": 0.05, "seed": 7, "samples": 500})
        via_method = engine.query(focal, 3, method="sample", epsilon=0.05, seed=7, samples=500)
        assert via_method is via_approx
        metrics = engine.metrics()
        assert metrics["engine.queries.cold"] == 1 and metrics["engine.result_cache.hits"] == 1
        # Answer-neutral options never split the key either.
        assert engine.query(focal, 3, method="sample", epsilon=0.05, seed=7,
                            samples=500, warn=False) is via_approx
        assert engine.query(focal, 3, method="sample", epsilon=0.05, seed=7,
                            samples=500, max_samples=None) is via_approx
        assert engine.metrics()["engine.queries.cold"] == 1

    def test_sampling_prepared_state_skips_the_rtree_build(self):
        # The sampler never reads the competitor R-tree; the engine must not
        # pay the STR bulk load for it — and an exact query on the same
        # (focal, k) must still get (and build) a real tree of its own.
        dataset = independent_dataset(120, 3, seed=87)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        engine.query(focal, 3, approx=ApproxSpec(samples=300, seed=1))
        trees = [entry.prepared.tree for entry in engine._prepared.values()]
        assert trees == [None]
        exact = engine.query(focal, 3)
        assert not isinstance(exact, ApproxKSPRResult)
        trees = {entry.prepared.tree is None for entry in engine._prepared.values()}
        assert trees == {True, False}
        # And the exact entry reused the sampling entry's pruned partition
        # (one O(n d) partition pass per focal, not one per mode).
        partitions = {
            id(entry.prepared.partition) for entry in engine._prepared.values()
        }
        assert len(partitions) == 1

    def test_sampling_entries_do_not_pin_hyperplane_caches(self):
        # A tree-less sampling entry never references a focal's hyperplane
        # cache, so evicting the last *exact* entry for that focal must
        # release the cache even while the sampling entry stays resident.
        dataset = independent_dataset(80, 3, seed=89)
        focal_a = _competitive_focal(dataset)
        focal_b = dataset.values[0] * 0.9
        engine = Engine(dataset, prepared_cache_size=2)
        engine.query(focal_a, 3)                                   # exact A
        hkey = (focal_a.tobytes(), "transformed")
        assert hkey in engine._hyperplanes
        engine.query(focal_a, 3, approx=ApproxSpec(samples=200, seed=1))  # sample A
        engine.query(focal_b, 3)                                   # evicts exact A
        assert any(
            entry.prepared.tree is None for entry in engine._prepared.values()
        ), "the sampling entry must have survived the eviction"
        assert hkey not in engine._hyperplanes

    def test_tolerance_participates_in_the_approx_cache_key(self):
        from repro import Tolerance

        dataset = independent_dataset(60, 3, seed=82)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        spec = ApproxSpec(samples=400, seed=1)
        default_policy = engine.query(focal, 3, approx=spec)
        tightened = engine.query(focal, 3, approx=spec, tolerance=Tolerance().tightened(10))
        assert tightened is not default_policy

    def test_update_invalidation_follows_rules_1_to_4(self):
        dataset = independent_dataset(100, 3, seed=83)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        spec = ApproxSpec(samples=600, seed=4)
        entry = engine.query(focal, 3, approx=spec)
        # Rule 1: a record dominated by the focal cannot change the estimate.
        engine.insert(focal * 0.5)
        assert engine.query(focal, 3, approx=spec) is entry
        # Rule 2: a dominator shifts every rank — the entry must drop.
        engine.insert(focal * 1.5)
        assert engine.query(focal, 3, approx=spec) is not entry

    def test_query_batch_serves_sample_specs(self):
        dataset = independent_dataset(80, 3, seed=84)
        focal = _competitive_focal(dataset)
        engine = Engine(dataset)
        specs = [
            QuerySpec(focal=focal, k=3, method="sample",
                      options=(("samples", 800), ("seed", 6))),
            QuerySpec(focal=focal, k=2, method="sample",
                      options=(("samples", 800), ("seed", 6))),
        ]
        report = QueryBatch(engine, max_workers=2).run(specs)
        assert all(outcome.ok for outcome in report.outcomes)
        assert all(isinstance(outcome.result, ApproxKSPRResult) for outcome in report.outcomes)
        # Re-running the batch is served entirely from the result cache.
        rerun = QueryBatch(engine, max_workers=2).run(specs)
        assert rerun.cache_hits == len(specs)
        assert report.summary()["queries"] == 2.0


# --------------------------------------------------------------------------- #
# differential: sampled intervals vs exact anytime brackets
# --------------------------------------------------------------------------- #
class TestStreamCrossValidation:
    def test_cross_check_agrees_at_the_nominal_rate(self):
        dataset = anticorrelated_dataset(120, 3, seed=91)
        focal = _competitive_focal(dataset)
        delta = 0.1
        disagreements = 0
        trials = 25
        for seed in range(trials):
            report = cross_check_stream(
                dataset, focal, 3, epsilon=0.05, delta=delta, seed=seed
            )
            assert report.exact is not None
            disagreements += not report.agrees
        # E[disagreements] <= trials * delta = 2.5; eight is a > 3-sigma tail.
        assert disagreements <= 8

    def test_cross_check_handles_truncated_streams(self):
        dataset = anticorrelated_dataset(150, 3, seed=92)
        focal = _competitive_focal(dataset)
        report = cross_check_stream(
            dataset, focal, 4, epsilon=0.05, seed=3, max_batches=1
        )
        assert report.exact is None
        assert report.brackets, "a truncated stream still yields brackets"
        summary = report.summary()
        assert summary["snapshots"] == float(len(report.brackets))

    def test_cross_check_warns_once_for_one_logical_query(self):
        import warnings

        from repro.robust import DegenerateInputWarning

        dataset = independent_dataset(30, 7, seed=94)
        focal = dataset.values[0] * 0.97
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cross_check_stream(dataset, focal, 2, samples=100, seed=1)
        degenerate = [
            w for w in caught if issubclass(w.category, DegenerateInputWarning)
        ]
        assert len(degenerate) == 1

    def test_cross_check_against_every_exact_method(self):
        dataset = independent_dataset(60, 3, seed=93)
        focal = _competitive_focal(dataset)
        for method in ("cta", "pcta", "lpcta"):
            report = cross_check_stream(
                dataset, focal, 3, method=method, epsilon=0.06, seed=11
            )
            assert report.agrees, f"{method} bracket disagrees with sampling"
