"""Property-based suite (hypothesis) for the anytime streaming contract.

The contract every streaming execution must honour, checked here over a
randomised ``(n, d, k, seed, distribution)`` grid for all progressive methods
(transformed- and original-space) plus the sharded parallel path:

* **prefix stability** — the region tuple of every snapshot is a literal
  prefix of every later snapshot's (and of the final result's region list):
  once a region is emitted it never disappears, moves, or changes rank;
* **monotone non-crossing brackets** — ``impact_lower`` never decreases,
  ``impact_upper`` never increases, ``lower <= upper`` throughout, the final
  bracket collapses onto the exact impact probability, and every
  intermediate bracket contains it (transformed-space methods);
* **drain identity** — draining the stream produces a result structurally
  identical to the all-at-once method call;
* **entry-point identity** — ``kspr()``, ``Engine.query``, a drained
  ``Engine.query_stream`` and ``ShardedExecutor`` at one and two workers
  give that same answer, algorithm label and LP counts (each runs the
  method's one opener);
* **pause/resume identity** — truncating the stream after a random number of
  work units and resuming later yields the same final result byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, cta, kspr, lpcta, pcta, stream_kspr
from repro.core.original_space import olp_cta, op_cta
from repro.data import anticorrelated_dataset, correlated_dataset, independent_dataset
from repro.parallel import ShardedExecutor
from repro.parallel.compare import assert_results_identical

GENERATORS = {
    "independent": independent_dataset,
    "correlated": correlated_dataset,
    "anticorrelated": anticorrelated_dataset,
}

METHODS = {
    "cta": cta,
    "pcta": pcta,
    "lpcta": lpcta,
    "op-cta": op_cta,
    "olp-cta": olp_cta,
}

#: Methods whose snapshots carry exact volume brackets.
TRANSFORMED = {"cta", "pcta", "lpcta"}

BRACKET_TOLERANCE = 1e-6

case_strategy = st.tuples(
    st.integers(min_value=8, max_value=16),       # n
    st.integers(min_value=2, max_value=3),        # d
    st.integers(min_value=1, max_value=3),        # k
    st.integers(min_value=0, max_value=9_999),    # seed
    st.sampled_from(sorted(GENERATORS)),          # distribution
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_case(n: int, d: int, k: int, seed: int, distribution: str):
    dataset = GENERATORS[distribution](n, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    focal_row = int(rng.integers(dataset.cardinality))
    focal = dataset.values[focal_row] * (1.0 + 0.1 * (rng.random(d) - 0.5))
    return dataset, focal


def _region_key(region) -> tuple:
    return (
        tuple((half.record_id, half.sign) for half in region.halfspaces),
        region.rank,
    )


def _assert_prefix_stable(snapshots, final_result) -> None:
    """Every snapshot's regions are a literal prefix of the next's and the final's."""
    final_keys = [_region_key(region) for region in final_result.regions]
    previous: tuple = ()
    for snapshot in snapshots:
        assert snapshot.regions[: len(previous)] == previous, (
            "an emitted region disappeared or moved between snapshots"
        )
        previous = snapshot.regions
        keys = [_region_key(region) for region in snapshot.regions]
        assert keys == final_keys[: len(keys)], (
            "a streamed prefix is not a prefix of the final result "
            "(region identity or rank changed after emission)"
        )
    assert snapshots[-1].done
    assert len(snapshots[-1].regions) == len(final_result.regions)


def _assert_brackets_monotone(snapshots, exact_impact: float) -> None:
    lowers = [snapshot.impact_lower() for snapshot in snapshots]
    uppers = [snapshot.impact_upper() for snapshot in snapshots]
    for lower, upper in zip(lowers, uppers):
        assert lower <= upper + BRACKET_TOLERANCE, "bracket crossed"
        assert lower <= exact_impact + BRACKET_TOLERANCE, "lower bound unsound"
        assert exact_impact <= upper + BRACKET_TOLERANCE, "upper bound unsound"
    for earlier, later in zip(lowers, lowers[1:]):
        assert earlier <= later + BRACKET_TOLERANCE, "lower bound regressed"
    for earlier, later in zip(uppers, uppers[1:]):
        assert later <= earlier + BRACKET_TOLERANCE, "upper bound widened"
    assert abs(lowers[-1] - exact_impact) <= BRACKET_TOLERANCE
    assert abs(uppers[-1] - exact_impact) <= BRACKET_TOLERANCE


@pytest.mark.parametrize("method", sorted(METHODS))
@SETTINGS
@given(case=case_strategy)
def test_anytime_contract_per_method(method: str, case):
    n, d, k, seed, distribution = case
    dataset, focal = _build_case(n, d, k, seed, distribution)
    direct = METHODS[method](dataset, focal, k)

    query = stream_kspr(dataset, focal, k, method=method)
    snapshots = list(query.advance())
    assert snapshots, "a stream always yields at least its terminal snapshot"
    assert_results_identical(query.result(), direct)
    _assert_prefix_stable(snapshots, direct)

    if method in TRANSFORMED:
        _assert_brackets_monotone(snapshots, direct.impact_probability())
    else:
        # Original-space snapshots carry the trivial (but still sound) bracket.
        assert snapshots[-1].impact_bracket() == (0.0, 1.0)

    # Every entry point opens the method the same way: same answer, label and LPs.
    for result in (query.result(), *_through_every_entry_point(dataset, focal, k, method)):
        _assert_same_run(result, direct)


def _through_every_entry_point(dataset, focal, k: int, method: str) -> list:
    """``method``'s answer from kspr(), the engine, its stream and the executor."""
    streamed = list(Engine(dataset, prune_skyband=False).query_stream(focal, k, method=method))
    results = [
        kspr(dataset, focal, k, method=method),
        Engine(dataset, prune_skyband=False).query(focal, k, method=method),
        streamed[-1].to_result(),
    ]
    for workers in (1, 2):
        # Two specs, so workers=2 runs a worker process (the repeat is a cache hit).
        report = ShardedExecutor(dataset, workers=workers, prune_skyband=False).run(
            [(focal, k, method)] * 2
        )
        assert not report.errors
        results.append(report.results[0])
    return results


def _assert_same_run(result, expected) -> None:
    assert_results_identical(result, expected)
    assert result.stats.algorithm == expected.stats.algorithm
    assert result.stats.lp.feasibility_calls == expected.stats.lp.feasibility_calls
    assert result.stats.lp.optimize_calls == expected.stats.lp.optimize_calls


@SETTINGS
@given(case=case_strategy, split=st.integers(min_value=1, max_value=4))
def test_pause_resume_identity(case, split: int):
    n, d, k, seed, distribution = case
    dataset, focal = _build_case(n, d, k, seed, distribution)
    direct = lpcta(dataset, focal, k)

    query = stream_kspr(dataset, focal, k, method="lpcta")
    first = list(query.advance(max_batches=split))
    assert len(first) <= split
    resumed = list(query.advance())
    assert query.done
    assert_results_identical(query.result(), direct)
    _assert_prefix_stable(first + resumed, direct)


@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=case_strategy)
def test_sharded_stream_matches_serial(case):
    n, d, k, seed, distribution = case
    dataset, focal = _build_case(n, d, k, seed, distribution)
    serial = cta(dataset, focal, k)

    query = stream_kspr(dataset, focal, k, method="cta", workers=2, shard_factor=2)
    snapshots = list(query.advance())
    assert_results_identical(query.result(), serial)
    _assert_prefix_stable(snapshots, serial)
    _assert_brackets_monotone(snapshots, serial.impact_probability())


@SETTINGS
@given(case=case_strategy)
def test_stream_default_method_matches_kspr(case):
    """The default-method stream agrees with the default ``kspr()`` call."""
    n, d, k, seed, distribution = case
    dataset, focal = _build_case(n, d, k, seed, distribution)
    query = stream_kspr(dataset, focal, k)
    query.run()
    assert_results_identical(query.result(), kspr(dataset, focal, k))
