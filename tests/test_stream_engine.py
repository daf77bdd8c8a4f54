"""Serving-layer tests for anytime streaming: ``Engine.query_stream``,
partial-result checkpointing/resume, update-aware invalidation of paused
streams, ``QueryBatch.run_anytime`` edge cases and the deadline-aware
``ShardedExecutor``."""

from __future__ import annotations

import threading
from concurrent.futures import ALL_COMPLETED

import numpy as np
import pytest

import repro.parallel.subtree as subtree
from repro import Engine, QueryBatch
from repro.data import independent_dataset
from repro.engine import QuerySpec
from repro.exceptions import InvalidQueryError
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.parallel import ShardedExecutor
from repro.parallel.compare import assert_results_identical

N, D, K = 160, 3, 3


@pytest.fixture(scope="module")
def case():
    dataset = independent_dataset(N, D, seed=11)
    sky = skyline(AggregateRTree(dataset))
    row = int(np.where(dataset.ids == sky[0])[0][0])
    focal = dataset.values[row] * 0.98
    return dataset, focal


def fresh_engine(dataset, **kwargs) -> Engine:
    kwargs.setdefault("k_max", 8)
    return Engine(dataset, **kwargs)


# --------------------------------------------------------------------- #
# Engine.query_stream
# --------------------------------------------------------------------- #
def test_stream_first_region_arrives_before_completion(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    snapshots = list(engine.query_stream(focal, K))
    assert snapshots[-1].done
    first_with_regions = next(
        index for index, snapshot in enumerate(snapshots) if snapshot.regions
    )
    assert first_with_regions < len(snapshots) - 1, (
        "progressive streaming must certify regions strictly before completion"
    )
    # Brackets tighten monotonically and collapse at the end.
    lowers = [snapshot.impact_lower() for snapshot in snapshots]
    uppers = [snapshot.impact_upper() for snapshot in snapshots]
    assert all(a <= b + 1e-9 for a, b in zip(lowers, lowers[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] == pytest.approx(lowers[-1], abs=1e-9)
    # Progress is frozen per snapshot (the live stats keep mutating): the
    # per-snapshot counters form a non-trivial increasing curve, not a flat
    # line at the final value.
    progress = [snapshot.processed_records for snapshot in snapshots]
    assert progress == sorted(progress)
    assert progress[0] < progress[-1]
    assert [snapshot.summary()["processed_records"] for snapshot in snapshots] == [
        float(value) for value in progress
    ]


def test_completed_stream_installs_result_cache_entry(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    snapshots = list(engine.query_stream(focal, K))
    final = snapshots[-1].to_result()
    assert engine.query(focal, K) is final, (
        "a completed stream must serve subsequent query() calls as a cache hit"
    )
    assert engine.metrics()["engine.result_cache.hits"] == 1
    assert engine.metrics()["engine.stream.queries"] == 1


def test_cached_result_streams_as_single_terminal_snapshot(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    result = engine.query(focal, K)
    snapshots = list(engine.query_stream(focal, K))
    assert len(snapshots) == 1 and snapshots[0].done
    assert snapshots[0].to_result() is result


def test_truncated_stream_checkpoints_and_resumes_identically(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    first = list(engine.query_stream(focal, K, max_batches=1))
    assert len(first) == 1 and not first[0].done
    assert engine.metrics()["engine.partial_store.entries"] == 1

    resumed = list(engine.query_stream(focal, K))
    assert resumed[-1].done
    assert engine.metrics()["engine.stream.resumes"] == 1
    assert engine.metrics()["engine.partial_store.entries"] == 0

    cold = fresh_engine(dataset).query(focal, K)
    assert_results_identical(resumed[-1].to_result(), cold)
    # Prefix stability across the pause: the truncated snapshot's regions
    # are a structural prefix of the final region list (the terminal snapshot
    # wraps the canonically rebuilt result, so object identity is not
    # preserved — the contract is on halfspaces and ranks).
    def keys(regions):
        return [
            (tuple((h.record_id, h.sign) for h in region.halfspaces), region.rank)
            for region in regions
        ]

    prefix = keys(first[0].regions)
    assert keys(resumed[-1].regions)[: len(prefix)] == prefix


def test_abandoning_the_iterator_checkpoints_too(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    iterator = engine.query_stream(focal, K)
    next(iterator)
    iterator.close()
    assert engine.metrics()["engine.partial_store.entries"] == 1
    final = list(engine.query_stream(focal, K))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(final.to_result(), fresh_engine(dataset).query(focal, K))


def test_cancellation_mid_stream_is_resumable(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    cancel = threading.Event()
    cancel.set()
    assert list(engine.query_stream(focal, K, cancel=cancel)) == []
    assert engine.metrics()["engine.partial_store.entries"] == 1
    cancel.clear()
    final = list(engine.query_stream(focal, K, cancel=cancel))[-1]
    assert final.done
    assert_results_identical(final.to_result(), fresh_engine(dataset).query(focal, K))


def test_sharded_query_stream_resumes_identically(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    first = list(engine.query_stream(focal, K, method="cta", workers=2, max_batches=1))
    assert first and not first[-1].done
    final = list(engine.query_stream(focal, K, method="cta", workers=2))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(
        final.to_result(), fresh_engine(dataset).query(focal, K, method="cta")
    )


def test_sharded_stream_ticks_once_per_group_even_when_groups_finish_together(case, monkeypatch):
    """Shard groups that finish inside one wait() still commit in separate ticks,
    so where ``max_batches`` pauses does not depend on worker timing."""
    real_wait = subtree.wait
    monkeypatch.setattr(
        subtree, "wait", lambda futures, return_when: real_wait(futures, return_when=ALL_COMPLETED)
    )
    dataset, focal = case
    engine = fresh_engine(dataset)
    first = list(engine.query_stream(focal, K, method="cta", workers=2, max_batches=1))
    assert first and not first[-1].done
    final = list(engine.query_stream(focal, K, method="cta", workers=2))[-1]
    assert final.done
    assert_results_identical(
        final.to_result(), fresh_engine(dataset).query(focal, K, method="cta")
    )


def test_deadline_zero_yields_nothing_but_checkpoints(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    assert list(engine.query_stream(focal, K, deadline=0.0)) == []
    assert engine.metrics()["engine.partial_store.entries"] == 1


def test_query_stream_validates_eagerly(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    with pytest.raises(InvalidQueryError):
        engine.query_stream(focal, dataset.cardinality + 1)
    # Budget arguments raise at call time too — a call that never starts
    # must not save a ghost checkpoint.
    with pytest.raises(InvalidQueryError):
        engine.query_stream(focal, K, max_batches=0)
    with pytest.raises(InvalidQueryError):
        engine.query_stream(focal, K, deadline=-1.0)
    assert engine.metrics()["engine.partial_store.entries"] == 0
    assert engine.metrics()["engine.partial_store.saved"] == 0


def test_capture_false_skips_frontier_but_streams_identically(case):
    """capture=False trades brackets (trivial upper bound) for cheaper ticks."""
    from repro import stream_kspr

    dataset, focal = case
    query = stream_kspr(dataset, focal, K, capture=False)
    snapshots = list(query.advance())
    for snapshot in snapshots[:-1]:
        assert snapshot.frontier == ()
        assert snapshot.impact_upper() == 1.0  # trivial, but still sound
    assert snapshots[-1].done
    lo, hi = snapshots[-1].impact_bracket()
    assert hi == pytest.approx(lo, abs=1e-9)  # collapses on completion
    assert_results_identical(query.result(), fresh_engine(dataset).query(focal, K))


def test_resume_excludes_pause_from_response_time(case):
    """Wall-clock spent suspended must not count as query response time."""
    import time

    from repro import stream_kspr

    dataset, focal = case
    wall_start = time.perf_counter()
    query = stream_kspr(dataset, focal, K)
    list(query.advance(max_batches=1))
    time.sleep(1.0)  # the query sits paused
    query.run()
    wall = time.perf_counter() - wall_start
    response = query.result().stats.response_seconds
    assert response <= wall - 0.9, (
        f"response_seconds ({response:.3f}s) must exclude the 1s pause "
        f"(wall {wall:.3f}s)"
    )

    # Same invariant when the pause happens before ANY tick was consumed
    # (the deadline=0 checkpoint pattern).
    wall_start = time.perf_counter()
    query = stream_kspr(dataset, focal, K)
    assert list(query.advance(deadline=0.0)) == []
    time.sleep(1.0)
    query.run()
    wall = time.perf_counter() - wall_start
    response = query.result().stats.response_seconds
    assert response <= wall - 0.9, (
        f"zero-progress pause leaked into response_seconds ({response:.3f}s, "
        f"wall {wall:.3f}s)"
    )


def test_capture_mismatch_declines_stale_checkpoint(case):
    """A capture=False checkpoint must not serve a capture=True re-issue."""
    dataset, focal = case
    engine = fresh_engine(dataset)
    list(engine.query_stream(focal, K, capture=False, max_batches=1))
    assert engine.metrics()["engine.partial_store.entries"] == 1
    # The bracket-requesting caller recomputes instead of silently getting
    # frontier-less snapshots with the trivial upper bound.
    snapshots = list(engine.query_stream(focal, K))
    assert engine.metrics()["engine.stream.resumes"] == 0
    assert engine.metrics()["engine.partial_store.resumes"] == 0  # the store agrees: nothing resumed
    assert any(snapshot.frontier for snapshot in snapshots[:-1])
    # The cheap direction resumes: a capture=True checkpoint serves anyone.
    engine2 = fresh_engine(dataset)
    list(engine2.query_stream(focal, K, max_batches=1))
    final = list(engine2.query_stream(focal, K, capture=False))[-1]
    assert final.done and engine2.metrics()["engine.stream.resumes"] == 1


def test_zero_progress_bracket_is_trivial_not_collapsed(case):
    """Before any work, the only sound bracket is [0, 1] — never (0, 0)."""
    from repro import stream_kspr

    dataset, focal = case
    query = stream_kspr(dataset, focal, K)
    snapshot = query.partial()
    assert not snapshot.done
    assert snapshot.impact_bracket() == (0.0, 1.0)


def test_failed_stream_never_resumes_as_truncated_result(case):
    """A crashed tick producer re-raises on every advance; result() stays closed."""
    from repro.core.base import StreamTick, prepare_context
    from repro.stream import AnytimeQuery

    dataset, focal = case
    context = prepare_context(dataset, focal, K, algorithm="test")

    def exploding_ticks():
        yield StreamTick(done=False, batches=1)
        raise RuntimeError("injected mid-stream failure")

    query = AnytimeQuery(context, exploding_ticks())
    assert len(list(query.advance(max_batches=1))) == 1
    with pytest.raises(RuntimeError, match="injected"):
        list(query.advance())
    assert query.failed and not query.done
    # Later advances must re-raise instead of treating the dead generator as
    # completed, and the result stays unavailable.
    with pytest.raises(InvalidQueryError, match="previously failed"):
        list(query.advance())
    with pytest.raises(InvalidQueryError):
        query.result()


def test_full_result_discards_shadowed_checkpoint(case):
    """Caching a full result releases the now-unreachable paused checkpoint."""
    dataset, focal = case
    engine = fresh_engine(dataset)
    list(engine.query_stream(focal, K, max_batches=1))
    assert engine.metrics()["engine.partial_store.entries"] == 1
    engine.query(focal, K)  # computes and caches the full answer
    assert engine.metrics()["engine.partial_store.entries"] == 0, (
        "the checkpoint is unreachable once a full result shadows its key"
    )
    # And a cache-hit stream keeps the store clean.
    snapshots = list(engine.query_stream(focal, K))
    assert snapshots[-1].done and engine.metrics()["engine.partial_store.entries"] == 0


# --------------------------------------------------------------------- #
# update-aware invalidation of paused streams
# --------------------------------------------------------------------- #
def test_affected_update_drops_partial_checkpoint(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    list(engine.query_stream(focal, K, max_batches=1))
    assert engine.metrics()["engine.partial_store.entries"] == 1
    engine.insert(dataset.values.max(axis=0) * 1.1)  # dominates the focal
    assert engine.metrics()["engine.partial_store.entries"] == 0
    assert engine.metrics()["engine.partial_store.invalidated"] == 1
    # The re-issued stream recomputes cold against the new state.
    final = list(engine.query_stream(focal, K))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 0
    assert_results_identical(final.to_result(), fresh_engine(engine.dataset).query(focal, K))


def test_unaffected_update_keeps_partial_checkpoint_resumable(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    list(engine.query_stream(focal, K, max_batches=1))
    engine.insert(np.asarray(focal) * 0.5)  # dominated by the focal: rule 1
    assert engine.metrics()["engine.partial_store.entries"] == 1
    final = list(engine.query_stream(focal, K))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(final.to_result(), fresh_engine(engine.dataset).query(focal, K))


def test_partial_store_eviction_closes_checkpoints(case):
    dataset, focal = case
    engine = fresh_engine(dataset, partial_cache_size=1)
    list(engine.query_stream(focal, K, max_batches=1))
    other = np.asarray(focal) * 1.02
    list(engine.query_stream(other, K, max_batches=1))
    metrics = engine.metrics()
    assert metrics["engine.partial_store.entries"] == 1
    assert metrics["engine.partial_store.evictions"] == 1
    # The evicted query recomputes from scratch; the retained one resumes.
    final = list(engine.query_stream(other, K))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1


# --------------------------------------------------------------------- #
# QueryBatch anytime mode
# --------------------------------------------------------------------- #
def test_run_anytime_empty_spec_list(case):
    dataset, _ = case
    report = QueryBatch(fresh_engine(dataset)).run_anytime([])
    assert len(report) == 0
    assert report.results == [] and report.failures == [] and report.partials == []
    summary = report.summary()
    assert summary["queries"] == 0.0
    assert summary["failed"] == 0.0
    assert summary["query_seconds_mean"] == 0.0


def test_run_anytime_captures_failures_mid_batch(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    bad = QuerySpec(focal=np.asarray(focal, dtype=float), k=dataset.cardinality + 1)
    report = QueryBatch(engine).run_anytime(
        [QuerySpec(focal=np.asarray(focal, dtype=float), k=K), bad, (focal, 2)]
    )
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.index == 1
    assert isinstance(failure.error, InvalidQueryError)
    assert failure.result is None and failure.partial is None
    assert report.outcomes[0].completed and report.outcomes[2].completed
    summary = report.summary()
    assert summary["queries"] == 3.0
    assert summary["failed"] == 1.0
    assert summary["partial"] == 0.0
    assert summary["regions_total"] >= 1.0


def test_run_anytime_batch_cancellation_mid_stream(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    cancel = threading.Event()
    cancel.set()
    specs = [(focal, K), (np.asarray(focal) * 1.02, 2)]
    report = QueryBatch(engine).run_anytime(specs, cancel=cancel)
    assert all(not outcome.completed and outcome.ok for outcome in report.outcomes)
    assert len(report.skipped) == len(specs)
    # Clearing the flag and re-running completes both (warm where possible).
    cancel.clear()
    rerun = QueryBatch(engine).run_anytime(specs, cancel=cancel)
    assert all(outcome.completed for outcome in rerun.outcomes)


def test_run_anytime_truncation_then_rerun_resumes(case):
    dataset, focal = case
    engine = fresh_engine(dataset)
    first = QueryBatch(engine).run_anytime([(focal, K)], max_batches=1)
    assert len(first.partials) == 1
    partial = first.partials[0].partial
    assert partial is not None and not partial.done
    rerun = QueryBatch(engine).run_anytime([(focal, K)])
    assert rerun.outcomes[0].completed
    assert engine.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(
        rerun.outcomes[0].result, fresh_engine(dataset).query(focal, K)
    )
    assert rerun.summary()["partial"] == 0.0


# --------------------------------------------------------------------- #
# deadline-aware ShardedExecutor
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_executor_deadline_skips_cleanly(case, workers):
    dataset, focal = case
    specs = [(dataset.values[i] * 0.99, 2) for i in range(4)]
    executor = ShardedExecutor(dataset, workers=workers)
    report = executor.run(specs, deadline=0.0)
    assert all(outcome.skipped for outcome in report.outcomes)
    assert all(outcome.ok for outcome in report.outcomes)
    assert report.summary()["skipped"] == float(len(specs))

    full = executor.run(specs)
    assert all(outcome.completed and not outcome.skipped for outcome in full.outcomes)
    assert full.summary()["skipped"] == 0.0
