"""Engine persistence round trips: ``Engine.commit`` / ``Engine.from_snapshot``.

The restart contract under test: a restored engine serves the persisted
result-cache entries as hits with byte-identical answers, resumes persisted
paused-stream checkpoints from their replay recipes, keeps deleted ids dead
(the watermark survives), and — when restored at an *older* snapshot with
``replay_to=`` — reconciles its caches through the precise rules-1-4
invalidation by replaying the snapshot diff as ordinary updates.  The
restart itself is exercised both in-process (fresh Engine from a fresh
store handle) and across a real ``subprocess`` boundary.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import ApproxSpec, Dataset, Engine, SnapshotStore
from repro.data import independent_dataset
from repro.exceptions import InvalidDatasetError, SnapshotError
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.parallel.compare import assert_results_identical
from repro.serve import KSPRService, ServeConfig

N, D, K = 160, 3, 3
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def case():
    dataset = independent_dataset(N, D, seed=11)
    sky = skyline(AggregateRTree(dataset))
    row = int(np.where(dataset.ids == sky[0])[0][0])
    focal = dataset.values[row] * 0.98
    return dataset, focal


class TestWarmRestore:
    def test_result_cache_survives_restart(self, tmp_path, case):
        dataset, focal = case
        engine = Engine(dataset, k_max=8)
        result = engine.query(focal, K)
        sid = engine.commit(SnapshotStore(tmp_path))
        assert engine.committed_snapshot == sid

        store = SnapshotStore(tmp_path)  # fresh handle, as after a restart
        restored = Engine.from_snapshot(store, sid)
        hits = restored.metrics()["engine.result_cache.hits"]
        served = restored.query(focal, K)
        assert restored.metrics()["engine.result_cache.hits"] == hits + 1, (
            "a restored engine must serve the persisted entry as a cache hit"
        )
        assert_results_identical(result, served)
        assert restored.fingerprint == engine.fingerprint
        assert restored.committed_snapshot == sid
        assert store.metrics()["snapshot.restore.engines"] == 1

    def test_from_snapshot_defaults_to_latest(self, tmp_path, case):
        dataset, _ = case
        store = SnapshotStore(tmp_path)
        engine = Engine(dataset, k_max=8)
        engine.commit(store)
        engine.insert([0.5] * D)
        newest = engine.commit(store)
        assert Engine.from_snapshot(store).committed_snapshot == newest

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            Engine.from_snapshot(SnapshotStore(tmp_path))

    def test_commit_dedupes_but_refreshes_caches(self, tmp_path, case):
        dataset, focal = case
        store = SnapshotStore(tmp_path)
        engine = Engine(dataset, k_max=8)
        sid = engine.commit(store)
        assert store.load_result_entries(sid) == []
        engine.query(focal, K)
        assert engine.commit(store) == sid  # unchanged state dedupes...
        assert len(store.load_result_entries(sid)) == 1  # ...caches refresh
        assert store.commits == 1 and store.commits_deduped == 1


class TestRestartProcessBoundary:
    def test_restart_roundtrip_in_a_separate_process(self, tmp_path, case):
        dataset, focal = case
        engine = Engine(dataset, k_max=8)
        warm = engine.query(focal, K)
        # Also park a truncated stream so the child can resume it.
        paused = list(engine.query_stream(focal, K + 1, max_batches=1))
        assert not paused[-1].done and engine.metrics()["engine.partial_store.entries"] == 1
        sid = engine.commit(SnapshotStore(tmp_path))

        child = textwrap.dedent(
            """
            import json, sys
            import numpy as np
            from repro import Engine, SnapshotStore
            from repro.data import independent_dataset
            from repro.parallel.compare import assert_results_identical

            store_path, sid, focal_json, n, d, k = sys.argv[1:7]
            focal = np.asarray(json.loads(focal_json), dtype=float)
            n, d, k = int(n), int(d), int(k)

            store = SnapshotStore(store_path)
            engine = Engine.from_snapshot(store, sid)

            # 1. the persisted result entry serves as a warm hit...
            hits = engine.metrics()["engine.result_cache.hits"]
            served = engine.query(focal, k)
            assert engine.metrics()["engine.result_cache.hits"] == hits + 1

            # ...byte-identical to a cold recomputation in THIS process.
            cold = Engine(independent_dataset(n, d, seed=11), k_max=8)
            assert_results_identical(served, cold.query(focal, k))

            # 2. the persisted stream checkpoint resumes and completes.
            assert engine.metrics()["engine.partial_store.entries"] == 1
            final = list(engine.query_stream(focal, k + 1))[-1]
            assert final.done and engine.metrics()["engine.stream.resumes"] == 1
            assert_results_identical(final.to_result(), cold.query(focal, k + 1))
            print("ROUNDTRIP-OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-c", child,
                str(tmp_path), sid, json.dumps(list(map(float, focal))),
                str(N), str(D), str(K),
            ],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ROUNDTRIP-OK" in proc.stdout
        # The parent's uninterrupted answer agrees with what the child served.
        assert_results_identical(warm, engine.query(focal, K))


class TestStreamRestore:
    def test_paused_stream_resumes_after_restart(self, tmp_path, case):
        dataset, focal = case
        engine = Engine(dataset, k_max=8)
        first = list(engine.query_stream(focal, K, max_batches=1))
        assert len(first) == 1 and not first[0].done
        sid = engine.commit(SnapshotStore(tmp_path))

        restored = Engine.from_snapshot(SnapshotStore(tmp_path), sid)
        assert restored.metrics()["engine.partial_store.entries"] == 1
        resumed = list(restored.query_stream(focal, K))
        assert resumed[-1].done
        assert restored.metrics()["engine.stream.resumes"] == 1
        assert restored.metrics()["engine.partial_store.entries"] == 0
        cold = Engine(dataset, k_max=8).query(focal, K)
        assert_results_identical(resumed[-1].to_result(), cold)
        # The resumed run starts past the persisted frontier instead of
        # replaying the already-served snapshots to the consumer.
        uninterrupted = list(Engine(dataset, k_max=8).query_stream(focal, K))
        assert len(resumed) < len(uninterrupted)

    def test_capture_mode_survives_restart(self, tmp_path, case):
        dataset, focal = case
        engine = Engine(dataset, k_max=8)
        list(engine.query_stream(focal, K, capture=False, max_batches=1))
        sid = engine.commit(SnapshotStore(tmp_path))

        restored = Engine.from_snapshot(SnapshotStore(tmp_path), sid)
        assert restored.metrics()["engine.partial_store.entries"] == 1
        # A bracket-reading caller must NOT resume the no-capture recipe —
        # the same contract a live checkpoint honours.
        final = list(restored.query_stream(focal, K))[-1]
        assert final.done and restored.metrics()["engine.stream.resumes"] == 0
        # The dropped recipe is gone; a no-capture caller would now run cold.
        assert restored.metrics()["engine.partial_store.entries"] == 0


class TestDiffReplayInvalidation:
    @pytest.fixture
    def engine(self) -> Engine:
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

    def test_replay_splits_restored_entries_by_relevance(
        self, tmp_path, engine, results_identical
    ):
        high_focal = np.array([0.95, 0.95])
        low_focal = np.array([0.25, 0.85])
        high_cached = engine.query(high_focal, 2)
        low_cached = engine.query(low_focal, 2)
        store = SnapshotStore(tmp_path)
        before = engine.commit(store)
        # Dominated by high_focal but an in-band competitor of low_focal:
        # exactly one of the two persisted entries must survive the replay.
        engine.insert([0.80, 0.75])
        after = engine.commit(store)

        restored = Engine.from_snapshot(store, before, replay_to=after)
        assert restored.fingerprint == engine.fingerprint
        metrics = restored.metrics()
        assert metrics["engine.result_cache.invalidated"] == 1
        assert metrics["engine.result_cache.rekeyed"] >= 1
        hits = metrics["engine.result_cache.hits"]
        assert_results_identical(restored.query(high_focal, 2), high_cached)
        assert restored.metrics()["engine.result_cache.hits"] == hits + 1, (
            "the unaffected entry must keep serving across restore + replay"
        )
        refreshed = restored.query(low_focal, 2)
        results_identical(
            refreshed, Engine(engine.dataset, k_max=6).query(low_focal, 2)
        )
        assert store.metrics()["snapshot.restore.replayed_updates"] == 1
        assert store.metrics()["snapshot.restore.fallbacks"] == 0

    def test_replay_reproduces_target_exactly_with_deletes(self, tmp_path, engine):
        store = SnapshotStore(tmp_path)
        before = engine.commit(store)
        engine.delete(5)
        engine.insert([0.42, 0.41])
        engine.delete(4)
        after = engine.commit(store)

        restored = Engine.from_snapshot(store, before, replay_to=after)
        assert restored.fingerprint == engine.fingerprint
        assert restored.dataset.id_high_watermark == engine.dataset.id_high_watermark
        # Idempotence seal: committing the replayed engine dedupes onto the
        # target snapshot instead of minting a new version.
        assert restored.commit(store) == after

    def test_failed_replay_falls_back_to_plain_checkout(self, tmp_path, engine):
        store = SnapshotStore(tmp_path)
        engine.query(np.array([0.95, 0.95]), 2)
        before = engine.commit(store)
        # A target whose *row order* no insert/delete replay can reproduce:
        # the new record sits at row 0, but replayed inserts always append.
        # Content-wise the diff is a plain insert, so only the post-replay
        # fingerprint verification can catch the divergence.
        rogue = Dataset(
            np.vstack([[[0.50, 0.50]], engine.dataset.values]),
            ids=[50] + [int(i) for i in engine.dataset.ids],
            name=engine.dataset.name,
            id_high_watermark=51,
        )
        forged = store.commit(rogue)
        restored = Engine.from_snapshot(store, before, replay_to=forged)
        assert restored.fingerprint == rogue.fingerprint()
        assert store.restore_fallbacks == 1
        assert restored.committed_snapshot == forged
        # The fallback engine is cache-cold but fully correct.
        assert restored.metrics()["engine.result_cache.entries"] == 0


class TestIdentityAcrossRestart:
    def test_engine_never_reissues_a_deleted_max_id(self):
        engine = Engine(Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), k_max=4)
        engine.delete(2)
        assert engine.insert([7.0, 8.0]) == 3, (
            "deleting the max-id record must not resurrect its id"
        )

    def test_watermark_survives_restart(self, tmp_path):
        engine = Engine(Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), k_max=4)
        engine.delete(2)  # id 2 is dead; live max is 1
        store = SnapshotStore(tmp_path)
        sid = engine.commit(store)

        restored = Engine.from_snapshot(store, sid)
        assert restored.dataset.id_high_watermark == 3
        assert restored.insert([7.0, 8.0]) == 3, (
            "a restart must not resurrect the deleted max id"
        )

    def test_restored_engine_rejects_explicit_sub_watermark_ids(self, tmp_path):
        engine = Engine(Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), k_max=4)
        engine.delete(2)
        store = SnapshotStore(tmp_path)
        restored = Engine.from_snapshot(store, engine.commit(store))
        with pytest.raises(InvalidDatasetError, match="floor"):
            restored.insert([7.0, 8.0], record_id=2)
        # Fresh engines keep the historical behaviour: any unused id goes.
        fresh = Engine(Dataset([[1.0, 2.0], [3.0, 4.0]]), k_max=4)
        assert fresh.insert([9.0, 9.0], record_id=77) == 77


class TestServeWiring:
    def test_service_commits_on_close_and_on_demand(self, tmp_path, case):
        dataset, focal = case
        store = SnapshotStore(tmp_path)
        engine = Engine(dataset, k_max=8)
        service = KSPRService(
            engine,
            ServeConfig(approx=ApproxSpec(epsilon=0.15, delta=0.15, seed=7)),
            snapshot_store=store,
        )

        async def go():
            sid = await service.commit_snapshot()
            await asyncio.wrap_future(
                service._pool.submit(engine.query, focal, K)
            )
            await service.close()
            return sid

        sid = asyncio.run(go())
        assert sid in store
        # close() committed once more, with the post-query warm cache.
        assert len(store.load_result_entries(sid)) == 1
        restored = Engine.from_snapshot(SnapshotStore(tmp_path), sid)
        hits = restored.metrics()["engine.result_cache.hits"]
        restored.query(focal, K)
        assert restored.metrics()["engine.result_cache.hits"] == hits + 1

    def test_commit_without_store_raises(self, case):
        dataset, _ = case
        service = KSPRService(
            Engine(dataset, k_max=8),
            ServeConfig(approx=ApproxSpec(epsilon=0.15, delta=0.15, seed=7)),
        )

        async def go():
            try:
                with pytest.raises(SnapshotError):
                    await service.commit_snapshot()
            finally:
                await service.close()

        asyncio.run(go())
