"""live-churn: update batches beside reads, standing queries and snapshots.

Writes beside reads: index maintenance, rules-1-4 invalidation, damage
classification and snapshot I/O do work here that the other workloads
never do; the kernel runs only for repairs and re-reads.  The engine holds
four standing P-CTA queries.  A seeded stream of ``apply_updates``
batches of 4 to 28 ops (60% inserts drawn from the data's own
distribution, 40% deletes of uniformly random live ids) is each followed
by two P-CTA reads from a Zipf pool of 16 focals that includes the
standing ones; every tenth batch is committed to a temporary
:class:`~repro.snapshot.SnapshotStore`.

Update latency has two classes: undamaged batches (every standing answer
carried forward, ~15 ms) and damaged ones (repairs, a few hundred ms).  A
free-running stream put between 23% and 35% of batches in the damaged
class from seed to seed, and the drift of the dataset over a run moved
repair cost two-fold, so the p90 and the throughput measured the draw.
Two things pin them down while the ops stay seeded draws:

* Episodes.  Every ``EPISODE`` batches the engine restarts from the initial
  dataset (off the clock), so repair cost cannot drift far.
* A damage schedule.  With ``k = 1`` an update damages a standing query
  exactly when it touches the skyline (rules 1-4), which the generator
  tracks in a shadow skyline.  Each episode has ``DAMAGED_PER_EPISODE``
  damaging batches at seeded positions: a damaging batch opens with one
  skyline-touching op, and every other op is drawn until it touches none.

The run still fails unless the measured damaged share keeps the p50 in the
undamaged class and the p90 in the damaged class, ten points from the
boundary.  The dataset (IND n=1000, d=3, the harness's dataset seed 42)
and the focals are pinned, as in cold-exact.
"""

from __future__ import annotations

import pickle
import statistics
import time
from pathlib import Path

import numpy as np
from repro import Engine
from repro.data import independent_dataset
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.live import UpdateOp
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.parallel import assert_results_identical
from repro.snapshot import SnapshotStore

from common import Metric, Outcome, Resources, quantile, timed_setups
from tracing import Recorder, install_layer_wrappers, per_call

NAME = "live-churn"
N, D, K = 1000, 3, 1
TINY_N = 200
DATASET_SEED = 42
STANDING = 4
POOL = 16
#: Ops per batch, drawn uniformly (mean 16).  The shared host switches
#: between two speeds 1.6x apart for seconds at a time; with fixed 16-op
#: batches the undamaged class was so narrow that its two speed modes did
#: not overlap, and the whole-run p50 flipped between them (8.8-13.4 ms over
#: five seeds).  Varied sizes spread the class so the p50 moves smoothly.
BATCH_SIZES = (4, 28)
READS = 2
COMMIT_EVERY = 10
EPISODE = 10
DAMAGED_PER_EPISODE = 3
ZIPF_S = 1.1
#: Damaged-batch share that keeps p50 and p90 ten points inside their classes.
DAMAGED_BAND = (0.20, 0.40)
METHOD = "pcta"
#: Episodes per second of ``--seconds``: a fixed amount of work per seed
#: (about 1.3 s per episode, its engine rebuild included, on two cores), so
#: the stream depends on the seed alone, not on how fast the host was.
EPISODES_PER_SECOND = 0.75


def _focals(data) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A pool of distinct skyline records (the k=1 skyband); the first few stand."""
    sky = sorted(int(record_id) for record_id in skyline(AggregateRTree(data)))
    picks = np.random.default_rng(DATASET_SEED).choice(sky, size=min(POOL, len(sky)), replace=False)
    pool = [data.record_by_id(int(record_id)).values.copy() for record_id in picks]
    return pool[:STANDING], pool


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of ``a`` that dominate ``b`` (higher is better, as in the program)."""
    return np.all(a >= b, axis=-1) & np.any(a > b, axis=-1)


class _ShadowStream:
    """Seeded update batches over a shadow copy of the live records and their skyline."""

    def __init__(self, data, rng: np.random.Generator, keep: list[np.ndarray]) -> None:
        self.rng = rng
        self.dims = data.dimensionality
        self.values = {int(record_id): data.record_by_id(int(record_id)).values.copy() for record_id in data.ids}
        self.next_id = data.next_record_id()
        self.focals = np.array(keep)
        self.keep = {record_id for record_id, value in self.values.items()
                     if any(np.array_equal(value, focal) for focal in keep)}
        self.skyline = {int(record_id) for record_id in skyline(AggregateRTree(data))}

    def _sky_matrix(self, exclude: int | None = None) -> np.ndarray:
        return np.array([self.values[i] for i in self.skyline if i != exclude]).reshape(-1, self.dims)

    def _insert(self, point: np.ndarray) -> UpdateOp:
        record_id, self.next_id = self.next_id, self.next_id + 1
        self.values[record_id] = point
        if not _dominates(self._sky_matrix(), point).any():
            self.skyline = {i for i in self.skyline if not _dominates(point, self.values[i])} | {record_id}
        return UpdateOp.insert(point, record_id=record_id)

    def _delete(self, record_id: int) -> UpdateOp:
        point = self.values.pop(record_id)
        if record_id in self.skyline:
            # Only records dominated by the deleted one can join the skyline,
            # and only they or the rest of the skyline can dominate them.
            ids = [i for i, value in self.values.items() if _dominates(point, value)]
            others = np.array([self.values[i] for i in ids]).reshape(-1, self.dims)
            rivals = np.vstack([self._sky_matrix(exclude=record_id), others])
            self.skyline.discard(record_id)
            self.skyline |= {i for i in ids if not _dominates(rivals, self.values[i]).any()}
        return UpdateOp.delete(record_id)

    def _draw(self, touching: bool) -> UpdateOp:
        """One op from the mix, redrawn until it does (or does not) touch the skyline.

        An op that touches no skyline record and dominates no standing focal
        is provably harmless to every standing query (rules 1 and 4).
        """
        insert = self.rng.random() < 0.6
        while True:
            if insert:
                point = self.rng.random(self.dims)
                harmless = _dominates(self._sky_matrix(), point).any() and not _dominates(point, self.focals).any()
                if harmless != touching:
                    return self._insert(point)
            else:
                ids = list(self.values)
                record_id = ids[int(self.rng.integers(len(ids)))]
                value = self.values[record_id]
                harmless = record_id not in self.skyline and not _dominates(value, self.focals).any()
                if record_id not in self.keep and harmless != touching:
                    return self._delete(record_id)

    def batch(self, damaging: bool) -> list[UpdateOp]:
        size = int(self.rng.integers(BATCH_SIZES[0], BATCH_SIZES[1] + 1))
        return [self._draw(touching=damaging and index == 0) for index in range(size)]


def _episode_plan(rng: np.random.Generator) -> list[bool]:
    plan = [False] * EPISODE
    for position in rng.choice(EPISODE, size=DAMAGED_PER_EPISODE, replace=False):
        plan[int(position)] = True
    return plan


def run(seed: int, seconds: float, trace: bool, tiny: bool, outcome: Outcome, recorder: Recorder | None,
        resources: Resources) -> None:
    data = independent_dataset(TINY_N if tiny else N, D, seed=DATASET_SEED)
    standing_focals, pool = _focals(data)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
    weights /= weights.sum()

    def setup():
        engine = Engine(data, k_max=8)
        standing = [engine.subscribe(focal, K, method=METHOD) for focal in standing_focals]
        return engine, standing

    (engine, standing), setups = timed_setups(setup, 3, outcome.host)
    outcome.extra["setup_samples"] = setups
    store = SnapshotStore(resources.make_dir("snapshots"))

    updates, reads, commits = [], [], []
    traced_flags, damaged, planned, repairs, useful, recomputes = [], [], [], 0, 0, 0
    metrics_rows = []
    episodes = max(1, round(EPISODES_PER_SECOND * seconds))
    wall = 0.0
    for episode in range(episodes):
        if episode:
            engine, standing = setup()
        stream = _ShadowStream(data, rng, standing_focals)
        started = time.perf_counter()
        for position, damaging in enumerate(_episode_plan(rng)):
            ops = stream.batch(damaging)
            outcome.host.sample()
            traced = trace and position % 2 == 1
            before = [(q.repairs, q.result().impact_probability(), len(q.result())) for q in standing]
            metrics_before = engine.metrics()
            if traced:
                install_layer_wrappers(recorder)
                tracer = Tracer()
                with use_tracer(tracer), use_registry(MetricsRegistry()):
                    start = time.perf_counter()
                    engine.apply_updates(ops)
                    end = time.perf_counter()
                recorder.restore()
                recorder.record("op.update", start, end)
                recorder.add_program_spans(tracer.spans)
            else:
                start = time.perf_counter()
                engine.apply_updates(ops)
                end = time.perf_counter()
            updates.append(end - start)
            traced_flags.append(traced)
            metrics_after = engine.metrics()
            batch_repairs = 0
            for query, (count, impact, regions) in zip(standing, before):
                if query.repairs > count:
                    batch_repairs += query.repairs - count
                    useful += (query.result().impact_probability(), len(query.result())) != (impact, regions)
            repairs += batch_repairs
            damaged.append(batch_repairs > 0)
            planned.append(damaging)
            metrics_rows.append({name: metrics_after[name] - metrics_before.get(name, 0.0) for name in (
                "engine.result_cache.invalidated", "engine.result_cache.retained")})
            for _ in range(READS):
                focal = pool[int(rng.choice(len(pool), p=weights))]
                hits = engine.metrics()["engine.result_cache.hits"]
                start = time.perf_counter()
                engine.query(focal, K, method=METHOD)
                reads.append(time.perf_counter() - start)
                recomputes += engine.metrics()["engine.result_cache.hits"] == hits
            if (position + 1) % COMMIT_EVERY == 0:
                start = time.perf_counter()
                last_sid = engine.commit(store)
                commits.append(time.perf_counter() - start)
            outcome.op(True)
        wall += time.perf_counter() - started

    start = time.perf_counter()
    restored = Engine.from_snapshot(store, last_sid)
    restore_ms = (time.perf_counter() - start) * 1000.0
    _check(engine, restored, standing, pool, outcome)
    store_bytes = sum(path.stat().st_size for path in Path(store.root).rglob("*") if path.is_file())

    share = sum(damaged) / len(damaged)
    outcome.check("live.damaged_share_in_band", DAMAGED_BAND[0] <= share <= DAMAGED_BAND[1],
                  f"damaged share {share:.3f} outside {DAMAGED_BAND}")
    print(f"live-churn: {len(damaged)} batches, {sum(damaged)} damaged, {len(damaged) - sum(damaged)} "
          f"undamaged, damaged share {share:.4f}, {repairs} repairs, {recomputes} read recomputes, "
          f"{sum(d != p for d, p in zip(damaged, planned))} batches off the damage schedule")
    plain = [seconds * 1000.0 for seconds, flag in zip(updates, traced_flags) if not flag]
    ops_count = len(updates) + len(reads) + len(commits)
    outcome.extra.update(
        updates=updates, traced_flags=traced_flags, damaged_share=share, repairs=repairs, useful=useful,
        recomputes=recomputes, commits_ms=[c * 1000.0 for c in commits],
        bytes_per_commit=store_bytes / len(commits), restore_ms=restore_ms, metrics_rows=metrics_rows,
        reads=len(reads), read_hits=len(reads) - recomputes)
    if not trace:
        outcome.metrics["latency.p50_ms"] = Metric(statistics.median(plain), "ms", len(plain))
        outcome.metrics["latency.tail_ms"] = Metric(quantile(plain, 0.9), "ms", len(plain))
        outcome.metrics["throughput.per_s"] = Metric(ops_count / wall, "1/s", ops_count, "higher")
        outcome.details["live.update.p50_ms"] = outcome.metrics["latency.p50_ms"]
        outcome.details["live.update.p90_ms"] = outcome.metrics["latency.tail_ms"]
        outcome.details["live.ops_per_s"] = Metric(ops_count / wall, "ops/s", ops_count, "higher")
        outcome.details["live.damaged_share"] = Metric(share, "ratio", len(damaged))


def _check(engine, restored, standing, pool, outcome: Outcome) -> None:
    """Standing answers equal a cold recompute; the restored engine serves identical hits."""
    cold = Engine(engine.dataset, k_max=8)
    for query in standing:
        try:
            assert_results_identical(query.result(), cold.query(query.focal, K, method=METHOD))
            same = True
        except AssertionError:
            same = False
        outcome.check("live.standing_equals_cold", same, f"standing query {query.focal}")
    for focal in pool:
        cached = engine.cached_result(focal, K, method=METHOD)
        if cached is None:
            continue
        hits = restored.metrics()["engine.result_cache.hits"]
        served = restored.query(focal, K, method=METHOD)
        hit = restored.metrics()["engine.result_cache.hits"] == hits + 1
        outcome.check("snapshot.restored_hit_identical", hit and pickle.dumps(served) == pickle.dumps(cached),
                      f"focal {focal}: hit={hit}")


def layer_values(outcome: Outcome, spans, rows, counts) -> dict[str, float]:
    """Per-layer numbers of a traced live-churn run."""
    extra = outcome.extra
    update_ops = [i for i, s in enumerate(spans) if s.name == "op.update"]
    op_set = set(update_ops)
    wall = sum(spans[i].duration for i in update_ops)
    inside = lambda *names: sum(s.duration for s in spans if s.op in op_set and s.name in names)  # noqa: E731
    batches = len(update_ops)
    rows_ = extra["metrics_rows"]
    repairs, share = extra["repairs"], extra["damaged_share"]
    damaged_batches = round(share * len(extra["updates"]))
    plain = [u for u, flag in zip(extra["updates"], extra["traced_flags"]) if not flag]
    traced = [u for u, flag in zip(extra["updates"], extra["traced_flags"]) if flag]
    lp = ("geometry.lp.feasibility", "geometry.lp.optimize")
    lp_calls = sum(rows.get(name, {}).get("calls", 0) for name in lp)
    repair_spans = [s for s in spans if s.op in op_set and s.name == "live.repair"]
    repair_s = sum(s.attrs.get("seconds", 0.0) for s in repair_spans)
    apply_self = wall - inside("index.skyband.update", "index.rtree.update", "live.classify") - repair_s
    return {
        "geometry.lp.calls": lp_calls / batches if batches else 0.0,
        "geometry.lp.us_per_call": per_call(rows, lp),
        "geometry.scipy.us_per_call": per_call(rows, ("geometry.scipy.linprog",)),
        "index.skyband.update_us": per_call(rows, ("index.skyband.update",)),
        "index.rtree.update_us": per_call(rows, ("index.rtree.update",)),
        "engine.cache.lookup_us": per_call(rows, ("engine.cache.lookup",)),
        "engine.cache.hit_ratio": extra["read_hits"] / extra["reads"] if extra["reads"] else 0.0,
        "engine.invalidated_per_batch": statistics.mean(r["engine.result_cache.invalidated"] for r in rows_),
        "engine.retained_per_batch": statistics.mean(r["engine.result_cache.retained"] for r in rows_),
        "engine.read_recomputes": extra["recomputes"],
        "engine.apply.self_ms": apply_self / batches * 1e3 if batches else 0.0,
        "live.classify_us": per_call(rows, ("live.classify",)),
        "live.damaged_share": share,
        "live.repairs_per_damaged_batch": repairs / damaged_batches if damaged_batches else 0.0,
        "live.repair.ms": repair_s / len(repair_spans) * 1e3 if repair_spans else 0.0,
        "live.repair.useful_ratio": extra["useful"] / repairs if repairs else 0.0,
        "snapshot.commit.ms": statistics.mean(extra["commits_ms"]),
        "snapshot.bytes_per_commit": extra["bytes_per_commit"],
        "snapshot.restore.ms": extra["restore_ms"],
        "obs.trace_overhead": statistics.median(traced) / statistics.median(plain) - 1.0 if traced and plain else 0.0,
    }
