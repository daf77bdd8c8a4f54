"""Differential property-test harness: every algorithm vs the brute-force oracle.

Seeded random instances — varying cardinality, dimensionality, ``k`` and data
distribution — are answered by all five kSPR algorithms (CTA, P-CTA, LP-CTA
and the original-space OP-/OLP-CTA variants) *and* the parallel execution
path, and each answer is checked for region equivalence against the
brute-force arrangement enumerator:

* **membership equivalence** — sampled weight vectors fall inside the
  algorithm's regions exactly when they fall inside the brute-force ones
  (boundary samples are skipped, membership there is undefined);
* **ground-truth ranks** — at every sampled vector the claimed membership
  matches the focal record's exact rank (``verify_result``);
* **volume agreement** — for transformed-space methods the summed region
  volume matches the brute-force volume;
* **merge identity** — the subtree-sharded parallel path must be
  structurally *identical* (not merely equivalent) to serial CTA.

This harness is what makes aggressive refactoring of the hot path safe: any
change to the geometry kernels, the CellTree or the sharded executor that
alters an answer trips it immediately.

The tier-1 run covers ~25 seeded cases.  Set ``REPRO_DIFF_SEEDS=<n>`` to
sweep ``n`` extra seeds per case shape for deeper (slower) local runs::

    REPRO_DIFF_SEEDS=10 PYTHONPATH=src python -m pytest tests/test_differential_kspr.py -q
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.geometry.linprog as linprog_module
from repro import Dataset, Engine, UpdateBatch, cta, lpcta, pcta, stream_kspr, verify_result
from repro.baselines import brute_force_kspr
from repro.core.original_space import olp_cta, op_cta
from repro.data import anticorrelated_dataset, correlated_dataset, independent_dataset
from repro.geometry.transform import random_weight_vectors
from repro.obs import MetricsRegistry, use_registry
from repro.obs.names import LP_FALLBACK_CALLS
from repro.parallel import parallel_cta
from repro.parallel.compare import assert_results_identical

GENERATORS = {
    "independent": independent_dataset,
    "correlated": correlated_dataset,
    "anticorrelated": anticorrelated_dataset,
}

#: The tier-1 case grid: (cardinality, dimensionality, k, distribution).
#: Shapes stay small enough for the exponential brute-force oracle.
CASE_SHAPES = [
    (8, 2, 1, "independent"),
    (12, 2, 2, "independent"),
    (16, 2, 3, "correlated"),
    (20, 2, 4, "anticorrelated"),
    (10, 3, 1, "independent"),
    (12, 3, 2, "correlated"),
    (14, 3, 2, "anticorrelated"),
    (16, 3, 3, "independent"),
    (10, 4, 1, "independent"),
    (12, 4, 2, "correlated"),
    (12, 4, 2, "anticorrelated"),
    (14, 4, 3, "independent"),
    (18, 3, 4, "independent"),
]

#: Transformed-space methods whose answers carry exact geometry.
TRANSFORMED_METHODS = {"cta": cta, "pcta": pcta, "lpcta": lpcta}

#: Original-space (Appendix C) variants: membership-checked, no geometry.
ORIGINAL_METHODS = {"op_cta": op_cta, "olp_cta": olp_cta}

MEMBERSHIP_SAMPLES = 150
BOUNDARY_TOLERANCE = 1e-9


def _cases() -> list[tuple[int, int, int, str, int]]:
    """The seeded case list: ~2 seeds per shape in tier-1, more on request."""
    extra = int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    seeds_per_shape = 2 + extra
    cases = []
    for shape_index, (n, d, k, distribution) in enumerate(CASE_SHAPES):
        for round_index in range(seeds_per_shape):
            seed = 1000 * (shape_index + 1) + round_index
            cases.append((n, d, k, distribution, seed))
    # Tier-1: 13 shapes x 2 seeds = 26 cases, matching the harness contract.
    return cases


def _build_case(n: int, d: int, k: int, distribution: str, seed: int):
    dataset = GENERATORS[distribution](n, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    focal_row = int(rng.integers(dataset.cardinality))
    focal = dataset.values[focal_row] * (1.0 + 0.1 * (rng.random(d) - 0.5))
    return dataset, focal, rng


def _memberships_match(result, baseline, dataset: Dataset, focal: np.ndarray, rng) -> None:
    """Sampled membership must agree between ``result`` and ``baseline``."""
    weights = random_weight_vectors(dataset.dimensionality, MEMBERSHIP_SAMPLES, rng)
    focal = np.asarray(focal, dtype=float)
    checked = 0
    for vector in weights:
        record_scores = dataset.scores(vector)
        focal_score = float(np.dot(focal, vector))
        if record_scores.size and np.any(
            np.abs(record_scores - focal_score) < BOUNDARY_TOLERANCE
        ):
            continue  # membership on a cell boundary is undefined
        assert result.contains_weights(vector) == baseline.contains_weights(vector)
        checked += 1
    assert checked > MEMBERSHIP_SAMPLES // 2, "too many boundary samples to be meaningful"


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases(),
    ids=lambda value: str(value),
)
def test_all_methods_region_equivalent_to_brute_force(n, d, k, distribution, seed):
    dataset, focal, rng = _build_case(n, d, k, distribution, seed)
    baseline = brute_force_kspr(dataset, focal, k)
    baseline_volume = baseline.total_volume()

    # The brute-force oracle itself must verify against ground-truth ranks.
    report = verify_result(baseline, dataset, focal, k, samples=200, rng=seed + 2)
    assert report.is_consistent, f"brute force inconsistent: {report.mismatches} mismatches"

    for name, method in TRANSFORMED_METHODS.items():
        result = method(dataset, focal, k)
        report = verify_result(result, dataset, focal, k, samples=200, rng=seed + 3)
        assert report.is_consistent, f"{name}: {report.mismatches} rank mismatches"
        assert result.total_volume() == pytest.approx(baseline_volume, abs=1e-6), name
        _memberships_match(result, baseline, dataset, focal, rng)

    for name, method in ORIGINAL_METHODS.items():
        result = method(dataset, focal, k)
        report = verify_result(result, dataset, focal, k, samples=200, rng=seed + 4)
        assert report.is_consistent, f"{name}: {report.mismatches} rank mismatches"
        _memberships_match(result, baseline, dataset, focal, rng)

    # The parallel path must be byte-identical to serial CTA (and therefore
    # region-equivalent to the brute-force baseline by transitivity).
    serial = cta(dataset, focal, k)
    sharded = parallel_cta(dataset, focal, k, workers=2, shard_factor=2)
    assert_results_identical(sharded, serial)


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases(),
    ids=lambda value: str(value),
)
def test_stock_linprog_fallback_gives_identical_answers(monkeypatch, n, d, k, distribution, seed):
    """The reused-HiGHS solver and the counted stock-``linprog`` fallback agree.

    Every method answers each case once per backend; regions, witnesses
    (bit for bit), LP counts and CellTree sizes must all be equal, and every
    fallback solve is counted in ``query.lp.fallback_calls``.
    """
    dataset, focal, _ = _build_case(n, d, k, distribution, seed)
    methods = {**TRANSFORMED_METHODS, **ORIGINAL_METHODS}
    default = {name: method(dataset, focal, k) for name, method in methods.items()}
    monkeypatch.setattr(linprog_module, "linprog", linprog_module._stock_linprog)
    registry = MetricsRegistry()
    with use_registry(registry):
        fallback = {name: method(dataset, focal, k) for name, method in methods.items()}
    for name, result in fallback.items():
        assert_results_identical(result, default[name])
        for region, expected in zip(result.regions, default[name].regions):
            assert (region.witness is None) == (expected.witness is None), name
            if region.witness is not None:
                assert region.witness.tobytes() == expected.witness.tobytes(), name
        assert result.stats.lp == default[name].stats.lp, name
        assert result.stats.celltree_nodes == default[name].stats.celltree_nodes, name
    solves = sum(result.stats.lp.total_calls for result in default.values())
    assert registry.counter(LP_FALLBACK_CALLS).value == solves


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases(),
    ids=lambda value: str(value),
)
def test_deadline_truncated_then_resumed_matches_uninterrupted(n, d, k, distribution, seed):
    """Anytime pause/resume is lossless: the resumed final answer is byte-identical.

    Every progressive method is truncated after its first work unit (the
    deterministic stand-in for a wall-clock deadline) and resumed to
    completion; the final result must be structurally identical — same
    regions, order, ranks, halfspaces, witnesses — to the uninterrupted
    all-at-once call.  The ``REPRO_DIFF_SEEDS`` deep sweep extends this case
    list exactly like the brute-force differential above.
    """
    dataset, focal, _ = _build_case(n, d, k, distribution, seed)
    for name, method in {**TRANSFORMED_METHODS, **ORIGINAL_METHODS}.items():
        uninterrupted = method(dataset, focal, k)
        query = stream_kspr(dataset, focal, k, method=name)
        truncated = list(query.advance(max_batches=1))
        assert len(truncated) == 1
        query.run()
        assert_results_identical(query.result(), uninterrupted)


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases()[::3],  # every 3rd case in tier-1; the deep sweep multiplies the list
    ids=lambda value: str(value),
)
def test_sharded_truncated_then_resumed_matches_serial(n, d, k, distribution, seed):
    """The workers=N stream, paused after its first shard commit and resumed,
    still merges deterministically into the serial CTA answer."""
    dataset, focal, _ = _build_case(n, d, k, distribution, seed)
    serial = cta(dataset, focal, k)
    query = stream_kspr(dataset, focal, k, method="cta", workers=2, shard_factor=2)
    list(query.advance(max_batches=1))
    query.run()
    assert_results_identical(query.result(), serial)


#: Methods the live differential maintains as standing queries.
LIVE_METHODS = ("cta", "pcta", "lpcta", "op_cta", "olp_cta")


def _seeded_batch(engine: Engine, rng, d: int, k: int) -> UpdateBatch:
    """One seeded batch of 1–3 interleaved inserts/deletes against ``engine``.

    Deletes target then-live ids (distinct within the batch) and never
    shrink the dataset below a floor that keeps ``k`` meaningful; inserts
    jitter existing rows so they land near the skyband (the interesting,
    damage-prone part of value space).
    """
    live = engine.dataset
    live_ids = [int(record_id) for record_id in live.ids]
    batch = UpdateBatch()
    deleted: set[int] = set()
    for _ in range(int(rng.integers(1, 4))):
        can_delete = len(live_ids) - len(deleted) > max(k + 2, 4)
        if can_delete and rng.random() < 0.4:
            candidates = [rid for rid in live_ids if rid not in deleted]
            victim = int(rng.choice(candidates))
            deleted.add(victim)
            batch.delete(victim)
        else:
            row = live.values[int(rng.integers(live.cardinality))]
            batch.insert(row * (1.0 + 0.2 * (rng.random(d) - 0.5)))
    return batch


#: Methods cheap enough to cold-check after *every* batch; the LP-backed
#: ones are held to the same bar on the final state (a cold LP run costs
#: ~10x the others and would dominate tier-1).
FAST_LIVE_METHODS = ("cta", "pcta", "op_cta")

LIVE_ROUNDS = 4


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases()[::2],  # every 2nd case in tier-1; the deep sweep multiplies the list
    ids=lambda value: str(value),
)
def test_standing_queries_byte_identical_under_interleaved_updates(n, d, k, distribution, seed):
    """Incremental repair ≡ cold recompute, method by method, update by update.

    Every method's standing query rides a seeded interleaved insert/delete
    stream; after each atomic batch the maintained answer — whether it was
    repaired or carried forward by the rules-1–4 classifier — must be
    *structurally identical* to a cold query on a fresh engine over the
    current dataset state.  The sharded parallel path is held to the same
    bar against the standing CTA answer.  ``REPRO_DIFF_SEEDS`` deepens the
    sweep exactly like the brute-force differential.
    """
    dataset, focal, rng = _build_case(n, d, k, distribution, seed)
    engine = Engine(dataset)
    standing = {name: engine.subscribe(focal, k, name) for name in LIVE_METHODS}

    carried = 0
    for round_index in range(LIVE_ROUNDS):
        engine.apply_updates(_seeded_batch(engine, rng, d, k))
        cold = Engine(engine.dataset, k_max=engine.k_max)
        final = round_index == LIVE_ROUNDS - 1
        checked = LIVE_METHODS if final else FAST_LIVE_METHODS
        for name in checked:
            query = standing[name]
            assert query.fingerprint == engine.fingerprint, name
            assert_results_identical(query.result(), cold.query(focal, k, method=name))
        carried += sum(query.carried_forward for query in standing.values())

    # Sharded parity: the workers=2 cold recompute (same engine pruning) must
    # match the serially-maintained standing CTA answer on the final state.
    sharded = Engine(engine.dataset, k_max=engine.k_max).query(
        focal, k, method="cta", workers=2
    )
    assert_results_identical(sharded, standing["cta"].result())

    # Sanity on the harness itself: across the whole differential corpus the
    # classifier must exercise both verdicts (all-repair would vacuously pass).
    total_repairs = sum(query.repairs for query in standing.values())
    assert total_repairs + carried > 0


@pytest.mark.parametrize(
    "n,d,k,distribution,seed",
    _cases()[::3],  # every 3rd case in tier-1; the deep sweep multiplies the list
    ids=lambda value: str(value),
)
def test_standing_anytime_refined_to_done_matches_cold_exact(n, d, k, distribution, seed):
    """An anytime standing query, repaired under updates then refined to
    certification, lands on the byte-identical exact answer of a cold run."""
    dataset, focal, rng = _build_case(n, d, k, distribution, seed)
    engine = Engine(dataset)
    query = engine.subscribe(focal, k, "cta", anytime=True)

    for _round in range(2):
        engine.apply_updates(_seeded_batch(engine, rng, d, k))
    while not query.done:
        query.refine(max_batches=2)

    lower, upper = query.bracket()
    assert lower == pytest.approx(upper, abs=1e-12)
    cold = Engine(engine.dataset, k_max=engine.k_max).query(focal, k, method="cta")
    assert lower == pytest.approx(cold.impact_probability(), abs=1e-9)
    assert_results_identical(query.result().to_result(), cold)


def test_deep_sweep_env_var_extends_the_case_list(monkeypatch):
    """REPRO_DIFF_SEEDS=<n> adds n seeds per shape on top of the tier-1 two."""
    monkeypatch.delenv("REPRO_DIFF_SEEDS", raising=False)
    tier1 = _cases()
    monkeypatch.setenv("REPRO_DIFF_SEEDS", "3")
    deep = _cases()
    assert len(tier1) == 2 * len(CASE_SHAPES)
    assert len(deep) == 5 * len(CASE_SHAPES)
    assert set(tier1) <= set(deep)
