"""cold-exact: every exact method, sharding, sampling and streaming, all cold.

Geometry, core, index, parallel, approx and stream do the work here; serve,
live and snapshot do none.  The dataset is the experiment harness's default
IND n=1000, d=3 instance (dataset seed 42 included) and the focals are 10
of its 21 skyline records, pinned; ``--seed`` orders them.  Query cost
varies five-fold between skyline records and 2.5-fold in median between
IND datasets of the same size, so a run that drew its own dataset or focal
subset would measure its draw; a pinned population covered in whole passes
keeps every run's medians over the same queries.  ``k = 2`` is the smallest
k at which ``workers=2`` CTA shards over a process pool (at ``k = 1`` it
falls back to one process); at the harness's ``k = 5`` a single LP-CTA
query takes 2-10 s on two cores, against about 24 s for a whole pass here.

Order is focal-major: one focal runs every op kind before the next focal
starts, so host drift hits every method alike.  Each op kind has its own
:class:`~repro.Engine`, rebuilt every pass, so no op reuses another's
prepared state or cache.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from repro import ApproxSpec, Engine
from repro.data import independent_dataset
from repro.experiments.harness import ExperimentConfig
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.parallel import assert_results_identical

from common import Metric, Outcome, Resources, child_pids, quantile, reap_children, timed_setups
from tracing import Recorder, install_layer_wrappers, mean, per_call, wrapped_op

NAME = "cold-exact"
K = 2
FOCALS = 10
TINY_N = 120
#: ``--seconds`` buys one whole pass per PASS_SECONDS, rounded, at least
#: one.  Passes are never cut short, so every run covers the same queries
#: however fast the host is that minute; a pass takes about 24 s on two cores.
PASS_SECONDS = 24.0
OP_KINDS = ("cta", "pcta", "lpcta", "op_cta", "cta_w2", "sample", "stream")
SERIAL_EXACT = ("cta", "pcta", "lpcta", "op_cta")
LATENCY_TAIL = 0.75


def _dataset(tiny: bool):
    config = ExperimentConfig(distribution="IND", cardinality=TINY_N if tiny else 1000, dimensionality=3)
    return config.dataset()


def _skyline_ids(data) -> list[int]:
    return sorted(int(record_id) for record_id in skyline(AggregateRTree(data)))


def _focal_ids(data) -> list[int]:
    """The pinned focal population: FOCALS skyline records, drawn once by the dataset seed."""
    sky = _skyline_ids(data)
    picks = np.random.default_rng(ExperimentConfig().seed).choice(sky, size=min(FOCALS, len(sky)), replace=False)
    return sorted(int(record_id) for record_id in picks)


def _build_engines(data) -> dict[str, Any]:
    return {kind: Engine(data) for kind in OP_KINDS}


def _first_region(engine, focal) -> tuple[Any, int]:
    """Drain ``query_stream`` to its first certified region (or its end); close it."""
    stream = engine.query_stream(focal, K)
    ticks = 0
    try:
        for partial in stream:
            ticks += 1
            if partial.regions or partial.done:
                return partial, ticks
    finally:
        stream.close()
    raise RuntimeError("stream ended without a terminal partial")


def _run_op(engine, kind: str, focal):
    if kind in SERIAL_EXACT:
        return engine.query(focal, K, method=kind), None
    if kind == "cta_w2":
        return engine.query(focal, K, method="cta", workers=2), None
    if kind == "sample":
        return engine.query(focal, K, approx=ApproxSpec()), None
    return _first_region(engine, focal)


def _warm_up(tiny_data) -> None:
    """First LP solve, first fork, first Qhull call, sampler: off the clock."""
    engines = _build_engines(tiny_data)
    focal = tiny_data.record_by_id(_skyline_ids(tiny_data)[0]).values
    for kind in OP_KINDS:
        _run_op(engines[kind], kind, focal)
    reap_children()


def run(seed: int, seconds: float, trace: bool, tiny: bool, outcome: Outcome, recorder: Recorder | None,
        resources: Resources) -> None:
    data = _dataset(tiny)
    warm_data = independent_dataset(40, 3, seed=7)
    ids = _focal_ids(data)
    rng = np.random.default_rng(seed)
    focals = {record_id: data.record_by_id(record_id).values.copy() for record_id in ids}

    def setup():
        engines = _build_engines(data)
        _warm_up(warm_data)
        return engines

    engines, setups = timed_setups(setup, 3, outcome.host)
    outcome.extra["setup_samples"] = setups

    samples = _Samples()
    # A traced run alternates untraced and traced passes, so the overhead
    # ratio compares the same queries.
    passes = max(2 if trace else 1, round(seconds / PASS_SECONDS))
    for index in range(passes):
        if index:
            engines = _build_engines(data)
        traced_pass = trace and index % 2 == 1
        if traced_pass:
            install_layer_wrappers(recorder)
        try:
            for record_id in rng.permutation(ids).tolist():
                _one_focal(record_id, focals[record_id], engines, recorder if traced_pass else None,
                           outcome, samples)
        finally:
            if traced_pass:
                recorder.restore()

    outcome.extra.update(passes=passes, focals=len(ids), times=samples.times, bundles=samples.bundles,
                         w2_pairs=samples.w2_pairs, layer_inputs=samples.layer_inputs)
    _report(outcome, samples.times, trace)
    misses = sum(samples.ci_miss.values())
    total = len(samples.ci_miss)
    delta = ApproxSpec().delta
    allowance = delta * total + 3.0 * (total * delta * (1.0 - delta)) ** 0.5
    outcome.check("sample.ci_misses_within_allowance", misses <= allowance,
                  f"{misses} of {total} focals missed (allowance {allowance:.2f})")
    outcome.extra["ci_miss_ratio"] = misses / total if total else 0.0


@dataclass
class _Samples:
    """Everything one run measures, by op kind and focal."""

    times: dict[str, list[float]] = field(default_factory=lambda: {kind: [] for kind in OP_KINDS})
    #: (focal id, traced, summed seconds of the four serial exact methods)
    bundles: list[tuple[int, bool, float]] = field(default_factory=list)
    #: (serial CTA seconds, workers=2 CTA seconds) per focal visit
    w2_pairs: list[tuple[float, float]] = field(default_factory=list)
    #: traced-pass counts read from the results
    layer_inputs: dict[str, list[float]] = field(default_factory=lambda: {name: [] for name in (
        "lp_calls", "lp_feas", "lp_opt", "lp_constraints", "nodes", "pruned",
        "competitors", "node_accesses", "ticks", "samples", "children_after")})
    #: focal id -> whether any of its sampled intervals missed the exact impact
    ci_miss: dict[int, bool] = field(default_factory=dict)


def _one_focal(record_id: int, focal, engines, recorder: Recorder | None, outcome: Outcome,
               samples: _Samples) -> None:
    """Run every op kind on one focal, check the answers, record the timings."""
    results: dict[str, Any] = {}
    elapsed: dict[str, float] = {}
    inputs = samples.layer_inputs
    for kind in OP_KINDS:
        outcome.host.sample()
        if recorder is not None:
            tracer = Tracer()
            with use_tracer(tracer), use_registry(MetricsRegistry()):
                (value, ticks), seconds = wrapped_op(recorder, kind, lambda: _run_op(engines[kind], kind, focal))
            recorder.add_program_spans(tracer.spans)
        else:
            (value, ticks), seconds = wrapped_op(None, kind, lambda: _run_op(engines[kind], kind, focal))
        if kind == "cta_w2":
            alive = len(child_pids())
            left = reap_children()
            if recorder is not None:
                inputs["children_after"].append(alive)
            outcome.check("cta_w2.children_reaped", not left, f"children {left} outlived the op")
        results[kind] = value
        elapsed[kind] = seconds
        samples.times[kind].append(seconds)
        if kind == "stream":
            results["stream_ticks"] = ticks

    exact = float(results["cta"].impact_probability())
    ok = True
    for kind in SERIAL_EXACT:
        impact = float(results[kind].impact_probability())
        ok &= outcome.check("exact.methods_agree", abs(impact - exact) <= 1e-9,
                            f"focal {record_id}: {kind} impact {impact!r} vs cta {exact!r}")
    try:
        assert_results_identical(results["cta_w2"], results["cta"])
        identical = True
    except AssertionError as error:
        identical = False
        message = str(error)
    ok &= outcome.check("cta_w2.identical_to_serial", identical, "" if identical else f"focal {record_id}: {message}")
    partial = results["stream"]
    lower, upper = partial.impact_lower(), partial.impact_upper()
    ok &= outcome.check("stream.bracket_contains_exact", lower - 1e-9 <= exact <= upper + 1e-9,
                        f"focal {record_id}: [{lower}, {upper}] vs {exact}")
    samples.ci_miss[record_id] = samples.ci_miss.get(record_id, False) or not results["sample"].covers(exact)
    for kind in OP_KINDS:
        outcome.op(ok)

    samples.bundles.append((record_id, recorder is not None, sum(elapsed[kind] for kind in SERIAL_EXACT)))
    samples.w2_pairs.append((elapsed["cta"], elapsed["cta_w2"]))
    if recorder is not None:
        for kind in SERIAL_EXACT:
            stats = results[kind].stats
            inputs["lp_calls"].append(stats.lp.total_calls)
            inputs["lp_feas"].append(stats.lp.feasibility_calls)
            inputs["lp_opt"].append(stats.lp.optimize_calls)
            inputs["lp_constraints"].append(stats.lp.total_constraints)
            inputs["nodes"].append(stats.celltree_nodes)
            inputs["pruned"].append(stats.cells_pruned_by_bounds)
            inputs["competitors"].append(stats.competitor_records)
            inputs["node_accesses"].append(stats.index_node_accesses)
        inputs["ticks"].append(results["stream_ticks"])
        inputs["samples"].append(results["sample"].samples)


def _report(outcome: Outcome, times, trace: bool) -> None:
    if not trace:
        # Pooled over the four serial methods: the pinned focals' per-focal
        # totals fall in two clusters with a gap at their median, while the
        # distinct (focal, method) queries spread evenly across it.
        queries = [seconds * 1000.0 for kind in SERIAL_EXACT for seconds in times[kind]]
        outcome.metrics["latency.p50_ms"] = Metric(statistics.median(queries), "ms", len(queries))
        outcome.metrics["latency.tail_ms"] = Metric(quantile(queries, LATENCY_TAIL), "ms", len(queries))
        exact_kinds = SERIAL_EXACT + ("cta_w2",)
        count = sum(len(times[kind]) for kind in exact_kinds)
        wall = sum(sum(times[kind]) for kind in exact_kinds)
        outcome.metrics["throughput.per_s"] = Metric(count / wall, "1/s", count, "higher")
        outcome.details["cold.qps"] = Metric(count / wall, "queries/s", count, "higher")
    for kind, name in (("cta", "cold.cta.p50_s"), ("pcta", "cold.pcta.p50_s"), ("lpcta", "cold.lpcta.p50_s"),
                       ("op_cta", "cold.opcta.p50_s"), ("cta_w2", "cold.cta_w2.p50_s")):
        outcome.details[name] = Metric(statistics.median(times[kind]), "s", len(times[kind]))
    outcome.details["cold.sample.p50_ms"] = Metric(statistics.median(times["sample"]) * 1000.0, "ms", len(times["sample"]))
    outcome.details["stream.ttfr.p50_ms"] = Metric(statistics.median(times["stream"]) * 1000.0, "ms", len(times["stream"]))


def layer_values(outcome: Outcome, spans, rows, counts) -> dict[str, float]:
    """Per-layer numbers of a traced cold-exact run."""
    inputs = outcome.extra["layer_inputs"]
    exact_set = {i for i, s in enumerate(spans) if s.name in {f"op.{kind}" for kind in SERIAL_EXACT}}
    all_ops = [s for s in spans if s.name.startswith("op.")]
    exact_wall = sum(spans[i].duration for i in exact_set)
    lp_in_exact = sum(s.duration for s in spans if s.op in exact_set and s.name.startswith("geometry.lp."))
    finalize = sum(s.duration for s in spans if s.op in exact_set and s.name == "query.finalize")
    calls = sum(inputs["lp_calls"])
    queries = len(inputs["lp_calls"])
    bundles = outcome.extra["bundles"]
    untraced = {focal: seconds for focal, traced, seconds in bundles if not traced}
    ratios = [seconds / untraced[focal] for focal, traced, seconds in bundles if traced and focal in untraced]
    w2 = outcome.extra["w2_pairs"]
    w2_ops = rows.get("op.cta_w2", {}).get("calls", 0)
    return {
        "geometry.lp.calls": mean(inputs["lp_calls"]),
        "geometry.lp.feasibility_calls": mean(inputs["lp_feas"]),
        "geometry.lp.optimize_calls": mean(inputs["lp_opt"]),
        "geometry.lp.constraints_per_call": sum(inputs["lp_constraints"]) / calls if calls else 0.0,
        "geometry.lp.us_per_call": per_call(rows, ("geometry.lp.feasibility", "geometry.lp.optimize")),
        "geometry.lp.share": lp_in_exact / exact_wall if exact_wall else 0.0,
        "geometry.scipy.us_per_call": per_call(rows, ("geometry.scipy.linprog",)),
        "geometry.qhull.ms_per_region": per_call(rows, ("geometry.qhull",), scale=1e3),
        "core.celltree.nodes": mean(inputs["nodes"]),
        "core.celltree.insert_self_us": per_call(rows, ("core.celltree.insert",), "self"),
        "core.bounds.evals": rows.get("core.bounds.evaluate", {}).get("calls", 0) / queries if queries else 0.0,
        "core.bounds.self_us": per_call(rows, ("core.bounds.evaluate",), "self"),
        "core.bounds.prune_ratio": sum(inputs["pruned"]) / max(sum(inputs["nodes"]), 1),
        "core.finalize.share": finalize / exact_wall if exact_wall else 0.0,
        "core.unattributed.share": sum(s.self_time for s in all_ops) / max(sum(s.duration for s in all_ops), 1e-12),
        "index.competitors": mean(inputs["competitors"]),
        "index.node_accesses": mean(inputs["node_accesses"]),
        "engine.prepare.ms": per_call(rows, ("engine.prepare",), scale=1e3),
        "engine.cache.lookup_us": per_call(rows, ("engine.cache.lookup",)),
        "stream.ticks_to_first_region": mean(inputs["ticks"]),
        "stream.advance.ms": per_call(rows, ("stream.advance",), scale=1e3),
        "approx.samples": mean(inputs["samples"]),
        "approx.sample.ms": per_call(rows, ("approx.sample",), scale=1e3),
        "approx.ci_miss_ratio": outcome.extra["ci_miss_ratio"],
        "parallel.pool_spawns": counts.get("parallel.pool_spawns", 0) / w2_ops if w2_ops else 0.0,
        "parallel.overhead_share": statistics.median((b - a) / b for a, b in w2) if w2 else 0.0,
        "parallel.children_after_op": mean(inputs["children_after"]),
        "obs.trace_overhead": statistics.median(ratios) - 1.0 if ratios else 0.0,
    }
