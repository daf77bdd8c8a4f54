"""Metric catalogue and the per-layer numbers of a traced run.

``END_TO_END`` and ``PER_LAYER`` declare every metric the result line's JSON
carries, with its unit and direction; ``BENCHMARK.json`` repeats them and
the self-test holds the two equal.  Every workload prints every per-layer
metric: a layer that does no work in a workload reports 0 there, which is
the prediction for that workload.  Each metric's third field names the
workloads that measure it (the self-test holds those non-zero).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from common import Metric, Outcome, write_json
from tracing import Recorder, attribution, build_forest, by_name, write_chrome_trace

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "latency.p50_ms": ("ms", "lower"),
    "latency.tail_ms": ("ms", "lower"),
    "throughput.per_s": ("1/s", "higher"),
}

_C, _S, _L = "cold-exact", "serve-zipf", "live-churn"

#: name -> (unit, better, workloads that measure it)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "geometry.lp.calls": ("count", "lower", (_C, _L)),
    "geometry.lp.feasibility_calls": ("count", "lower", (_C,)),
    "geometry.lp.optimize_calls": ("count", "lower", (_C,)),
    "geometry.lp.constraints_per_call": ("count", "lower", (_C,)),
    "geometry.lp.us_per_call": ("us", "lower", (_C, _L)),
    "geometry.lp.share": ("ratio", "lower", (_C,)),
    "geometry.scipy.us_per_call": ("us", "lower", (_C, _L)),
    "geometry.qhull.ms_per_region": ("ms", "lower", (_C,)),
    "core.celltree.nodes": ("count", "lower", (_C,)),
    "core.celltree.insert_self_us": ("us", "lower", (_C,)),
    "core.bounds.evals": ("count", "lower", (_C,)),
    "core.bounds.self_us": ("us", "lower", (_C,)),
    "core.bounds.prune_ratio": ("ratio", "higher", (_C,)),
    "core.finalize.share": ("ratio", "lower", (_C,)),
    "core.unattributed.share": ("ratio", "lower", (_C,)),
    "index.competitors": ("count", "lower", (_C,)),
    "index.node_accesses": ("count", "lower", (_C,)),
    "index.skyband.update_us": ("us", "lower", (_L,)),
    "index.rtree.update_us": ("us", "lower", (_L,)),
    "engine.prepare.ms": ("ms", "lower", (_C,)),
    "engine.cache.lookup_us": ("us", "lower", (_C, _S, _L)),
    "engine.cache.hit_ratio": ("ratio", "higher", (_S, _L)),
    "engine.invalidated_per_batch": ("count", "lower", (_L,)),
    "engine.retained_per_batch": ("count", "higher", (_L,)),
    "engine.read_recomputes": ("count", "lower", (_L,)),
    "engine.apply.self_ms": ("ms", "lower", (_L,)),
    "stream.ticks_to_first_region": ("count", "lower", (_C,)),
    "stream.advance.ms": ("ms", "lower", (_C,)),
    "approx.samples": ("count", "lower", (_C,)),
    "approx.sample.ms": ("ms", "lower", (_C,)),
    "approx.ci_miss_ratio": ("ratio", "lower", (_C,)),
    "parallel.pool_spawns": ("count", "lower", (_C,)),
    "parallel.overhead_share": ("ratio", "lower", (_C,)),
    "parallel.children_after_op": ("count", "lower", (_C,)),
    "live.classify_us": ("us", "lower", (_L,)),
    "live.damaged_share": ("ratio", "lower", (_L,)),
    "live.repairs_per_damaged_batch": ("count", "lower", (_L,)),
    "live.repair.ms": ("ms", "lower", (_L,)),
    "live.repair.useful_ratio": ("ratio", "higher", (_L,)),
    "snapshot.commit.ms": ("ms", "lower", (_L,)),
    "snapshot.bytes_per_commit": ("bytes", "lower", (_L,)),
    "snapshot.restore.ms": ("ms", "lower", (_L,)),
    "serve.parse_us": ("us", "lower", (_S,)),
    "serve.admit_us": ("us", "lower", (_S,)),
    "serve.engine_us": ("us", "lower", (_S,)),
    "serve.sse_us": ("us", "lower", (_S,)),
    "serve.unattributed.share": ("ratio", "lower", (_S,)),
    "serve.connections_per_request": ("count", "lower", (_S,)),
    "serve.failed_ratio": ("ratio", "lower", (_S,)),
    "serve.generator_lag.p99_ms": ("ms", "lower", (_S,)),
    "obs.trace_overhead": ("ratio", "lower", (_C, _S, _L)),
}

#: Metrics that are legitimately 0 in a healthy run of their owner.
MAY_BE_ZERO = {
    "approx.ci_miss_ratio", "parallel.children_after_op", "core.bounds.prune_ratio",
    "live.repair.useful_ratio", "serve.failed_ratio", "obs.trace_overhead",
    "engine.read_recomputes", "serve.generator_lag.p99_ms", "core.unattributed.share",
    "serve.unattributed.share",
}


def per_layer(workload: Any, outcome: Outcome, recorder: Recorder, out: Path) -> dict[str, Metric]:
    """Compute every per-layer metric; write the chrome trace and the attribution table.

    ``workload`` is the workload module; its ``layer_values`` turns the
    run's spans and recorded counts into the metrics it owns.
    """
    spans = build_forest(recorder.spans)
    rows = by_name(spans)
    values = workload.layer_values(outcome, spans, rows, recorder.counts)
    table = outcome.extra.get("attribution") or attribution(spans)
    write_chrome_trace(spans, out.with_suffix(".trace.json"))
    results = out.with_name(out.name + ".layers.json")
    write_json(results, {"workload": workload.NAME, "layers": values, "spans": rows, "attribution": table,
                         **({"server": outcome.extra["server_trace"]} if "server_trace" in outcome.extra else {})})
    import table as table_module

    out.with_name(out.name + ".table.md").write_text(table_module.render(results))
    samples = outcome.extra.get("layer_samples") or len([s for s in spans if s.name.startswith("op.")])
    metrics = {}
    for name, (unit, better, _owners) in PER_LAYER.items():
        metrics[name] = Metric(float(values.get(name, 0.0)), unit, samples, better)
    return metrics


def jsonable(value: Any) -> Any:
    """Plain-JSON copy of the run's extra data (tuples to lists, numpy to float)."""
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value
