"""Serving-tier load benchmark: Zipf replay against the in-process HTTP server.

Replays a tenant-tagged, Zipf-skewed workload (the shape
:func:`repro.engine.workload.generate_workload` models) against a real
:class:`repro.serve.ServeServer` bound to a loopback socket, through the
real :class:`repro.serve.ServeClient` — TCP, HTTP parsing and SSE framing
all included in every measured latency.  Three phases:

* **warmup** — each unique ``(focal, k)`` is queried once and its background
  exact refinement awaited, so the steady-state phase measures the serving
  tier (admission, scheduling, SSE) over a warm engine rather than cold
  exact geometry;
* **steady-state replay** — the trace is replayed open-loop at a target QPS;
  every request times its **TTFA** (send to first ``approx`` SSE event) and
  its refinement push (send to the ``exact`` event).  Reported: p50/p99 of
  both, achieved QPS, admission-rejection rates, and the TCP connections
  the client opened per request (it keeps connections alive, so this
  stays far below one);
* **shedding probe** — a deliberately tiny-budget service is slammed with a
  burst to demonstrate (and count) ``over_budget`` / ``queue_full``
  rejections.

Correctness invariants enforced in *every* mode: each served approx answer
is later refined to exact on the same connection, and the two-phase honesty
contract holds statistically — across the trace's *unique* queries (the
warmup pass, one honesty check per key), the fraction of exact impacts
falling outside their approximate confidence interval stays within ``delta``
plus a three-sigma binomial allowance.  Zero violations would be the wrong
bar: a ``(1 - delta)`` interval legitimately misses with probability up to
``delta`` per query, and the Zipf replay re-counts that same deterministic
miss on every repeat of a hot key.  Connection reuse is checked in every
mode too: at most ``MAX_CONNECTIONS_PER_REQUEST`` new connections per
replayed request.  The documented latency
bar — **p99 TTFA <= 50 ms at an offered rate of >= 500 QPS** on the
10k-record, 4-attribute dataset — is enforced at full scale only
(``--tiny``, the CI smoke mode, checks the invariants plus a generous
fallback bar).

Run directly (``PYTHONPATH=src python benchmarks/bench_serve_load.py``),
with ``--tiny`` for the smoke configuration, or through pytest.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import time
from pathlib import Path

import numpy as np

from repro import ApproxSpec, Engine
from repro.data import independent_dataset
from repro.engine.workload import generate_workload
from repro.serve import KSPRService, ServeClient, ServeConfig, ServeHTTPError, ServeServer

RESULTS_DIR = Path(__file__).parent / "results"

#: The ISSUE-mandated full-scale shape and bar.
CARDINALITY = 10_000
DIMENSIONALITY = 4
REQUESTS = 1_500
TARGET_QPS = 500.0
TTFA_P99_BAR_SECONDS = 0.050

SEED = 907

#: Connection reuse bar: new TCP connections per replayed request.
MAX_CONNECTIONS_PER_REQUEST = 0.1


class _ConnectionCounter:
    """Counts the TCP connections the client opens, at the name it calls."""

    def __init__(self) -> None:
        self.opened = 0
        self._original = asyncio.open_connection

    def __enter__(self) -> "_ConnectionCounter":
        original = self._original

        async def counted(*args, **kwargs):
            self.opened += 1
            return await original(*args, **kwargs)

        asyncio.open_connection = counted
        return self

    def __exit__(self, *exc) -> None:
        asyncio.open_connection = self._original


def _percentiles(samples: list[float]) -> dict:
    values = np.asarray(samples, dtype=float)
    return {
        "p50_ms": float(np.percentile(values, 50) * 1000.0),
        "p99_ms": float(np.percentile(values, 99) * 1000.0),
        "max_ms": float(values.max() * 1000.0),
    }


async def _replay(
    client: ServeClient, workload, qps: float
) -> tuple[list[dict], float]:
    """Open-loop replay: request ``i`` is sent at ``i / qps`` seconds."""
    start = time.perf_counter()

    async def one(index: int, query) -> dict:
        delay = start + index / qps - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record: dict = {"tenant": query.tenant}
        sent = time.perf_counter()
        try:
            async for name, payload in client.query_events(
                {"focal": list(query.focal), "k": query.k, "tenant": query.tenant}
            ):
                if name == "approx":
                    record["ttfa"] = time.perf_counter() - sent
                elif name == "exact":
                    record["refine"] = time.perf_counter() - sent
                elif name == "error":
                    record["refine_error"] = payload.get("reason")
        except ServeHTTPError as error:
            record["rejected"] = error.payload.get("reason", str(error.status))
        return record

    records = list(
        await asyncio.gather(*(one(i, q) for i, q in enumerate(workload)))
    )
    return records, time.perf_counter() - start


async def _measure_load(
    dataset, workload, *, worker_threads: int, epsilon: float, delta: float
) -> dict:
    engine = Engine(dataset, k_max=8)
    service = KSPRService(
        engine,
        ServeConfig(
            approx=ApproxSpec(epsilon=epsilon, delta=delta, seed=SEED),
            worker_threads=worker_threads,
            max_concurrent=4096,
            tenant_burst=1e9,
            tenant_rate=1e9,
        ),
    )
    async with ServeServer(service) as server:
        client = ServeClient(*server.address)

        # Warmup: touch every unique (focal, k) once, awaiting its exact
        # refinement, so steady state measures serving over a warm engine.
        unique = {(query.focal, query.k): query for query in workload}
        warm_started = time.perf_counter()
        for query in unique.values():
            async for _name, _payload in client.query_events(
                {"focal": list(query.focal), "k": query.k}
            ):
                pass
        warm_seconds = time.perf_counter() - warm_started
        assert await service.quiesce(timeout=600.0)

        # Honesty is checked exactly once per unique key during warmup, which
        # is where the statistical contract is i.i.d.: each (1 - delta) CI
        # may miss its exact impact with probability <= delta.  Bound the
        # miss count at delta * n plus three binomial sigmas.
        checked = service.registry.counter("serve.honesty.checked.total").value
        violations = service.registry.counter("serve.honesty.violations.total").value
        allowed = delta * checked + 3.0 * math.sqrt(checked * delta * (1.0 - delta))
        assert violations <= allowed, (
            f"honesty coverage broken: {violations:.0f} of {checked:.0f} unique "
            f"queries missed their CI (statistical allowance {allowed:.1f})"
        )
        warmup = {
            "unique_queries": len(unique),
            "seconds": warm_seconds,
            "honesty": {
                "checked": checked,
                "violations": violations,
                "allowed": allowed,
            },
        }

        # Full scale replays at the documented 500 QPS; smaller traces offer
        # a rate that still overlaps requests heavily.
        qps = TARGET_QPS if len(workload) >= REQUESTS else max(
            100.0, len(workload) * 2.0
        )
        with _ConnectionCounter() as connections:
            records, elapsed = await _replay(client, workload, qps)
        assert await service.quiesce(timeout=600.0)
        await client.aclose()

        served = [record for record in records if "ttfa" in record]
        rejected = [record for record in records if "rejected" in record]
        refined = [record for record in served if "refine" in record]

        # Invariant: every served approx answer was refined to exact on the
        # same connection (no request left half-answered).
        assert len(refined) == len(served), (
            f"{len(served) - len(refined)} served answers never saw their exact event"
        )
        # Steady-state honesty counters re-score the same deterministic
        # (approx, exact) pair on every repeat of a key, so they are reported
        # as raw totals; the statistical contract was enforced above, where
        # each unique query was checked exactly once.
        steady_checked = (
            service.registry.counter("serve.honesty.checked.total").value - checked
        )
        steady_violations = (
            service.registry.counter("serve.honesty.violations.total").value - violations
        )

        rejection_reasons: dict[str, int] = {}
        for record in rejected:
            reason = record["rejected"]
            rejection_reasons[reason] = rejection_reasons.get(reason, 0) + 1

        return {
            "warmup": warmup,
            "steady": {
                "requests": len(records),
                "served": len(served),
                "rejected": len(rejected),
                "rejection_reasons": rejection_reasons,
                "rejection_rate": len(rejected) / len(records),
                "offered_qps": qps,
                "achieved_qps": len(records) / elapsed,
                "elapsed_seconds": elapsed,
                "ttfa": _percentiles([record["ttfa"] for record in served]),
                "refine": _percentiles([record["refine"] for record in refined]),
                "refined_fraction": len(refined) / max(1, len(served)),
                "connections_per_request": connections.opened / len(records),
                "honesty_checked": steady_checked,
                "honesty_violations": steady_violations,
            },
        }


async def _measure_shedding(dataset) -> dict:
    """Slam a tiny-budget service to demonstrate counted load shedding."""
    engine = Engine(dataset, k_max=8)
    service = KSPRService(
        engine,
        ServeConfig(
            approx=ApproxSpec(epsilon=0.2, delta=0.2, seed=SEED),
            worker_threads=2,
            max_concurrent=2,
            tenant_burst=4.0,
            tenant_rate=0.5,
        ),
    )
    focal = [float(value) for value in dataset.values[0]]
    burst = 24
    async with ServeServer(service) as server:
        client = ServeClient(*server.address)
        outcomes = await asyncio.gather(
            *(
                client.query({"focal": focal, "k": 2, "tenant": "burst"})
                for _ in range(burst)
            ),
            return_exceptions=True,
        )
        await service.quiesce(timeout=60.0)
    reasons: dict[str, int] = {}
    served = 0
    for outcome in outcomes:
        if isinstance(outcome, ServeHTTPError):
            reason = outcome.payload.get("reason", str(outcome.status))
            reasons[reason] = reasons.get(reason, 0) + 1
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            served += 1
    info = service.admission.info()
    assert sum(reasons.values()) > 0, "the burst must trigger load shedding"
    assert served + sum(reasons.values()) == burst
    assert info["active"] == 0.0
    return {
        "burst": burst,
        "served": served,
        "rejections": reasons,
        "admission": {key: info[key] for key in sorted(info)},
    }


def run_benchmark(
    *,
    cardinality: int = CARDINALITY,
    dimensionality: int = DIMENSIONALITY,
    requests: int = REQUESTS,
    focal_pool: int = 6,
    k_choices: tuple[int, ...] = (2, 3),
    tenants: int = 8,
    worker_threads: int = 4,
    epsilon: float = 0.1,
    delta: float = 0.1,
) -> dict:
    """Run warmup + steady-state replay + shedding probe; return the payload."""
    dataset = independent_dataset(cardinality, dimensionality, seed=SEED)
    workload = generate_workload(
        dataset,
        requests,
        zipf_s=1.2,
        focal_pool=focal_pool,
        k_choices=list(k_choices),
        tenants=tenants,
        seed=SEED,
    )
    load = asyncio.run(
        _measure_load(
            dataset, workload, worker_threads=worker_threads,
            epsilon=epsilon, delta=delta,
        )
    )
    shedding = asyncio.run(_measure_shedding(dataset))
    return {
        "benchmark": "serve_load",
        "config": {
            "cardinality": cardinality,
            "dimensionality": dimensionality,
            "requests": requests,
            "focal_pool": focal_pool,
            "k_choices": list(k_choices),
            "tenants": tenants,
            "worker_threads": worker_threads,
            "epsilon": epsilon,
            "delta": delta,
            "ttfa_p99_bar_seconds": TTFA_P99_BAR_SECONDS,
        },
        "warmup": load["warmup"],
        "steady": load["steady"],
        "shedding": shedding,
    }


def emit(payload: dict) -> Path:
    """Archive the timings JSON next to the other benchmark artefacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "serve_load.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def _tiny_kwargs() -> dict:
    """A seconds-long smoke configuration (invariants, not latency numbers)."""
    return {
        "cardinality": 400,
        "dimensionality": 3,
        "requests": 60,
        "focal_pool": 4,
        "k_choices": (2,),
        "tenants": 4,
        "worker_threads": 2,
        "epsilon": 0.15,
        "delta": 0.15,
    }


def test_serve_load_tiny() -> None:
    """Smoke: the serving invariants hold under a small replayed load."""
    payload = run_benchmark(**_tiny_kwargs())
    steady = payload["steady"]
    assert steady["refined_fraction"] == 1.0
    honesty = payload["warmup"]["honesty"]
    assert honesty["violations"] <= honesty["allowed"]
    assert steady["rejection_rate"] == 0.0, "the generous-budget replay must not shed"
    # Generous smoke bar: approx answers over a warm engine stay sub-second.
    assert steady["ttfa"]["p99_ms"] <= 1_000.0
    assert steady["connections_per_request"] <= MAX_CONNECTIONS_PER_REQUEST
    assert sum(payload["shedding"]["rejections"].values()) > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke run")
    arguments = parser.parse_args(argv)

    payload = run_benchmark(**(_tiny_kwargs() if arguments.tiny else {}))
    target = emit(payload)
    steady = payload["steady"]
    print(json.dumps(steady, indent=2))
    print(
        f"\nserved {steady['served']}/{steady['requests']} at "
        f"{steady['achieved_qps']:.0f} QPS achieved "
        f"({steady['offered_qps']:.0f} offered): TTFA p50 "
        f"{steady['ttfa']['p50_ms']:.2f} ms / p99 {steady['ttfa']['p99_ms']:.2f} ms, "
        f"refinement p99 {steady['refine']['p99_ms']:.2f} ms, "
        f"{steady['connections_per_request']:.3f} connections per request; "
        f"honesty {payload['warmup']['honesty']['violations']:.0f}/"
        f"{payload['warmup']['honesty']['checked']:.0f} unique CI misses "
        f"(allowance {payload['warmup']['honesty']['allowed']:.1f}); "
        f"shedding probe rejected {sum(payload['shedding']['rejections'].values())}; "
        f"JSON written to {target}"
    )
    assert steady["connections_per_request"] <= MAX_CONNECTIONS_PER_REQUEST, (
        f"{steady['connections_per_request']:.3f} new connections per request: "
        "the client stopped reusing connections"
    )
    if not arguments.tiny:
        assert steady["offered_qps"] >= TARGET_QPS
        assert steady["ttfa"]["p99_ms"] <= TTFA_P99_BAR_SECONDS * 1000.0, (
            "acceptance bar: p99 time-to-first-answer must stay within "
            f"{TTFA_P99_BAR_SECONDS * 1000:.0f} ms at {TARGET_QPS:.0f} QPS"
        )
        assert steady["refined_fraction"] == 1.0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
