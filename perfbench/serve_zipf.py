"""serve-zipf: two-phase SSE queries against a warm server in its own process.

The serving tier does nearly all the work and the kernel none: set-up warms
every key's approximate and exact answer, so every timed request is an
engine cache hit (~20 us) behind HTTP parsing, admission, the worker-pool
hop and SSE framing.  A kernel change therefore predicts no change here,
and a serving change shows.  The dataset is IND n=1000 with d=2: the
dimensionality only sets the cost of warming the 32 exact answers in
set-up, which runs three times per run (9 s per set-up at d=3, 1.4 s at
d=2 on two cores).

Load: one process, one thread, an open loop with at most two requests in
flight.  Requests fall due on a fixed schedule and each is timed from its
due time, so a request that waits for one of the two slots counts that
wait.  How late the generator woke against its schedule is reported
separately (a late generator measures itself).  The server runs in its own
process so the generator does not share its GIL.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import Engine
from repro.data import independent_dataset
from repro.engine.workload import generate_workload
from repro.serve import ServeClient, ServeConfig, ServeHTTPError

from common import OUT_DIR, Metric, Outcome, Resources, process_cpu_seconds, quantile, timed_setups
from tracing import Recorder

NAME = "serve-zipf"
N, D = 1000, 2
TINY_N = 60
POOL = 16
K_CHOICES = (3, 5)
IN_FLIGHT = 2
FIXED_RATE = 100.0
#: Offered rates of the ladder (serve.max_rps is the highest that passes).
LADDER = (50.0, 100.0, 150.0, 200.0)
#: The bounded p50 and tail are the medians over consecutive windows of
#: WINDOW requests (a second at the fixed rate) of each window's p50 and
#: TAIL percentile: over ten runs the p90 of the whole phase read 3.9-8.3
#: ms, moved by stalls of the shared host lasting a second or two, which a
#: median over windows passes over.
WINDOW = 100
TTFA_BAR_S = 0.050
#: Mean generator lateness may grow by this much from the first to the last
#: quarter of a rung before the rung counts as falling behind.
LAG_GROWTH_S = 0.005
#: TTFA percentile of the bounded tail metric.  p99 (printed as
#: serve.ttfa.p99_ms) moved 2.4-fold between runs of one seed on two cores.
TAIL = 0.9


class _Connections:
    """Counts TCP connections the client opens, at the name it calls."""

    def __init__(self) -> None:
        self.opened = 0
        self._original = asyncio.open_connection

    def __enter__(self) -> "_Connections":
        original = self._original

        async def counted(*args, **kwargs):
            self.opened += 1
            return await original(*args, **kwargs)

        asyncio.open_connection = counted
        return self

    def __exit__(self, *exc) -> None:
        asyncio.open_connection = self._original


async def _request(client: ServeClient, query, due: float, slots: asyncio.Semaphore) -> dict:
    now = time.perf_counter()
    if due > now:
        await asyncio.sleep(due - now)
    record = {"key": (tuple(query.focal), query.k), "lag": time.perf_counter() - due}
    async with slots:
        try:
            async for name, payload in client.query_events(
                {"focal": list(query.focal), "k": query.k, "tenant": query.tenant}
            ):
                if name == "approx" and "ttfa" not in record:
                    record["ttfa"] = time.perf_counter() - due
                    record["approx"] = payload
                elif name == "exact":
                    record["exact"] = payload
                else:
                    record["error"] = f"{name}: {payload}"
        except ServeHTTPError as error:
            record["error"] = f"rejected {error.status}"
        except OSError as error:
            record["error"] = f"connection: {error!r}"
    record["ok"] = "error" not in record and "approx" in record and "exact" in record
    return record


async def _phase(client: ServeClient, queries: list, rate: float) -> tuple[list[dict], float]:
    slots = asyncio.Semaphore(IN_FLIGHT)
    start = time.perf_counter() + 0.01
    tasks = [asyncio.ensure_future(_request(client, query, start + index / rate, slots))
             for index, query in enumerate(queries)]
    records = await asyncio.gather(*tasks)
    return list(records), time.perf_counter() - start


async def _warm(client: ServeClient, keys: list) -> dict:
    """Query every key once, two at a time, and wait for its exact answer."""
    slots = asyncio.Semaphore(IN_FLIGHT)
    now = time.perf_counter()
    records = await asyncio.gather(*(_request(client, query, now, slots) for query in keys))
    return {record["key"]: record for record in records}


class _Server:
    """The server process: spawned, commanded over stdin, always reaped."""

    def __init__(self, config: dict) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_server.py")), json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("the server process exited before listening")
        self.port = json.loads(line)["port"]

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        self.send("stop")
        self.process.stdin.close()
        line = self.process.stdout.readline()
        self.process.wait(timeout=30)
        return json.loads(line)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def _ttfa_ms(records: list[dict]) -> list[float]:
    return [record["ttfa"] * 1000.0 for record in records if "ttfa" in record]


def _rung_passes(records: list[dict]) -> tuple[bool, dict]:
    """p99 TTFA within the bar, no failed request, generator lateness not growing."""
    ttfa = _ttfa_ms(records)
    failed = sum(not record["ok"] for record in records)
    quarter = max(1, len(records) // 4)
    early = statistics.mean(record["lag"] for record in records[:quarter])
    late = statistics.mean(record["lag"] for record in records[-quarter:])
    p99 = quantile(ttfa, 0.99) if ttfa else math.inf
    growing = late - early > LAG_GROWTH_S
    return (p99 <= TTFA_BAR_S * 1000.0 and not failed and not growing), {
        "p50_ms": statistics.median(ttfa) if ttfa else math.inf, "p99_ms": p99,
        "failed": failed, "lag_early_ms": early * 1e3, "lag_late_ms": late * 1e3}


def run(seed: int, seconds: float, trace: bool, tiny: bool, outcome: Outcome, recorder: Recorder | None,
        resources: Resources) -> None:
    data = independent_dataset(TINY_N if tiny else N, D, seed=seed)
    fixed_count = WINDOW * max(10, round(FIXED_RATE * seconds * 0.7 / WINDOW)) if not tiny else 40
    rung_seconds = seconds * 0.3 / len(LADDER)
    queries = generate_workload(data, fixed_count, zipf_s=1.2, tenants=8, k_choices=K_CHOICES,
                                focal_pool=POOL, seed=seed).queries
    unique = list({(tuple(query.focal), query.k): query for query in queries}.values())
    # The generator and the server each get a CPU of their own, so neither
    # migrates onto the other's core: over five interleaved pairs of runs,
    # unpinned TTFA read about 9% higher and its p50 spread over seeds was
    # 0.11 against 0.08.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:2] if len(allowed) >= 2 else [None, None]
    config = {"n": data.cardinality, "d": D, "seed": seed, "parent": os.getpid(), "cpu": cpus[1],
              "trace_file": str(OUT_DIR / f"serve-zipf-seed{seed}-trace1.server.trace.json") if trace else None}

    servers: list[_Server] = []
    warmed: dict = {}

    def setup():
        while servers:
            previous = servers.pop()
            previous.stop()
            previous.close()
        server = _Server(config)
        servers.append(server)
        resources.ports.append(server.port)
        warmed.clear()
        warmed.update(asyncio.run(_warm(ServeClient("127.0.0.1", server.port), unique)))
        return server

    if cpus[0] is not None:
        os.sched_setaffinity(0, {cpus[0]})
    try:
        server, setups = timed_setups(setup, 1 if tiny else 3)
        outcome.extra["setup_samples"] = setups
        client = ServeClient("127.0.0.1", server.port)
        with _Connections() as connections:
            server.send("mark")
            if trace:
                half = len(queries) // 2
                plain, _ = asyncio.run(_phase(client, queries[:half], FIXED_RATE))
                server.send("trace on")
                traced, _ = asyncio.run(_phase(client, queries[half:], FIXED_RATE))
                server.send("trace off")
                fixed = plain + traced
            else:
                busy = process_cpu_seconds(server.process.pid)
                fixed, fixed_wall = asyncio.run(_phase(client, queries, FIXED_RATE))
                busy = process_cpu_seconds(server.process.pid) - busy
            sent = len(fixed)
            opened = connections.opened
            served = list(fixed)
            rungs = []
            if not trace:
                for rate in LADDER:
                    count = max(10, int(rate * rung_seconds))
                    batch = [queries[index % len(queries)] for index in range(count)]
                    records, wall = asyncio.run(_phase(client, batch, rate))
                    passed, row = _rung_passes(records)
                    rungs.append({"rate": rate, "passed": passed, "count": count, "achieved_rps": count / wall, **row})
                    served += records
        summary = server.stop()
    finally:
        for server in servers:
            server.close()
        os.sched_setaffinity(0, allowed)

    for record in served:
        outcome.op(record["ok"])
    outcome.check("serve.fixed_rate_nothing_failed", all(record["ok"] for record in fixed),
                  f"{sum(not record['ok'] for record in fixed)} of {len(fixed)} failed")
    _check_answers(data, warmed, served, outcome)
    outcome.extra["server_peak_rss_mb"] = summary["peak_rss_mb"]
    outcome.extra["rungs"] = rungs
    ttfa = _ttfa_ms(fixed)
    lag = [record["lag"] * 1000.0 for record in fixed]
    if not trace:
        passing = [rung for rung in rungs if rung["passed"]]
        max_rps = max((rung["rate"] for rung in passing), default=0.0)
        windows = [ttfa[start:start + WINDOW] for start in range(0, len(ttfa), WINDOW)]
        p50 = statistics.median(quantile(window, 0.5) for window in windows)
        tail = statistics.median(quantile(window, TAIL) for window in windows)
        outcome.metrics["latency.p50_ms"] = Metric(p50, "ms", len(ttfa))
        outcome.metrics["latency.tail_ms"] = Metric(tail, "ms", len(ttfa))
        # Capacity: requests answered per second of the server's CPU time.
        # Goodput at the offered rate equals the rate until the server falls
        # behind, and a burst's completion rate sat near 400 or near 550
        # req/s from run to run on two cores.
        answered = sum(record["ok"] for record in fixed)
        outcome.metrics["throughput.per_s"] = Metric(answered / busy, "1/s", answered, "higher")
        outcome.details["serve.goodput_rps"] = Metric(answered / fixed_wall, "req/s", len(fixed), "higher")
        outcome.details["serve.ttfa.p90_ms"] = Metric(quantile(ttfa, TAIL), "ms", len(ttfa))
        outcome.details["serve.ttfa.p50_ms"] = Metric(statistics.median(ttfa), "ms", len(ttfa))
        outcome.details["serve.ttfa.p99_ms"] = Metric(quantile(ttfa, 0.99), "ms", len(ttfa))
        outcome.details["serve.max_rps"] = Metric(max_rps, "req/s", len(rungs), "higher")
        for rung in rungs:
            print(f"rung {rung['rate']:6.0f} req/s: achieved {rung['achieved_rps']:7.1f} "
                  f"p50 {rung['p50_ms']:7.2f} ms p99 {rung['p99_ms']:7.2f} ms failed {rung['failed']} "
                  f"lag {rung['lag_early_ms']:.2f}/{rung['lag_late_ms']:.2f} ms {'pass' if rung['passed'] else 'FAIL'}")
        return

    spans = summary["spans"]
    half = len(queries) // 2
    plain_ttfa, traced_ttfa = _ttfa_ms(fixed[:half]), _ttfa_ms(fixed[half:])

    def per_call_us(name: str) -> float:
        row = spans.get(name)
        return row["total"] / row["calls"] * 1e6 if row else 0.0

    layers = ("serve.parse", "serve.admit", "serve.engine", "serve.sse")
    attributed = sum(per_call_us(name) for name in layers)
    ttfa_traced_us = statistics.mean(traced_ttfa) * 1000.0
    # One of each call lies on a request's path to its first event; the
    # rest of TTFA is the event loop, the worker-pool hop and TCP set-up.
    requests = len(traced_ttfa)
    rows = {name: {"self_s": per_call_us(name) * 1e-6 * requests, "calls": requests,
                   "share": per_call_us(name) / ttfa_traced_us} for name in layers}
    rows["unattributed"] = {"self_s": (ttfa_traced_us - attributed) * 1e-6 * requests, "calls": requests,
                            "share": 1.0 - attributed / ttfa_traced_us}
    rows["wall"] = {"self_s": ttfa_traced_us * 1e-6 * requests, "calls": requests, "share": 1.0}
    outcome.extra["attribution"] = {"ttfa": rows}
    outcome.extra["layer_samples"] = requests
    hits, misses = summary["cache_hits"], summary["cache_misses"]
    outcome.extra["serve_layers"] = {
        "serve.parse_us": per_call_us("serve.parse"),
        "serve.admit_us": per_call_us("serve.admit"),
        "serve.engine_us": per_call_us("serve.engine"),
        "serve.sse_us": per_call_us("serve.sse"),
        "serve.unattributed.share": 1.0 - attributed / ttfa_traced_us,
        "serve.connections_per_request": opened / sent,
        "serve.failed_ratio": sum(not record["ok"] for record in fixed) / sent,
        "serve.generator_lag.p99_ms": quantile(lag, 0.99),
        "engine.cache.lookup_us": per_call_us("engine.cache.lookup"),
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "obs.trace_overhead": statistics.median(traced_ttfa) / statistics.median(plain_ttfa) - 1.0,
    }
    outcome.extra["server_trace"] = spans


def _check_answers(data, warmed: dict, served: list[dict], outcome: Outcome) -> None:
    """Exact events equal a local engine's answer; approx intervals are honest."""
    engine = Engine(data, k_max=8)
    reference = {}
    for key in warmed:
        result = engine.query(list(key[0]), key[1], method="pcta")
        reference[key] = (result.impact_probability(), len(result))
    for record in list(warmed.values()) + served:
        exact = record.get("exact")
        if exact is None:
            continue
        expected = reference.get(record["key"])
        outcome.check("serve.exact_equals_engine", expected == (exact["impact"], exact["regions"]),
                      f"{record['key']}: {exact} vs {expected}")
    misses = sum(not (record["approx"]["ci_lower"] <= reference[key][0] <= record["approx"]["ci_upper"])
                 for key, record in warmed.items() if "approx" in record)
    total = len(warmed)
    delta = ServeConfig().approx.delta
    allowance = delta * total + 3.0 * math.sqrt(total * delta * (1.0 - delta))
    outcome.check("serve.honesty_within_allowance", misses <= allowance,
                  f"{misses} of {total} unique keys missed (allowance {allowance:.2f})")


def layer_values(outcome: Outcome, spans, rows, counts) -> dict[str, float]:
    """Per-layer numbers of a traced serve-zipf run (measured in the server process)."""
    return dict(outcome.extra["serve_layers"])
