"""Admission control, request parsing, deadline propagation, HTTP surface.

Four layers, bottom-up:

* :class:`~repro.serve.TokenBucket` and
  :class:`~repro.serve.AdmissionController` under an injected fake clock —
  refill arithmetic, ``retry_after`` hints, queue caps, expired-deadline
  rejection and exactly-once checkout release are all deterministic;
* :func:`~repro.serve.parse_request` — structural validation, and the
  relative-``deadline_ms``-to-absolute-instant conversion;
* **deadline propagation** — a zero/expired deadline is rejected *at
  admission* (engine query counters untouched), while the same absolute
  deadline handed to the engine directly truncates the stream into a
  checkpoint, and :class:`~repro.stream.StreamBudget` min-combines relative
  and absolute deadlines;
* the HTTP front-end end-to-end on a real socket (port 0): routing, error
  mapping (400/404/405/408/429), Prometheus metrics, and over-the-wire SSE
  ordering for both the two-phase and anytime endpoints.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro import ApproxSpec, Engine
from repro.data import independent_dataset
from repro.exceptions import InvalidQueryError
from repro.index.rtree import AggregateRTree
from repro.index.skyline import skyline
from repro.serve import (
    AdmissionController,
    AdmissionError,
    BadRequest,
    KSPRService,
    ServeClient,
    ServeConfig,
    ServeHTTPError,
    ServeRequest,
    ServeServer,
    TokenBucket,
    parse_request,
)
from repro.stream.anytime import StreamBudget


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# token bucket
# --------------------------------------------------------------------- #
def test_token_bucket_refill_and_retry_after():
    clock = FakeClock()
    bucket = TokenBucket(capacity=2.0, refill_rate=1.0, clock=clock)
    assert bucket.try_take(1.0) is None
    assert bucket.try_take(1.0) is None
    assert bucket.try_take(1.0) == pytest.approx(1.0)  # empty: 1s to afford 1 token
    clock.advance(0.25)
    assert bucket.try_take(1.0) == pytest.approx(0.75)
    clock.advance(0.75)
    assert bucket.try_take(1.0) is None
    # Refill never exceeds capacity.
    clock.advance(1000.0)
    assert bucket.tokens() == pytest.approx(2.0)
    bucket.refund(50.0)
    assert bucket.tokens() == pytest.approx(2.0)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(InvalidQueryError):
        TokenBucket(capacity=0.0, refill_rate=1.0)
    with pytest.raises(InvalidQueryError):
        TokenBucket(capacity=1.0, refill_rate=0.0)


# --------------------------------------------------------------------- #
# admission controller
# --------------------------------------------------------------------- #
def test_admission_queue_full_and_release():
    clock = FakeClock()
    controller = AdmissionController(
        max_concurrent=2, tenant_burst=10.0, tenant_rate=10.0, clock=clock
    )
    first = controller.admit("a")
    second = controller.admit("b")
    with pytest.raises(AdmissionError) as rejected:
        controller.admit("c")
    assert rejected.value.reason == "queue_full" and rejected.value.status == 503
    first.release()
    first.release()  # idempotent
    third = controller.admit("c")
    assert controller.active == 2
    second.release()
    third.release()
    assert controller.active == 0
    assert controller.counters["admitted"] == 3
    assert controller.counters["released"] == 3
    assert controller.counters["rejected.queue_full"] == 1


def test_admission_over_budget_with_retry_after():
    clock = FakeClock()
    controller = AdmissionController(
        max_concurrent=16, tenant_burst=1.0, tenant_rate=2.0, clock=clock
    )
    controller.admit("t").release()
    with pytest.raises(AdmissionError) as rejected:
        controller.admit("t")
    assert rejected.value.reason == "over_budget" and rejected.value.status == 429
    assert rejected.value.retry_after == pytest.approx(0.5)  # 1 token at 2/s
    clock.advance(0.5)
    controller.admit("t").release()
    # Budgets are per tenant: an unrelated tenant is unaffected.
    controller.admit("other").release()
    # Anonymous requests share one bucket.
    anonymous = controller.bucket(None)
    assert controller.bucket(None) is anonymous


def test_admission_tenant_overrides_and_deadline():
    clock = FakeClock()
    controller = AdmissionController(
        max_concurrent=16,
        tenant_burst=1.0,
        tenant_rate=1.0,
        tenant_overrides={"vip": (100.0, 100.0)},
        clock=clock,
    )
    assert controller.bucket("vip").capacity == 100.0
    with pytest.raises(AdmissionError) as rejected:
        controller.admit("vip", deadline_at=clock() - 0.001)
    assert rejected.value.reason == "deadline_expired" and rejected.value.status == 408
    with pytest.raises(AdmissionError):
        controller.admit("vip", deadline_at=clock())  # exactly-now counts as expired
    assert controller.counters["rejected.deadline_expired"] == 2
    # A rejected request never drained the bucket.
    assert controller.bucket("vip").tokens() == pytest.approx(100.0)
    # Checkouts work as context managers.
    with controller.admit("vip", deadline_at=clock() + 1.0) as checkout:
        assert controller.active == 1 and not checkout.released
    assert controller.active == 0 and checkout.released
    assert controller.info()["tenants"] == 1.0  # only "vip" ever reached a bucket


# --------------------------------------------------------------------- #
# request parsing
# --------------------------------------------------------------------- #
def test_parse_request_happy_path_converts_relative_deadline():
    request = parse_request(
        {
            "focal": [0.5, 0.25],
            "k": 3,
            "tenant": "acme",
            "method": "pcta",
            "approx": {"epsilon": 0.1, "delta": 0.1},
            "deadline_ms": 250,
            "max_batches": 4,
            "cost": 2.5,
        },
        now=100.0,
    )
    assert np.allclose(request.focal, [0.5, 0.25])
    assert request.k == 3 and request.tenant == "acme" and request.method == "pcta"
    assert isinstance(request.approx, ApproxSpec)
    assert request.deadline_at == pytest.approx(100.25)
    assert request.max_batches == 4 and request.cost == 2.5 and request.refine


@pytest.mark.parametrize(
    "payload",
    [
        [],  # not an object
        {"k": 2},  # missing focal
        {"focal": [0.1]},  # missing k
        {"focal": [[0.1, 0.2]], "k": 2},  # not flat
        {"focal": [], "k": 2},  # empty
        {"focal": [0.1, float("nan")], "k": 2},  # non-finite
        {"focal": "abc", "k": 2},  # junk focal
        {"focal": [0.1], "k": "two"},  # junk k
        {"focal": [0.1], "k": 0},  # k < 1
        {"focal": [0.1], "k": 2, "tenant": 7},  # non-string tenant
        {"focal": [0.1], "k": 2, "method": 7},  # non-string method
        {"focal": [0.1], "k": 2, "approx": {"bogus": 1}},  # unknown approx field
        {"focal": [0.1], "k": 2, "approx": "fast"},  # junk approx spelling
        {"focal": [0.1], "k": 2, "refine": "yes"},  # non-bool refine
        {"focal": [0.1], "k": 2, "deadline_ms": "soon"},  # junk deadline
        {"focal": [0.1], "k": 2, "max_batches": 0},  # bad batch cap
        {"focal": [0.1], "k": 2, "cost": 0},  # non-positive cost
        {"focal": [0.1], "k": 2, "cost": float("inf")},  # infinite cost
    ],
)
def test_parse_request_rejects_malformed(payload):
    with pytest.raises(BadRequest):
        parse_request(payload, now=0.0)


def test_parse_request_allows_expired_deadline():
    # Deliberate: an already-expired deadline parses fine and is rejected by
    # ADMISSION — the single place deadline rejections (and counters) live.
    request = parse_request({"focal": [0.1], "k": 1, "deadline_ms": 0}, now=50.0)
    assert request.deadline_at == pytest.approx(50.0)
    request = parse_request({"focal": [0.1], "k": 1, "deadline_ms": -100}, now=50.0)
    assert request.deadline_at == pytest.approx(49.9)


# --------------------------------------------------------------------- #
# deadline propagation
# --------------------------------------------------------------------- #
@pytest.fixture()
def small_engine():
    return Engine(independent_dataset(48, 3, seed=5))


def test_expired_deadline_rejects_at_admission_not_mid_query(small_engine):
    engine = small_engine
    service = KSPRService(engine, ServeConfig(worker_threads=2))
    focal = [float(v) for v in engine.dataset.values[0]]
    before = engine.metrics()["engine.queries"]

    async def go():
        request = parse_request(
            {"focal": focal, "k": 2, "deadline_ms": 0}, clock=service.clock
        )
        with pytest.raises(AdmissionError) as rejected:
            await service.answer(request)
        assert rejected.value.reason == "deadline_expired"
        events = service.stream(request)
        with pytest.raises(AdmissionError):
            await anext(events)
        await events.aclose()
        await service.close()

    asyncio.run(go())
    assert engine.metrics()["engine.queries"] == before, (
        "an expired deadline must be shed at admission, before any engine work"
    )
    assert service.admission.counters["rejected.deadline_expired"] == 2
    assert service.admission.active == 0


def test_engine_level_absolute_deadline_truncates_into_checkpoint(small_engine):
    engine = small_engine
    focal = engine.dataset.values[0] * 0.98
    snapshots = list(
        engine.query_stream(focal, 2, deadline_at=time.perf_counter() - 1.0)
    )
    # The budget was dead on arrival: no work unit ran, the stream
    # checkpointed instead of serving a truncated answer as complete.
    assert all(not snapshot.done for snapshot in snapshots)
    assert engine.metrics()["engine.partial_store.entries"] == 1
    assert engine.metrics()["engine.partial_store.saved"] == 1
    final = list(engine.query_stream(focal, 2))[-1]
    assert final.done and engine.metrics()["engine.stream.resumes"] == 1


def test_stream_budget_min_combines_relative_and_absolute_deadlines():
    now = time.perf_counter()
    budget = StreamBudget(deadline=100.0, deadline_at=now + 0.5)
    assert budget.expires_at == pytest.approx(now + 0.5, abs=0.05)
    budget = StreamBudget(deadline=0.25, deadline_at=now + 100.0)
    assert budget.expires_at == pytest.approx(now + 0.25, abs=0.05)


# --------------------------------------------------------------------- #
# HTTP end-to-end
# --------------------------------------------------------------------- #
def run_server(config: ServeConfig, body):
    """Start a real server on port 0, run ``body(client, service)``, stop."""
    engine = Engine(independent_dataset(48, 3, seed=5))
    service = KSPRService(engine, config)
    sky = skyline(AggregateRTree(engine.dataset))
    row = int(np.where(engine.dataset.ids == sky[0])[0][0])
    focal = [float(v) for v in engine.dataset.values[row] * 0.98]

    async def go():
        async with ServeServer(service) as server, ServeClient(*server.address) as client:
            return await body(client, service, focal)

    return asyncio.run(go())


def test_http_routing_and_error_mapping():
    async def body(client, service, focal):
        assert (await client.healthz()) == {"status": "ok"}
        metrics = await client.metrics()
        assert "repro_serve_answers_total" in metrics

        with pytest.raises(ServeHTTPError) as missing:
            await client.query({"k": 2})  # no focal
        assert missing.value.status == 400
        assert missing.value.payload["reason"] == "bad_request"

        status, headers, reader, writer = await client._open("GET", "/nope")
        body_bytes = await client._read_body(reader, headers)
        writer.close()
        await writer.wait_closed()
        assert status == 404 and b"not_found" in body_bytes

        status, headers, reader, writer = await client._open("DELETE", "/healthz")
        await client._read_body(reader, headers)
        writer.close()
        await writer.wait_closed()
        assert status == 405

        with pytest.raises(ServeHTTPError) as expired:
            await client.query({"focal": focal, "k": 2, "deadline_ms": 0})
        assert expired.value.status == 408
        assert expired.value.payload["reason"] == "deadline_expired"

    run_server(ServeConfig(worker_threads=2), body)


@pytest.mark.parametrize("declared", ["abc", "-5"])
def test_http_bad_content_length_answers_400_and_server_keeps_serving(declared):
    async def body(client, service, focal):
        reader, writer = await asyncio.open_connection(client.host, client.port)
        writer.write(
            f"POST /v1/query HTTP/1.1\r\nContent-Length: {declared}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        response = await reader.read()  # the server answers, then closes
        writer.close()
        await writer.wait_closed()
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", response
        assert json.loads(payload)["reason"] == "bad_request"
        assert (await client.healthz()) == {"status": "ok"}

    run_server(ServeConfig(worker_threads=2), body)


def test_http_over_budget_maps_to_429_with_retry_hint():
    async def body(client, service, focal):
        first = await client.query({"focal": focal, "k": 2, "tenant": "t"})
        assert first["phase"] == "approx"
        with pytest.raises(ServeHTTPError) as rejected:
            await client.query({"focal": focal, "k": 2, "tenant": "t"})
        assert rejected.value.status == 429
        assert rejected.value.payload["reason"] == "over_budget"
        assert rejected.value.payload["retry_after"] > 0

    run_server(
        ServeConfig(worker_threads=2, tenant_burst=1.0, tenant_rate=0.001), body
    )


def test_http_two_phase_and_stream_sse_ordering():
    async def body(client, service, focal):
        names = []
        async for name, payload in client.query_events({"focal": focal, "k": 2}):
            names.append(name)
            if name == "approx":
                assert payload["ttfa_ms"] >= 0.0
        assert names == ["approx", "exact"]

        events = []
        async for event in client.stream_events({"focal": focal, "k": 3}):
            events.append(event)
        assert events[-1][0] == "exact"
        partials = [payload for name, payload in events if name == "partial"]
        assert [p["seq"] for p in partials] == list(range(len(partials)))

        # A budget-truncated stream terminates with a resumable pause.
        truncated = []
        async for event in client.stream_events(
            {"focal": focal, "k": 4, "max_batches": 1}
        ):
            truncated.append(event)
        assert truncated[-1][0] == "paused" and truncated[-1][1]["resumable"]

        await service.quiesce(timeout=30.0)
        assert service.admission.active == 0

    run_server(ServeConfig(worker_threads=2), body)
