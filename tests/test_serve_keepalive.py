"""The serving tier's cached-answer path, keep-alive connections and bounded reader.

* **cache-only engine peeks** — ``Engine.query(..., cached_only=True)``
  returns the cached answer or ``None``, never computes, never waits on the
  engine lock, and a miss followed by the full query counts one query and
  one miss;
* **inline hits** — a warm request is answered on the event loop: nothing
  goes to the service pool, no refinement starts, and its payloads equal
  the pool path's byte for byte; a contended engine lock sends the request
  to the pool without stalling the loop;
* **keep-alive** — one :class:`ServeClient` reuses its connections (counted
  at ``asyncio.open_connection``, the name it calls), a ``Connection:
  close`` request still gets a close-delimited SSE body, a pooled
  connection the server closed is retried once, ``ServeServer.stop()``
  closes idle connections, and a disconnect mid-refinement still cancels;
* **the bounded reader** — a header flood gets 431, a dripping request 408
  and an idle connection is closed, each counted.

All async orchestration runs through ``asyncio.run`` inside sync tests (no
async pytest plugin in this environment).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro import ApproxSpec, Engine
from repro.data import independent_dataset
from repro.serve import KSPRService, ServeClient, ServeConfig, ServeRequest, ServeServer
from repro.serve import http as serve_http
from repro.serve.protocol import format_sse

K = 2
SPEC = ApproxSpec(epsilon=0.1, delta=0.1, seed=3)


def make_engine(engine_type=Engine) -> tuple[Engine, list[float]]:
    engine = engine_type(independent_dataset(48, 3, seed=5), k_max=8)
    values = engine.dataset.values
    focal = [float(v) for v in values[values.sum(axis=1).argmax()] * 0.98]
    return engine, focal


def make_service(engine: Engine) -> KSPRService:
    return KSPRService(engine, ServeConfig(
        worker_threads=2, approx=SPEC, refine_method="pcta", tenant_burst=1e9, tenant_rate=1e9))


def warm(engine: Engine, focal: list[float]) -> None:
    """Cache the approx and exact answers a request for ``focal`` reads."""
    engine.query(focal, K, approx=SPEC)
    engine.query(focal, K, method="pcta")


def counter(service: KSPRService, name: str) -> float:
    return service.registry.counter(name).value


def count_submits(service: KSPRService) -> list:
    """Record every call the service makes into its worker pool."""
    calls: list = []
    submit = service._pool.submit

    def recording(fn, *args, **kwargs):
        calls.append(fn)
        return submit(fn, *args, **kwargs)

    service._pool.submit = recording  # type: ignore[method-assign]
    return calls


def serve(service: KSPRService, body):
    """Run ``body(server, client)`` against a live server on a free port."""

    async def go():
        async with ServeServer(service) as server:
            async with ServeClient(*server.address) as client:
                return await body(server, client)

    return asyncio.run(go())


async def collect(events) -> list[tuple[str, dict]]:
    return [event async for event in events]


@pytest.fixture
def opened(monkeypatch) -> list[int]:
    """Count TCP connections the client opens, at the name it calls."""
    count = [0]
    original = asyncio.open_connection

    async def counted(*args, **kwargs):
        count[0] += 1
        return await original(*args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", counted)
    return count


# --------------------------------------------------------------------- #
# cache-only engine peeks
# --------------------------------------------------------------------- #
class TestCachedOnlyQuery:
    def test_hit_is_the_cached_object_and_counts_one_query(self):
        engine, focal = make_engine()
        warm(engine, focal)
        before = engine.metrics()
        approx = engine.query(focal, K, approx=SPEC, cached_only=True)
        exact = engine.query(focal, K, method="pcta", cached_only=True)
        assert approx is engine.query(focal, K, approx=SPEC)
        assert exact is engine.query(focal, K, method="pcta")
        after = engine.metrics()
        assert after["engine.queries"] - before["engine.queries"] == 4
        assert after["engine.result_cache.hits"] - before["engine.result_cache.hits"] == 4
        assert after["engine.result_cache.misses"] == before["engine.result_cache.misses"]

    def test_miss_then_full_query_counts_one_query_and_one_miss(self):
        engine, focal = make_engine()
        before = engine.metrics()
        assert engine.query(focal, K, approx=SPEC, cached_only=True) is None
        assert engine.metrics() == before
        engine.query(focal, K, approx=SPEC)
        after = engine.metrics()
        assert after["engine.queries"] - before["engine.queries"] == 1
        assert after["engine.result_cache.misses"] - before["engine.result_cache.misses"] == 1
        assert after["engine.queries.cold"] - before["engine.queries.cold"] == 1

    def test_contended_lock_reads_as_a_miss_without_waiting(self):
        engine, focal = make_engine()
        warm(engine, focal)
        held, release = threading.Event(), threading.Event()

        def hold():
            with engine._lock:
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            held.wait(5.0)
            start = time.perf_counter()
            assert engine.query(focal, K, method="pcta", cached_only=True) is None
            assert time.perf_counter() - start < 0.05
        finally:
            release.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert engine.query(focal, K, method="pcta", cached_only=True) is not None

    def test_cached_result_shares_the_lookup(self):
        engine, focal = make_engine()
        warm(engine, focal)
        assert engine.cached_result(focal, K, method="pcta") is engine.query(
            focal, K, method="pcta", cached_only=True
        )
        assert engine.cached_result(focal, K + 1, method="pcta") is None


# --------------------------------------------------------------------- #
# inline hits
# --------------------------------------------------------------------- #
class TestInlineHits:
    def test_warm_request_uses_no_pool_and_no_refinement(self):
        engine, focal = make_engine()
        warm(engine, focal)
        service = make_service(engine)
        submits = count_submits(service)

        async def go():
            answer = await service.answer(ServeRequest(focal=np.asarray(focal), k=K))
            assert answer.will_refine and answer.exact is not None
            assert service.pending_refinements() == 0
            exact = await answer.refined()
            answer.close()
            await service.close()
            return answer, exact

        answer, exact = asyncio.run(go())
        assert submits == []
        assert exact is engine.query(focal, K, method="pcta")
        assert counter(service, "serve.refinements.started.total") == 0
        assert counter(service, "serve.honesty.checked.total") == (1 if answer.approx.meets() else 0)
        assert service.admission.active == 0

    def test_inline_payloads_equal_the_pool_paths(self):
        def payloads(service: KSPRService, focal: list[float]) -> list[bytes]:
            async def body(server, client):
                events = await collect(client.query_events({"focal": focal, "k": K}))
                await service.quiesce(timeout=30.0)
                return events

            events = serve(service, body)
            assert [name for name, _payload in events] == ["approx", "exact"]
            return [
                format_sse(name, {key: value for key, value in payload.items() if key != "ttfa_ms"})
                for name, payload in events
            ]

        cold_engine, focal = make_engine()
        cold_service = make_service(cold_engine)
        cold_submits = count_submits(cold_service)
        cold = payloads(cold_service, focal)
        assert cold_submits, "the cold request must have used the pool"

        warm_engine, _focal = make_engine()
        warm(warm_engine, focal)
        warm_service = make_service(warm_engine)
        warm_submits = count_submits(warm_service)
        assert payloads(warm_service, focal) == cold
        assert warm_submits == []

    def test_contended_lock_goes_to_the_pool_and_keeps_the_loop_free(self):
        engine, focal = make_engine()
        warm(engine, focal)
        service = make_service(engine)
        submits = count_submits(service)
        held = threading.Event()
        released: list[float] = []

        def hold():
            with engine._lock:
                held.set()
                time.sleep(0.5)
                released.append(time.perf_counter())

        async def body(server, client):
            thread = threading.Thread(target=hold)
            thread.start()
            held.wait(5.0)
            query = asyncio.ensure_future(collect(client.query_events({"focal": focal, "k": K})))
            start = time.perf_counter()
            async with ServeClient(*server.address) as other:
                health = await other.healthz()
            health_seconds = time.perf_counter() - start
            events = await query
            answered = time.perf_counter()
            thread.join(5.0)
            assert not thread.is_alive()
            return health, health_seconds, events, answered

        health, health_seconds, events, answered = serve(service, body)
        assert health == {"status": "ok"}
        assert health_seconds < 0.1
        assert [name for name, _payload in events] == ["approx", "exact"]
        assert answered >= released[0]
        assert len(submits) == 1  # the approx phase; the exact peek hit once the lock was free


# --------------------------------------------------------------------- #
# keep-alive
# --------------------------------------------------------------------- #
class TestKeepAlive:
    def test_one_client_reuses_its_connections(self, opened):
        engine, focal = make_engine()
        warm(engine, focal)
        request = {"focal": focal, "k": K}

        async def body(server, client):
            for _ in range(50):
                assert [n for n, _p in await collect(client.query_events(request))] == ["approx", "exact"]

            async def two():
                return await asyncio.gather(
                    collect(client.query_events(request)), collect(client.query_events(request))
                )

            for _ in range(25):
                for events in await two():
                    assert [n for n, _p in events] == ["approx", "exact"]
            assert (await client.healthz()) == {"status": "ok"}

        serve(make_service(engine), body)
        assert 1 <= opened[0] <= 2

    def test_connection_close_request_gets_a_close_delimited_sse_body(self):
        engine, focal = make_engine()
        warm(engine, focal)
        payload = json.dumps({"focal": focal, "k": K}).encode()

        async def body(server, client):
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(
                b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%b"
                % (len(payload), payload)
            )
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), 5.0)  # ends at the close
            writer.close()
            return response

        response = serve(make_service(engine), body)
        head, _, sse = response.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert b"Transfer-Encoding" not in head and b"Content-Length" not in head
        from repro.serve.protocol import parse_sse

        assert [name for name, _p in parse_sse(sse)] == ["approx", "exact"]

    @staticmethod
    async def _one_shot_server(answer_first: bool):
        """A server that answers each connection's first request (when
        ``answer_first``) and closes the connection on the next one unanswered."""

        async def handle(reader, writer):
            try:
                if answer_first:
                    await reader.readuntil(b"\r\n\r\n")
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 15\r\n\r\n{\"status\":\"ok\"}"
                    )
                    await writer.drain()
                await reader.readuntil(b"\r\n\r\n")  # the next request goes unanswered
            except asyncio.IncompleteReadError:
                return  # the client closed first
            finally:
                writer.close()

        return await asyncio.start_server(handle, "127.0.0.1", 0)

    def test_pooled_connection_the_server_closed_is_retried_once(self, opened):
        async def go():
            server = await self._one_shot_server(answer_first=True)
            port = server.sockets[0].getsockname()[1]
            try:
                async with ServeClient("127.0.0.1", port) as client:
                    first = await client.healthz()
                    second = await client.healthz()  # reused, closed unanswered, retried
            finally:
                server.close()
                await server.wait_closed()
            return first, second

        assert asyncio.run(go()) == ({"status": "ok"}, {"status": "ok"})
        assert opened[0] == 2

    def test_fresh_connection_closed_unanswered_is_not_retried(self, opened):
        async def go():
            server = await self._one_shot_server(answer_first=False)
            port = server.sockets[0].getsockname()[1]
            try:
                async with ServeClient("127.0.0.1", port) as client:
                    with pytest.raises(ConnectionError):
                        await client.healthz()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(go())
        assert opened[0] == 1

    def test_stop_closes_idle_connections(self):
        engine, _focal = make_engine()
        service = make_service(engine)

        async def go():
            server = await ServeServer(service).start()
            client = ServeClient(*server.address)
            assert (await client.healthz()) == {"status": "ok"}
            ((reader, writer),) = client._idle
            await asyncio.wait_for(server.stop(), 5.0)
            # The EOF, not just stop() returning: on Python 3.11,
            # Server.wait_closed() returns whether or not connections remain.
            tail = await asyncio.wait_for(reader.read(), 1.0)
            writer.close()
            return tail

        assert asyncio.run(go()) == b""

    def test_disconnect_mid_refinement_on_a_kept_alive_connection_cancels(self):
        class GatedEngine(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.gate = threading.Event()

            def query_stream(self, *args, **kwargs):
                inner = super().query_stream(*args, **kwargs)

                def gated():
                    try:
                        while True:
                            self.gate.wait()
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            yield item
                    finally:
                        inner.close()

                return gated()

        engine, focal = make_engine(GatedEngine)
        service = make_service(engine)

        async def body(server, client):
            assert (await client.healthz()) == {"status": "ok"}  # a pooled connection
            events = client.query_events({"focal": focal, "k": K})
            name, _payload = await anext(events)
            assert name == "approx" and service.pending_refinements() == 1
            await events.aclose()  # the client goes away mid-refinement
            for _ in range(200):
                if service.admission.active == 0:
                    break
                await asyncio.sleep(0.01)
            engine.gate.set()
            assert await service.quiesce(timeout=30.0)

        serve(service, body)
        assert counter(service, "serve.refinements.cancelled.total") == 1
        assert counter(service, "serve.refinements.completed.total") == 0
        assert service.admission.active == 0


# --------------------------------------------------------------------- #
# the bounded request reader
# --------------------------------------------------------------------- #
class TestBoundedReader:
    @staticmethod
    async def _raw(server: ServeServer, chunks, pause: float = 0.0) -> tuple[bytes, float]:
        """Send ``chunks`` (pausing between them) and read to EOF.

        Returns the response and the seconds from the first byte sent to the
        end of the response.
        """
        reader, writer = await asyncio.open_connection(*server.address)
        start = time.perf_counter()
        reading = asyncio.ensure_future(reader.read())
        try:
            for chunk in chunks:
                if reading.done():
                    break
                writer.write(chunk)
                await writer.drain()
                if pause:
                    await asyncio.wait({reading}, timeout=pause)
            response = await asyncio.wait_for(reading, 10.0)
        finally:
            writer.close()
        return response, time.perf_counter() - start

    def test_header_flood_gets_431(self, monkeypatch):
        engine, _focal = make_engine()
        service = make_service(engine)
        lines = serve_http._MAX_HEADER_LINES + 1
        flood = b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-Flood-%d: y\r\n" % i for i in range(lines))
        big = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"z" * serve_http._MAX_HEAD_BYTES + b"\r\n"

        async def body(server, client):
            flooded, _ = await self._raw(server, [flood])
            oversized, _ = await self._raw(server, [big])
            assert (await client.healthz()) == {"status": "ok"}
            return flooded, oversized

        flooded, oversized = serve(service, body)
        for response in (flooded, oversized):
            head, _, payload = response.partition(b"\r\n\r\n")
            assert head.split()[1] == b"431", response
            assert b"Connection: close" in head
            assert json.loads(payload)["reason"] == "bad_request"
        assert counter(service, "serve.http.head_too_large.total") == 2

    def test_dripping_request_gets_408_within_the_timeout(self, monkeypatch):
        # Off the drip's one-second beat, so the server never closes just as
        # a byte arrives (which would reset the connection under the 408).
        monkeypatch.setattr(serve_http, "_REQUEST_TIMEOUT", 1.5)
        engine, _focal = make_engine()
        service = make_service(engine)
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

        async def body(server, client):
            dripped = await self._raw(server, [bytes([b]) for b in request], pause=1.0)
            assert (await client.healthz()) == {"status": "ok"}
            return dripped

        response, seconds = serve(service, body)
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408", response
        assert json.loads(payload)["reason"] == "request_timeout"
        assert 1.5 <= seconds < 1.5 + 0.75
        assert counter(service, "serve.http.request_timeouts.total") == 1

    def test_idle_connection_is_closed_after_the_timeout(self, monkeypatch):
        monkeypatch.setattr(serve_http, "_IDLE_TIMEOUT", 0.3)
        engine, _focal = make_engine()
        service = make_service(engine)

        async def body(server, client):
            assert (await client.healthz()) == {"status": "ok"}
            ((reader, writer),) = client._idle
            start = time.perf_counter()
            tail = await asyncio.wait_for(reader.read(), 5.0)  # closed, no response
            idled = time.perf_counter() - start
            assert (await client.healthz()) == {"status": "ok"}  # a fresh connection
            return tail, idled

        tail, idled = serve(service, body)
        assert tail == b""
        assert 0.2 <= idled < 0.3 + 0.75
        assert counter(service, "serve.http.idle_closed.total") >= 1
