"""A stdlib-only asyncio HTTP/1.1 front-end for :class:`KSPRService`.

No web framework: connections are served straight off
:func:`asyncio.start_server` with a minimal, strict HTTP/1.1 parser —
enough for the serving protocol, the load benchmark and the test-suites,
with zero dependencies beyond the standard library.

Routes
------
``POST /v1/query``
    The two-phase path.  With ``refine`` true (default) the response is a
    Server-Sent-Events stream: one ``approx`` event as soon as the sampled
    estimate exists, then one ``exact`` event when the background refinement
    lands (or an ``error`` event if it was cancelled).  With ``refine``
    false, a single JSON object (the approx payload).
``POST /v1/stream``
    The anytime path: an SSE stream of ``partial`` events whose impact
    brackets tighten monotonically, terminated by ``exact`` (finished) or
    ``paused`` (budget truncated, checkpoint kept).
``POST /v1/subscribe``
    The standing-query path: an SSE stream that starts with a ``snapshot``
    (or a gap-free replay when ``resume_from`` is given) and then carries a
    ``delta`` event for every incremental repair, in strict ``version``
    order, until the client disconnects.
``POST /v1/update``
    Apply one atomic batch of inserts/deletes; responds with a JSON
    ``applied`` payload once every standing query has been repaired.
``GET /metrics``
    The service registry in Prometheus v0 text format.
``GET /healthz``
    Liveness probe.

Connections
-----------
Connections are persistent (HTTP/1.1 keep-alive): one connection serves
request after request until the client sends ``Connection: close`` or
speaks HTTP/1.0, either of which gets a response delimited by the close.
JSON bodies carry ``Content-Length``; an SSE body on a kept-alive
connection is chunked, one chunk per event and a zero-size chunk at its
end.  Pipelining is not supported.  The server closes a connection after a
response that leaves the byte stream out of sync: a 4xx for a malformed
request, or a request that arrives before the previous response has
ended.  It also closes a connection that idles between requests past
``_IDLE_TIMEOUT`` seconds, without a response, and :meth:`ServeServer.stop`
closes every idle connection itself.

The reader is bounded, so a slow or hostile client cannot hold a task
before admission control sees it: a request head of more than
``_MAX_HEADER_LINES`` header lines or ``_MAX_HEAD_BYTES`` bytes gets a 431,
and a started request whose head and body take longer than
``_REQUEST_TIMEOUT`` seconds gets a 408.  The caps and timeouts are module
constants.

A two-phase query whose exact answer is already cached is answered in one
write: head, ``approx`` event, ``exact`` event and the end of the body.
Otherwise, while a response waits on engine work, the read side is watched
for EOF; a disconnect cancels the underlying engine work cooperatively
(checkpointing partial progress) and releases the admission slot.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any

from ..exceptions import InvalidDatasetError, InvalidQueryError
from ..obs.export import registry_to_prometheus
from ..obs.names import (
    SERVE_CONNECTION_RESETS,
    SERVE_HEAD_TOO_LARGE,
    SERVE_IDLE_CLOSED,
    SERVE_REQUEST_TIMEOUTS,
)
from .admission import AdmissionError
from .protocol import (
    BadRequest,
    approx_payload,
    error_payload,
    exact_payload,
    format_sse,
    parse_request,
    parse_update_batch,
)
from .service import KSPRService

__all__ = ["ServeServer"]

logger = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies; a focal vector is tiny, anything bigger
#: than this is hostile or broken.
_MAX_BODY = 1 << 20
#: Caps on one request head: header lines, and bytes including the request
#: line.  A head past either is answered 431.
_MAX_HEADER_LINES = 100
_MAX_HEAD_BYTES = 16 * 1024
#: Seconds a started request may take to deliver its head and body (408).
_REQUEST_TIMEOUT = 10.0
#: Seconds a connection may idle before its next request starts; then it is
#: closed without a response.
_IDLE_TIMEOUT = 30.0
#: Seconds :meth:`ServeServer.stop` lets a busy connection finish its
#: response before closing it under the response.
_STOP_GRACE = 5.0

_CHUNKED_END = b"0\r\n\r\n"


class _HTTPError(Exception):
    """Internal short-circuit carrying a ready-to-send error response."""

    def __init__(self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None):
        super().__init__(payload.get("message", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class _Deadline:
    """Cancels the connection's task if a read phase outlives ``seconds``.

    What :func:`asyncio.timeout` does on Python 3.11+, as one timer and no
    extra task per read phase.  The phase's outcome is the timeout exactly
    when ``expired`` is set, even if its read completed in the same loop
    turn: the task's next resumption raises the cancellation either way.
    """

    __slots__ = ("expired", "task", "_handle")

    def __init__(self, seconds: float) -> None:
        task = asyncio.current_task()
        assert task is not None, "a deadline guards a read inside a task"
        self.expired = False
        #: The task whose read this deadline guards.
        self.task = task
        self._handle = asyncio.get_running_loop().call_later(seconds, self._expire)

    def _expire(self) -> None:
        self.expired = True
        self.task.cancel()

    def cancel(self) -> None:
        """Disarm the timer (the phase ended, one way or another)."""
        self._handle.cancel()

    def absorb(self, error: asyncio.CancelledError) -> None:
        """Take back this deadline's cancellation; re-raise anyone else's."""
        if not self.expired:
            raise error
        uncancel = getattr(self.task, "uncancel", None)  # Python 3.11+
        if uncancel is not None:
            uncancel()


class _Exchange:
    """One response on a connection: its framing, and whether the connection
    stays open after it.

    A kept-alive exchange frames SSE events as chunks; a closing one writes
    them bare and ends the body by closing the connection.
    """

    __slots__ = ("writer", "keep_alive", "started")

    def __init__(self, writer: asyncio.StreamWriter, keep_alive: bool) -> None:
        self.writer = writer
        self.keep_alive = keep_alive
        #: True once the response head went out: no other response may follow.
        self.started = False

    def _head(self, status: int, content_type: str, framing: str, extra: dict[str, str]) -> bytes:
        self.started = True
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}", f"Content-Type: {content_type}"]
        lines.extend(f"{name}: {value}" for name, value in extra.items())
        if framing:
            lines.append(framing)
        if not self.keep_alive:
            lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    async def send(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def send_body(
        self, status: int, body: bytes, content_type: str, extra: dict[str, str] | None = None
    ) -> None:
        await self.send(
            self._head(status, content_type, f"Content-Length: {len(body)}", extra or {}) + body
        )

    async def send_json(
        self, status: int, payload: dict[str, Any], extra: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        await self.send_body(status, body, "application/json", extra)

    def sse_head(self) -> bytes:
        """The head of an SSE response (chunked when kept alive)."""
        framing = "Transfer-Encoding: chunked" if self.keep_alive else ""
        return self._head(200, "text/event-stream", framing, {"Cache-Control": "no-cache"})

    def event(self, name: str, payload: dict[str, Any]) -> bytes:
        """One SSE event, framed for this connection."""
        data = format_sse(name, payload)
        if not self.keep_alive:
            return data
        return b"%x\r\n%b\r\n" % (len(data), data)

    def sse_end(self) -> bytes:
        """The end of an SSE body (the close itself ends a closing one)."""
        return _CHUNKED_END if self.keep_alive else b""


async def _settle(watch: asyncio.Future) -> bool:
    """Cancel an EOF watch and wait until it is done; True if it read nothing.

    A cancelled read must finish before the connection's next read starts,
    and a watch that did read — EOF, or a request that arrived before this
    response ended — leaves the connection out of sync.
    """
    watch.cancel()
    await asyncio.wait({watch})
    return watch.cancelled()


class ServeServer:
    """An in-process asyncio HTTP server wrapping one :class:`KSPRService`.

    Binds ``host:port`` (``port=0`` picks a free port — the test and
    benchmark mode) on :meth:`start`; :meth:`stop` closes the listener and
    the idle connections, then quiesces the service.  Usable as an async
    context manager.
    """

    def __init__(self, service: KSPRService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        #: Every open connection, with its task.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
        #: The connections waiting for their next request.
        self._idle: set[asyncio.StreamWriter] = set()
        self._stopping = False

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        return self.host, self.port

    async def start(self) -> "ServeServer":
        """Bind the listener and start accepting connections."""
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        """Stop accepting, close idle connections, drain background work,
        shut the service down.

        A connection busy with a response closes once it has sent it; one
        still busy after ``_STOP_GRACE`` seconds (a standing subscription)
        is closed under its response.  No connection task outlives this call.
        """
        if self._server is not None:
            self._stopping = True
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            if self._connections:
                # Idle reads see the close on a later loop turn; let every
                # connection end rather than be cancelled when the loop shuts
                # down.  This comes before wait_closed(): from Python 3.12.1
                # on, that waits for every connection to drop, so a
                # subscription left open would block it for good.
                _, busy = await asyncio.wait(self._connections.values(), timeout=_STOP_GRACE)
                for writer, task in list(self._connections.items()):
                    if task in busy:
                        writer.close()
                if busy:
                    await asyncio.wait(busy)
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def __aenter__(self) -> "ServeServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while not self._stopping:
                exchange = _Exchange(writer, keep_alive=False)
                try:
                    request = await self._next_request(reader, writer)
                except _HTTPError as error:
                    await self._refuse(exchange, error)
                    return
                except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                    return  # half-open or garbled connection: nothing to answer
                if request is None:
                    return
                method, path, body, exchange.keep_alive = request
                await self._respond(method, path, body, reader, exchange)
                if not exchange.keep_alive:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError as error:
                self._record_reset(None, "closing", error)
            finally:
                del self._connections[writer]

    async def _respond(
        self, method: str, path: str, body: bytes, reader: asyncio.StreamReader, exchange: _Exchange
    ) -> None:
        """Dispatch one request; an error after the head went out closes the connection."""
        try:
            await self._dispatch(method, path, body, reader, exchange)
            return
        except _HTTPError as error:
            failure = error
        except (ConnectionError, asyncio.IncompleteReadError) as error:
            self._record_reset(path, "mid-response", error)
            exchange.keep_alive = False
            return
        except Exception as error:  # pragma: no cover - defensive 500
            failure = _HTTPError(500, error_payload("internal", f"{type(error).__name__}: {error}"))
        if exchange.started:
            exchange.keep_alive = False
        else:
            await self._refuse(exchange, failure, path)

    async def _refuse(self, exchange: _Exchange, error: _HTTPError, path: str | None = None) -> None:
        """Send an error response; a reset on the way closes the connection."""
        try:
            await exchange.send_json(error.status, error.payload, error.headers)
        except ConnectionError as reset:
            self._record_reset(path, "sending error response", reset)
            exchange.keep_alive = False

    def _record_reset(self, path: str | None, where: str, error: BaseException) -> None:
        """Account one dropped client connection instead of losing it silently."""
        self.service.registry.counter(
            SERVE_CONNECTION_RESETS,
            "client connections dropped mid-response at the HTTP layer",
        ).inc()
        logger.debug(
            "client connection dropped %s (%s): %s", where, path or "(pre-route)", error
        )

    async def _next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, bytes, bool] | None:
        """Wait for and read one request: ``(method, path, body, keep_alive)``.

        ``None`` when the connection ends first: the client closed it, or it
        idled past ``_IDLE_TIMEOUT``.  Raises _HTTPError (400, 408, 413, 431)
        when the request cannot be read; the connection then closes.
        """
        idle = _Deadline(_IDLE_TIMEOUT)
        self._idle.add(writer)
        try:
            first = await reader.read(1)
        except asyncio.CancelledError as error:
            idle.absorb(error)
            first = b""
        finally:
            idle.cancel()
            self._idle.discard(writer)
        if idle.expired:
            self.service.registry.counter(
                SERVE_IDLE_CLOSED, "kept-alive connections closed after idling"
            ).inc()
            return None
        if not first:
            return None
        deadline = _Deadline(_REQUEST_TIMEOUT)
        try:
            request = await self._read_request(reader, first)
        except asyncio.CancelledError as error:
            deadline.absorb(error)
            request = None
        finally:
            deadline.cancel()
        if deadline.expired:
            self.service.registry.counter(
                SERVE_REQUEST_TIMEOUTS, "requests whose head or body arrived too slowly"
            ).inc()
            raise _HTTPError(
                408,
                error_payload(
                    "request_timeout", f"request not received within {_REQUEST_TIMEOUT:g} s"
                ),
            )
        return request

    async def _read_request(
        self, reader: asyncio.StreamReader, first: bytes
    ) -> tuple[str, str, bytes, bool]:
        """Parse one started request; raise _HTTPError on junk."""
        try:
            request_line = first + await reader.readline()
            size, lines = len(request_line), 0
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                size += len(line)
                lines += 1
                if lines > _MAX_HEADER_LINES or size > _MAX_HEAD_BYTES:
                    raise ValueError("request head over its cap")
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # over a cap here, or a line past the stream's limit
            self.service.registry.counter(
                SERVE_HEAD_TOO_LARGE, "requests whose head broke the size caps"
            ).inc()
            raise _HTTPError(
                431,
                error_payload(
                    "bad_request",
                    f"request head over {_MAX_HEADER_LINES} header lines or "
                    f"{_MAX_HEAD_BYTES} bytes",
                ),
            ) from None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HTTPError(400, error_payload("bad_request", "malformed request line"))
        method, path, version = parts
        if "transfer-encoding" in headers:
            raise _HTTPError(
                400, error_payload("bad_request", "request bodies must use Content-Length")
            )
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdecimal():  # junk or negative: answer, never drop
            raise _HTTPError(400, error_payload("bad_request", "malformed Content-Length"))
        length = int(declared)
        if length > _MAX_BODY:
            raise _HTTPError(413, error_payload("bad_request", "request body too large"))
        body = await reader.readexactly(length) if length else b""
        connection = {token.strip() for token in headers.get("connection", "").lower().split(",")}
        keep_alive = version == "HTTP/1.1" and "close" not in connection
        return method, path.split("?", 1)[0], body, keep_alive

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        reader: asyncio.StreamReader,
        exchange: _Exchange,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await exchange.send_json(200, {"status": "ok"})
        elif path == "/metrics" and method == "GET":
            text = registry_to_prometheus(self.service.registry)
            await exchange.send_body(200, text.encode(), "text/plain; version=0.0.4")
        elif path == "/v1/query" and method == "POST":
            await self._query(self._parse_body(body), reader, exchange)
        elif path == "/v1/stream" and method == "POST":
            await self._stream(self._parse_body(body), reader, exchange)
        elif path == "/v1/subscribe" and method == "POST":
            await self._subscribe(self._parse_body(body), reader, exchange)
        elif path == "/v1/update" and method == "POST":
            await self._update(self._parse_json(body), exchange)
        elif path in (
            "/healthz", "/metrics", "/v1/query", "/v1/stream", "/v1/subscribe", "/v1/update"
        ):
            raise _HTTPError(405, error_payload("bad_request", f"{method} not allowed on {path}"))
        else:
            raise _HTTPError(404, error_payload("not_found", f"no route {path!r}"))

    def _parse_json(self, body: bytes) -> Any:
        try:
            return json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HTTPError(400, error_payload("bad_request", f"invalid JSON body: {error}"))

    def _parse_body(self, body: bytes) -> dict:
        payload = self._parse_json(body)
        try:
            return parse_request(payload, clock=self.service.clock)
        except BadRequest as error:
            raise _HTTPError(400, error_payload("bad_request", error.message))
        except InvalidQueryError as error:
            raise _HTTPError(400, error_payload("bad_request", str(error)))

    @staticmethod
    def _admission_http_error(error: AdmissionError) -> _HTTPError:
        payload = error_payload(error.reason, error.message)
        headers = {}
        if error.retry_after is not None:
            payload["retry_after"] = error.retry_after
            headers["Retry-After"] = f"{error.retry_after:.3f}"
        return _HTTPError(error.status, payload, headers)

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _query(self, request, reader, exchange: _Exchange) -> None:
        """POST /v1/query — the two-phase estimate-then-refine path."""
        try:
            answer = await self.service.answer(request)
        except AdmissionError as error:
            raise self._admission_http_error(error) from None
        except InvalidQueryError as error:
            raise _HTTPError(400, error_payload("bad_request", str(error))) from None
        try:
            first = approx_payload(answer.approx)
            first["ttfa_ms"] = answer.ttfa * 1000.0
            if not request.refine:
                await exchange.send_json(200, first)
                return
            if answer.exact is not None:
                # A cached exact answer: the whole response in one write.
                await exchange.send(
                    exchange.sse_head()
                    + exchange.event("approx", first)
                    + exchange.event("exact", exact_payload(answer.exact))
                    + exchange.sse_end()
                )
                return
            await exchange.send(exchange.sse_head() + exchange.event("approx", first))

            eof_watch = asyncio.ensure_future(reader.read(1))
            refined = asyncio.ensure_future(answer.refined())
            try:
                done, _pending = await asyncio.wait(
                    {eof_watch, refined}, return_when=asyncio.FIRST_COMPLETED
                )
                if refined in done:
                    exact = refined.result()
                    if exact is not None:
                        last = exchange.event("exact", exact_payload(exact))
                    else:
                        last = exchange.event(
                            "error",
                            error_payload("refine_cancelled", "refinement was cancelled"),
                        )
                    await exchange.send(last + exchange.sse_end())
                # else: client disconnected — answer.close() below detaches
                # the waiter, cancelling the refinement if it was the last.
            finally:
                refined.cancel()
                if not await _settle(eof_watch):
                    exchange.keep_alive = False
        finally:
            answer.close()

    async def _stream(self, request, reader, exchange: _Exchange) -> None:
        """POST /v1/stream — the anytime partial-result path."""
        events = self.service.stream(request)
        try:
            first = await anext(events)
        except AdmissionError as error:
            await events.aclose()
            raise self._admission_http_error(error) from None
        except InvalidQueryError as error:
            await events.aclose()
            raise _HTTPError(400, error_payload("bad_request", str(error))) from None

        eof_watch = asyncio.ensure_future(reader.read(1))
        try:
            name, payload = first
            await exchange.send(exchange.sse_head() + exchange.event(name, payload))
            while not eof_watch.done():
                nxt = asyncio.ensure_future(anext(events))
                done, _pending = await asyncio.wait(
                    {eof_watch, nxt}, return_when=asyncio.FIRST_COMPLETED
                )
                if nxt not in done:
                    nxt.cancel()
                    break
                try:
                    name, payload = nxt.result()
                except StopAsyncIteration:
                    await exchange.send(exchange.sse_end())
                    break
                await exchange.send(exchange.event(name, payload))
        finally:
            if not await _settle(eof_watch):
                exchange.keep_alive = False
            # aclose() runs the generator's finally: cooperative cancel,
            # engine checkpoint, checkout release.
            await events.aclose()

    async def _subscribe(self, request, reader, exchange: _Exchange) -> None:
        """POST /v1/subscribe — the standing-query SSE path.

        SSE headers go out with the first event (so admission rejections
        can still answer with their proper status), and the read side is
        watched for EOF from the start — a subscriber that disconnects
        while fully caught up (no event in flight) is detected and its
        checkout released without waiting for the next repair.
        """
        events = self.service.subscribe(request)
        eof_watch = asyncio.ensure_future(reader.read(1))
        try:
            while not eof_watch.done():
                nxt = asyncio.ensure_future(anext(events))
                done, _pending = await asyncio.wait(
                    {eof_watch, nxt}, return_when=asyncio.FIRST_COMPLETED
                )
                if nxt not in done:
                    nxt.cancel()
                    break
                try:
                    name, payload = nxt.result()
                except StopAsyncIteration:
                    if exchange.started:
                        await exchange.send(exchange.sse_end())
                    break
                except AdmissionError as error:
                    raise self._admission_http_error(error) from None
                except InvalidQueryError as error:
                    raise _HTTPError(400, error_payload("bad_request", str(error))) from None
                head = b"" if exchange.started else exchange.sse_head()
                await exchange.send(head + exchange.event(name, payload))
        finally:
            if not await _settle(eof_watch):
                exchange.keep_alive = False
            # aclose() runs the generator's finally: listener detach,
            # checkout release (the standing query stays registered).
            await events.aclose()

    async def _update(self, payload, exchange: _Exchange) -> None:
        """POST /v1/update — apply one atomic insert/delete batch."""
        try:
            ops = parse_update_batch(payload)
        except BadRequest as error:
            raise _HTTPError(400, error_payload("bad_request", error.message)) from None
        try:
            applied = await self.service.apply_updates(ops)
        except (InvalidDatasetError, InvalidQueryError) as error:
            raise _HTTPError(400, error_payload("bad_request", str(error))) from None
        await exchange.send_json(200, applied)
