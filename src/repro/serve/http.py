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

Every response carries ``Connection: close`` — SSE bodies are delimited by
connection close, which keeps the framing trivial and matches how the
benchmark client measures time-to-first-answer.  Client disconnects are
detected by watching the read side for EOF concurrently with the response;
a disconnect mid-stream cancels the underlying engine work cooperatively
(checkpointing partial progress) and releases the admission slot.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any

from ..exceptions import InvalidDatasetError, InvalidQueryError
from ..obs.export import registry_to_prometheus
from ..obs.names import SERVE_CONNECTION_RESETS
from .admission import AdmissionError
from .protocol import (
    BadRequest,
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
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on request bodies; a focal vector is tiny, anything bigger
#: than this is hostile or broken.
_MAX_BODY = 1 << 20

_SSE_HEADERS = (
    "Content-Type: text/event-stream\r\n"
    "Cache-Control: no-cache\r\n"
)


class _HTTPError(Exception):
    """Internal short-circuit carrying a ready-to-send error response."""

    def __init__(self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None):
        super().__init__(payload.get("message", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class ServeServer:
    """An in-process asyncio HTTP server wrapping one :class:`KSPRService`.

    Binds ``host:port`` (``port=0`` picks a free port — the test and
    benchmark mode) on :meth:`start`; :meth:`stop` closes the listener and
    quiesces the service.  Usable as an async context manager.
    """

    def __init__(self, service: KSPRService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

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
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    async def stop(self) -> None:
        """Stop accepting, drain background work, shut the service down."""
        if self._server is not None:
            self._server.close()
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
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HTTPError as error:
                await self._send_json(writer, error.status, error.payload, error.headers)
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # half-open or garbled connection: nothing to answer
            try:
                await self._dispatch(method, path, body, reader, writer)
            except _HTTPError as error:
                await self._send_json(writer, error.status, error.payload, error.headers)
            except (ConnectionError, asyncio.IncompleteReadError) as error:
                self._record_reset(path, "mid-response", error)
            except Exception as error:  # pragma: no cover - defensive 500
                try:
                    await self._send_json(
                        writer, 500, error_payload("internal", f"{type(error).__name__}: {error}")
                    )
                except ConnectionError as reset:
                    self._record_reset(path, "sending error response", reset)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError as error:
                self._record_reset(None, "closing", error)

    def _record_reset(self, path: str | None, where: str, error: BaseException) -> None:
        """Account one dropped client connection instead of losing it silently."""
        self.service.registry.counter(
            SERVE_CONNECTION_RESETS,
            "client connections dropped mid-response at the HTTP layer",
        ).inc()
        logger.debug(
            "client connection dropped %s (%s): %s", where, path or "(pre-route)", error
        )

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
        """Parse one request: ``(method, path, body)``; raise _HTTPError on junk."""
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HTTPError(400, error_payload("bad_request", "malformed request line"))
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdecimal():  # junk or negative: answer, never drop
            raise _HTTPError(400, error_payload("bad_request", "malformed Content-Length"))
        length = int(declared)
        if length > _MAX_BODY:
            raise _HTTPError(413, error_payload("bad_request", "request body too large"))
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], body

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"status": "ok"})
        elif path == "/metrics" and method == "GET":
            text = registry_to_prometheus(self.service.registry)
            await self._send_raw(writer, 200, text.encode(), "text/plain; version=0.0.4")
        elif path == "/v1/query" and method == "POST":
            await self._query(self._parse_body(body), reader, writer)
        elif path == "/v1/stream" and method == "POST":
            await self._stream(self._parse_body(body), reader, writer)
        elif path == "/v1/subscribe" and method == "POST":
            await self._subscribe(self._parse_body(body), reader, writer)
        elif path == "/v1/update" and method == "POST":
            await self._update(self._parse_json(body), writer)
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
    async def _query(self, request, reader, writer) -> None:
        """POST /v1/query — the two-phase estimate-then-refine path."""
        try:
            answer = await self.service.answer(request)
        except AdmissionError as error:
            raise self._admission_http_error(error) from None
        except InvalidQueryError as error:
            raise _HTTPError(400, error_payload("bad_request", str(error))) from None
        try:
            from .protocol import approx_payload

            first = approx_payload(answer.approx)
            first["ttfa_ms"] = answer.ttfa * 1000.0
            if not answer.will_refine:
                await self._send_json(writer, 200, first)
                return
            await self._start_sse(writer)
            writer.write(format_sse("approx", first))
            await writer.drain()

            eof_watch = asyncio.ensure_future(reader.read(1))
            refined = asyncio.ensure_future(answer.refined())
            try:
                done, _pending = await asyncio.wait(
                    {eof_watch, refined}, return_when=asyncio.FIRST_COMPLETED
                )
                if refined in done:
                    exact = refined.result()
                    if exact is not None:
                        writer.write(format_sse("exact", exact_payload(exact)))
                    else:
                        writer.write(format_sse(
                            "error",
                            error_payload("refine_cancelled", "refinement was cancelled"),
                        ))
                    await writer.drain()
                # else: client disconnected — answer.close() below detaches
                # the waiter, cancelling the refinement if it was the last.
            finally:
                eof_watch.cancel()
                refined.cancel()
        finally:
            answer.close()

    async def _stream(self, request, reader, writer) -> None:
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

        await self._start_sse(writer)
        eof_watch = asyncio.ensure_future(reader.read(1))
        try:
            name, payload = first
            writer.write(format_sse(name, payload))
            await writer.drain()
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
                    break
                writer.write(format_sse(name, payload))
                await writer.drain()
        finally:
            eof_watch.cancel()
            # aclose() runs the generator's finally: cooperative cancel,
            # engine checkpoint, checkout release.
            await events.aclose()

    async def _subscribe(self, request, reader, writer) -> None:
        """POST /v1/subscribe — the standing-query SSE path.

        SSE headers go out with the first event (so admission rejections
        can still answer with their proper status), and the read side is
        watched for EOF from the start — a subscriber that disconnects
        while fully caught up (no event in flight) is detected and its
        checkout released without waiting for the next repair.
        """
        events = self.service.subscribe(request)
        eof_watch = asyncio.ensure_future(reader.read(1))
        started = False
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
                    break
                except AdmissionError as error:
                    raise self._admission_http_error(error) from None
                except InvalidQueryError as error:
                    raise _HTTPError(400, error_payload("bad_request", str(error))) from None
                if not started:
                    await self._start_sse(writer)
                    started = True
                writer.write(format_sse(name, payload))
                await writer.drain()
        finally:
            eof_watch.cancel()
            # aclose() runs the generator's finally: listener detach,
            # checkout release (the standing query stays registered).
            await events.aclose()

    async def _update(self, payload, writer) -> None:
        """POST /v1/update — apply one atomic insert/delete batch."""
        try:
            ops = parse_update_batch(payload)
        except BadRequest as error:
            raise _HTTPError(400, error_payload("bad_request", error.message)) from None
        try:
            applied = await self.service.apply_updates(ops)
        except (InvalidDatasetError, InvalidQueryError) as error:
            raise _HTTPError(400, error_payload("bad_request", str(error))) from None
        await self._send_json(writer, 200, applied)

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _head(status: int, content_type: str, length: int | None, extra: dict[str, str]) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines.append(f"Content-Type: {content_type}")
        if length is not None:
            lines.append(f"Content-Length: {length}")
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        writer.write(self._head(status, "application/json", len(body), extra or {}))
        writer.write(body)
        await writer.drain()

    async def _send_raw(
        self, writer: asyncio.StreamWriter, status: int, body: bytes, content_type: str
    ) -> None:
        writer.write(self._head(status, content_type, len(body), {}))
        writer.write(body)
        await writer.drain()

    async def _start_sse(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            f"HTTP/1.1 200 OK\r\n{_SSE_HEADERS}Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
