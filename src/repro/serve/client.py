"""A minimal asyncio client for :class:`~repro.serve.ServeServer`.

Stdlib-only, like the server.  Connections are persistent: a request takes
an idle connection the client opened earlier on the running event loop, or
opens one with :func:`asyncio.open_connection`, and a response read to its
end hands the connection back for the next request.  Responses are framed
by ``Content-Length`` (JSON) or chunked transfer encoding (SSE); SSE events
are decoded incrementally, so callers observe each event the moment its
frame arrives — which is exactly what the load benchmark needs to measure
time-to-first-answer honestly.  A reused connection that the server closed
before sending any byte of the response (an idle timeout, a shutdown) is
retried once on a fresh connection.  :meth:`ServeClient.aclose` (or
``async with``) closes the idle connections.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
from typing import Any, AsyncIterator

from .protocol import parse_sse

__all__ = ["ServeClient", "ServeHTTPError"]

logger = logging.getLogger(__name__)

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ServeHTTPError(Exception):
    """A non-2xx response, carrying the decoded error payload."""

    def __init__(self, status: int, payload: dict[str, Any]):
        super().__init__(f"HTTP {status}: {payload.get('message', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Talks the ``repro.serve`` wire protocol to one server address.

    Keeps the connections it opened on the running event loop for reuse;
    connections opened on an earlier loop are never reused (the
    benchmark generator drives one client through several
    :func:`asyncio.run` calls).  Usable as an async context manager.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._idle: list[_Connection] = []
        self._loop: asyncio.AbstractEventLoop | None = None

    async def aclose(self) -> None:
        """Close every idle connection."""
        self._drop_stale()
        idle, self._idle = self._idle, []
        for _reader, writer in idle:
            writer.close()
        for _reader, writer in idle:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError) as error:
                logger.debug("connection reset while closing: %s", error)

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _drop_stale(self) -> None:
        """Forget the idle connections opened on another event loop."""
        loop = asyncio.get_running_loop()
        if loop is self._loop:
            return
        stale, self._idle, self._loop = self._idle, [], loop
        for _reader, writer in stale:
            # Their loop has ended and can no longer close them: shut the
            # sockets down so the server sees the end now.
            try:
                writer.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
            except OSError as error:
                logger.debug("stale connection already gone: %s", error)

    def _take_idle(self) -> _Connection | None:
        """An idle connection of the running loop that is still open, if any."""
        self._drop_stale()
        while self._idle:
            reader, writer = self._idle.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def _release(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 headers: dict[str, str]) -> None:
        """Keep a connection whose response was read to its end, unless closing."""
        if headers.get("connection", "").lower() == "close" or reader.at_eof():
            writer.close()
        else:
            self._idle.append((reader, writer))

    async def _open(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict[str, str], asyncio.StreamReader, asyncio.StreamWriter]:
        """Send one request; return ``(status, headers, reader, writer)``.

        The caller owns the connection until it reads the body to its end and
        hands it back with :meth:`_release` (or closes it).
        """
        encoded = b"" if body is None else json.dumps(body).encode()
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(encoded)}\r\n\r\n"
        ).encode() + encoded
        connection = self._take_idle()
        reused = connection is not None
        reader, writer = connection or await asyncio.open_connection(self.host, self.port)
        try:
            status_line = await self._send(reader, writer, request)
            if not status_line and reused:
                # The server closed the reused connection before answering
                # (idle timeout or shutdown): retry once on a fresh one.
                writer.close()
                reader, writer = await asyncio.open_connection(self.host, self.port)
                status_line = await self._send(reader, writer, request)
            parts = status_line.decode("latin-1").split(maxsplit=2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"malformed status line: {status_line!r}")
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except BaseException:
            writer.close()
            raise
        return int(parts[1]), headers, reader, writer

    @staticmethod
    async def _send(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
    ) -> bytes:
        """Write one request; its status line, or ``b""`` if the server closed first."""
        try:
            writer.write(request)
            await writer.drain()
            return await reader.readline()
        except ConnectionError as error:
            logger.debug("connection closed before the response: %s", error)
            return b""

    @staticmethod
    async def _read_body(reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
        """The whole body of a ``Content-Length`` or chunked response."""
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return b"".join([chunk async for chunk in ServeClient._chunks(reader)])
        return await reader.readexactly(int(headers.get("content-length", "0")))

    @staticmethod
    async def _chunks(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
        """The chunks of a chunked body, up to and including its end."""
        while True:
            size_line = await reader.readline()
            if not size_line:
                raise asyncio.IncompleteReadError(b"", None)
            size = int(size_line.split(b";", 1)[0], 16)
            if size == 0:
                while await reader.readline() not in (b"\r\n", b"\n", b""):
                    pass  # trailer fields: none are used
                return
            chunk = await reader.readexactly(size + 2)
            yield chunk[:-2]

    async def _exchange(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        """One request with a complete (non-SSE) response: ``(status, body)``."""
        status, headers, reader, writer = await self._open(method, path, body)
        try:
            payload = await self._read_body(reader, headers)
        except BaseException:
            writer.close()
            raise
        self._release(reader, writer, headers)
        return status, payload

    @staticmethod
    def _check(status: int, body: bytes) -> dict[str, Any]:
        payload = json.loads(body.decode() or "null")
        if status >= 400:
            raise ServeHTTPError(status, payload if isinstance(payload, dict) else {})
        return payload

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    async def healthz(self) -> dict[str, Any]:
        """GET /healthz."""
        return self._check(*await self._exchange("GET", "/healthz"))

    async def metrics(self) -> str:
        """GET /metrics (Prometheus v0 text)."""
        status, body = await self._exchange("GET", "/metrics")
        if status >= 400:
            raise ServeHTTPError(status, json.loads(body.decode() or "{}"))
        return body.decode()

    async def query(self, request: dict) -> dict[str, Any]:
        """POST /v1/query with ``refine`` forced off: one JSON approx answer."""
        return self._check(*await self._exchange("POST", "/v1/query", {**request, "refine": False}))

    async def query_events(self, request: dict) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """POST /v1/query (two-phase SSE): yields events as frames arrive.

        The first yielded event is ``("approx", ...)`` — the caller's clock
        at that yield is the client-observed time-to-first-answer.  Closing
        the iterator early models a client disconnect: the connection drops
        and the server cancels the background refinement cooperatively.
        """
        async for event in self._sse("/v1/query", request):
            yield event

    async def stream_events(self, request: dict) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """POST /v1/stream: yields ``partial`` events then a terminal one."""
        async for event in self._sse("/v1/stream", request):
            yield event

    async def subscribe_events(self, request: dict) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """POST /v1/subscribe: a standing subscription's SSE events.

        Yields the initial ``snapshot`` (or the gap-free replay when the
        request carries ``resume_from``) and then one ``delta`` per repair,
        until the caller closes the iterator (modelling a disconnect).
        """
        async for event in self._sse("/v1/subscribe", request):
            yield event

    async def update(self, batch: dict) -> dict[str, Any]:
        """POST /v1/update: apply one atomic insert/delete batch."""
        return self._check(*await self._exchange("POST", "/v1/update", batch))

    async def _sse(self, path: str, request: dict) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        status, headers, reader, writer = await self._open("POST", path, request)
        finished = False
        try:
            if status >= 400:
                body = await self._read_body(reader, headers)
                finished = True
                self._check(status, body)
            if headers.get("transfer-encoding", "").lower() != "chunked":
                raise ConnectionError(f"{path}: SSE body without chunked framing")
            buffer = b""
            async for chunk in self._chunks(reader):
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for event in parse_sse(frame + b"\n\n"):
                        yield event
            finished = True
        finally:
            if finished:
                self._release(reader, writer, headers)
            else:
                # Abandoned mid-body (a disconnect) or broken: the connection
                # cannot carry another request.
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError) as error:
                    logger.debug("connection reset while closing %s: %s", path, error)
