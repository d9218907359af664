"""Stdlib asyncio HTTP and WebSocket clients for the serving tier.

The end-to-end benchmark, the socket-level tests and the CI smoke check need a
client that exists on a bare Python install; this is it.  ``HttpClient``
speaks just enough HTTP/1.1 (keep-alive, ``Content-Length`` bodies, JSON
payloads) and ``WebSocketClient`` performs the RFC 6455 opening handshake
and exchanges text frames via the shared :mod:`repro.server.ws_frames`.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.server import ws_frames


@dataclass
class HttpResponse:
    """One parsed HTTP response."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body decoded as JSON."""
        return json.loads(self.body.decode("utf-8"))


class HttpClient:
    """A keep-alive HTTP/1.1 client bound to one host and port."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self._reader, self._writer

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> HttpResponse:
        """Send one request; reconnects once if the kept-alive socket died."""
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        for attempt in (0, 1):
            reader, writer = await self._connect()
            try:
                writer.write(_encode_request(method, path, self.host, body))
                await writer.drain()
                return await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")  # pragma: no cover

    async def get(self, path: str) -> HttpResponse:
        """``GET path``."""
        return await self.request("GET", path)

    async def post(
        self, path: str, payload: Optional[Mapping[str, Any]] = None
    ) -> HttpResponse:
        """``POST path`` with a JSON body."""
        return await self.request("POST", path, payload=payload or {})

    async def delete(self, path: str) -> HttpResponse:
        """``DELETE path``."""
        return await self.request("DELETE", path)

    async def close(self) -> None:
        """Close the kept-alive connection (idempotent)."""
        writer = self._writer
        self._reader = self._writer = None
        if writer is not None and not writer.is_closing():
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def __aenter__(self) -> "HttpClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class WebSocketClient:
    """One client-side WebSocket session (text frames, JSON helpers)."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.closed = False
        self.close_code: Optional[int] = None

    @classmethod
    async def connect(cls, host: str, port: int, path: str) -> "WebSocketClient":
        """Open a WebSocket to ``ws://host:port{path}`` (raises on refusal)."""
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            writer.close()
            raise ConnectionError(f"WebSocket upgrade refused: {status_line}")
        expected = ws_frames.accept_key(key).lower()
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                if value.strip().lower() != expected:
                    writer.close()
                    raise ConnectionError("bad Sec-WebSocket-Accept")
                break
        return cls(reader, writer)

    async def send_text(self, text: str) -> None:
        """Send one masked text frame."""
        self._writer.write(ws_frames.encode_text(text, mask=True))
        await self._writer.drain()

    async def recv(self, timeout: Optional[float] = None) -> Optional[str]:
        """The next text message, or ``None`` once the server closed.

        Ping frames are answered transparently; a timeout raises
        :class:`asyncio.TimeoutError`.
        """
        while True:
            if self.closed:
                return None
            frame = await asyncio.wait_for(
                ws_frames.read_message(self._reader), timeout
            )
            if frame.opcode == ws_frames.OP_PING:
                self._writer.write(
                    ws_frames.encode_frame(
                        ws_frames.OP_PONG, frame.payload, mask=True
                    )
                )
                await self._writer.drain()
                continue
            if frame.opcode == ws_frames.OP_PONG:
                continue
            if frame.opcode == ws_frames.OP_CLOSE:
                self.close_code = ws_frames.close_code(frame)
                if not self.closed:
                    self.closed = True
                    try:
                        self._writer.write(
                            ws_frames.encode_close(self.close_code, mask=True)
                        )
                        await self._writer.drain()
                    except ConnectionError:  # pragma: no cover
                        pass
                return None
            return frame.payload.decode("utf-8", "replace")

    async def recv_json(self, timeout: Optional[float] = None) -> Optional[Any]:
        """The next message parsed as JSON, or ``None`` on close."""
        text = await self.recv(timeout)
        return None if text is None else json.loads(text)

    async def close(self, code: int = 1000) -> None:
        """Send a close frame and shut the socket down (idempotent)."""
        if not self.closed:
            self.closed = True
            try:
                self._writer.write(ws_frames.encode_close(code, mask=True))
                await self._writer.drain()
            except ConnectionError:  # pragma: no cover
                pass
        if not self._writer.is_closing():
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def __aenter__(self) -> "WebSocketClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


def _encode_request(method: str, path: str, host: str, body: bytes) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> HttpResponse:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1"):
        raise ConnectionError(f"malformed response line: {lines[0]!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return HttpResponse(status=status, headers=headers, body=body)
