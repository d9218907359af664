"""A stdlib asyncio HTTP/1.1 + WebSocket server driving any ASGI app.

``repro-ksir server`` runs the serving tier on this module, and so do its
tests and its load benchmark: no dependency beyond the standard library.
It implements the slice of HTTP/1.1 the tier needs — request line, headers,
``Content-Length`` bodies, keep-alive — and upgrades to RFC 6455
WebSockets using the shared framing in :mod:`repro.server.ws_frames`.

The bridge follows the ASGI 3.0 connection scopes (``http``,
``websocket``), so the application it serves is a plain ASGI 3 app that
any other ASGI server can host unchanged.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, List, MutableMapping, Optional, Tuple

from repro.server import ws_frames

ASGIApp = Callable[
    [MutableMapping[str, Any], Callable[[], Awaitable[Any]], Callable[[Any], Awaitable[None]]],
    Awaitable[None],
]

#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024
#: Upper bound on a request body.
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_PHRASES = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 411: "Length Required", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
    501: "Not Implemented",
}


class ServerHandle:
    """A started server: address, graceful stop, async context manager."""

    def __init__(self, server: asyncio.AbstractServer, host: str) -> None:
        self._server = server
        self.host = host
        sockets = server.sockets or []
        self.port = int(sockets[0].getsockname()[1]) if sockets else 0

    @property
    def url(self) -> str:
        """The HTTP base URL of the bound socket."""
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Stop accepting connections and wait for the listener to close."""
        self._server.close()
        await self._server.wait_closed()

    async def __aenter__(self) -> "ServerHandle":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()


async def serve(app: ASGIApp, host: str = "127.0.0.1", port: int = 0) -> ServerHandle:
    """Start serving ``app``; ``port=0`` binds an ephemeral port."""

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _handle_connection(app, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:  # noqa: BLE001 - a broken connection must not kill the server
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 # pragma: no cover
                pass

    server = await asyncio.start_server(on_connection, host=host, port=port)
    return ServerHandle(server, host)


def run(app: ASGIApp, host: str = "127.0.0.1", port: int = 8000) -> None:
    """Serve ``app`` until interrupted (the CLI's blocking entry point)."""

    async def main() -> None:
        async with _Lifespan(app) as _:
            handle = await serve(app, host=host, port=port)
            print(f"serving on {handle.url} (stdlib asgi server)")
            try:
                await asyncio.Event().wait()
            finally:
                await handle.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class _Lifespan:
    """Drives the ASGI lifespan protocol around a serving run."""

    def __init__(self, app: ASGIApp) -> None:
        self._app = app
        self._to_app: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        self._startup = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._task: Optional["asyncio.Task[None]"] = None

    async def __aenter__(self) -> "_Lifespan":
        scope = {"type": "lifespan", "asgi": {"version": "3.0"}}

        async def receive() -> Dict[str, Any]:
            return await self._to_app.get()

        async def send(message: Any) -> None:
            kind = message.get("type", "")
            if kind.startswith("lifespan.startup"):
                self._startup.set()
            elif kind.startswith("lifespan.shutdown"):
                self._shutdown.set()

        self._task = asyncio.ensure_future(self._app(scope, receive, send))
        await self._to_app.put({"type": "lifespan.startup"})
        await self._startup.wait()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self._to_app.put({"type": "lifespan.shutdown"})
        await self._shutdown.wait()
        if self._task is not None:
            await self._task


async def _handle_connection(
    app: ASGIApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    while True:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return
        except asyncio.LimitOverrunError:
            await _write_simple(writer, 413, "request head too large")
            return
        if len(head) > MAX_HEAD_BYTES:
            await _write_simple(writer, 413, "request head too large")
            return
        try:
            method, target, headers = _parse_head(head)
        except ValueError as error:
            await _write_simple(writer, 400, str(error))
            return

        if headers.get("upgrade", "").lower() == "websocket":
            await _serve_websocket(app, reader, writer, method, target, headers)
            return

        if "transfer-encoding" in headers:
            await _write_simple(writer, 501, "chunked bodies are not supported")
            return
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            await _write_simple(writer, 400, "bad Content-Length")
            return
        if length > MAX_BODY_BYTES:
            await _write_simple(writer, 413, "request body too large")
            return
        body = await reader.readexactly(length) if length else b""

        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        await _serve_http(app, writer, method, target, headers, body, keep_alive)
        if not keep_alive:
            return


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ValueError("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError("malformed header line")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


def _split_target(target: str) -> Tuple[str, bytes]:
    path, _, query = target.partition("?")
    return path, query.encode("latin-1")


async def _serve_http(
    app: ASGIApp,
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    headers: Dict[str, str],
    body: bytes,
    keep_alive: bool,
) -> None:
    path, query_string = _split_target(target)
    scope: Dict[str, Any] = {
        "type": "http",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "method": method,
        "path": path,
        "raw_path": target.encode("latin-1"),
        "query_string": query_string,
        "headers": [
            (name.encode("latin-1"), value.encode("latin-1"))
            for name, value in headers.items()
        ],
    }
    messages = iter([
        {"type": "http.request", "body": body, "more_body": False},
        {"type": "http.disconnect"},
    ])

    async def receive() -> Dict[str, Any]:
        return next(messages, {"type": "http.disconnect"})

    state: Dict[str, Any] = {"status": 500, "headers": [], "chunks": []}

    async def send(message: Any) -> None:
        kind = message.get("type")
        if kind == "http.response.start":
            state["status"] = int(message.get("status", 200))
            state["headers"] = list(message.get("headers", []))
        elif kind == "http.response.body":
            state["chunks"].append(bytes(message.get("body", b"")))

    try:
        await app(scope, receive, send)
        payload = b"".join(state["chunks"])
        response_headers = list(state["headers"])
        status = state["status"]
    except Exception:  # noqa: BLE001 - app errors become a 500, connection survives
        payload = json.dumps({"error": "internal server error"}).encode("utf-8")
        response_headers = [(b"content-type", b"application/json")]
        status = 500
    names = {name.lower() for name, _ in response_headers}
    if b"content-length" not in names:
        response_headers.append(
            (b"content-length", str(len(payload)).encode("latin-1"))
        )
    response_headers.append(
        (b"connection", b"keep-alive" if keep_alive else b"close")
    )
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {phrase}".encode("latin-1")]
    head.extend(name + b": " + value for name, value in response_headers)
    writer.write(b"\r\n".join(head) + b"\r\n\r\n" + payload)
    await writer.drain()


async def _serve_websocket(
    app: ASGIApp,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    headers: Dict[str, str],
) -> None:
    key = headers.get("sec-websocket-key")
    if method != "GET" or key is None:
        await _write_simple(writer, 400, "malformed WebSocket handshake")
        return
    path, query_string = _split_target(target)
    scope: Dict[str, Any] = {
        "type": "websocket",
        "asgi": {"version": "3.0"},
        "http_version": "1.1",
        "scheme": "ws",
        "path": path,
        "raw_path": target.encode("latin-1"),
        "query_string": query_string,
        "headers": [
            (name.encode("latin-1"), value.encode("latin-1"))
            for name, value in headers.items()
        ],
        "subprotocols": [],
    }
    accepted = False
    closed = False
    first_receive: List[bool] = [True]

    async def receive() -> Dict[str, Any]:
        if first_receive[0]:
            first_receive[0] = False
            return {"type": "websocket.connect"}
        while True:
            try:
                frame = await ws_frames.read_message(reader)
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                ws_frames.WebSocketProtocolError,
            ):
                return {"type": "websocket.disconnect", "code": 1006}
            if frame.opcode == ws_frames.OP_PING:
                writer.write(ws_frames.encode_frame(ws_frames.OP_PONG, frame.payload))
                await writer.drain()
                continue
            if frame.opcode == ws_frames.OP_PONG:
                continue
            if frame.opcode == ws_frames.OP_CLOSE:
                if not closed:
                    try:
                        writer.write(
                            ws_frames.encode_close(ws_frames.close_code(frame))
                        )
                        await writer.drain()
                    except ConnectionError:  # pragma: no cover
                        pass
                return {
                    "type": "websocket.disconnect",
                    "code": ws_frames.close_code(frame),
                }
            if frame.opcode == ws_frames.OP_TEXT:
                return {
                    "type": "websocket.receive",
                    "text": frame.payload.decode("utf-8", "replace"),
                }
            return {"type": "websocket.receive", "bytes": frame.payload}

    async def send(message: Any) -> None:
        nonlocal accepted, closed
        kind = message.get("type")
        if kind == "websocket.accept":
            accepted = True
            response = (
                b"HTTP/1.1 101 Switching Protocols\r\n"
                b"Upgrade: websocket\r\n"
                b"Connection: Upgrade\r\n"
                b"Sec-WebSocket-Accept: "
                + ws_frames.accept_key(key).encode("ascii")
                + b"\r\n\r\n"
            )
            writer.write(response)
            await writer.drain()
        elif kind == "websocket.send":
            if "text" in message and message["text"] is not None:
                writer.write(ws_frames.encode_text(str(message["text"])))
            else:
                writer.write(
                    ws_frames.encode_frame(
                        ws_frames.OP_BINARY, bytes(message.get("bytes", b""))
                    )
                )
            await writer.drain()
        elif kind == "websocket.close":
            if not accepted:
                await _write_simple(writer, 403, "websocket rejected")
            elif not closed:
                writer.write(
                    ws_frames.encode_close(int(message.get("code", 1000)))
                )
                await writer.drain()
            closed = True

    await app(scope, receive, send)
    if accepted and not closed:
        try:
            writer.write(ws_frames.encode_close(1000))
            await writer.drain()
        except ConnectionError:  # pragma: no cover
            pass


async def _write_simple(
    writer: asyncio.StreamWriter, status: int, message: str
) -> None:
    payload = json.dumps({"error": message}).encode("utf-8")
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    writer.write(
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n".encode("latin-1") + payload
    )
    await writer.drain()
