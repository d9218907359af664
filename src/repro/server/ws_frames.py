"""RFC 6455 WebSocket framing shared by the server and the client.

Only the subset a push channel needs: the opening-handshake accept key,
frame encoding (server frames unmasked, client frames masked as the RFC
requires) and an asyncio frame reader that transparently reassembles
fragmented messages.  Compression extensions and subprotocols are out of
scope — deltas are small JSON texts.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from dataclasses import dataclass

#: The fixed GUID of the WebSocket opening handshake (RFC 6455 §1.3).
WS_ACCEPT_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Upper bound on a single incoming frame (sanity cap, not a protocol limit).
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WebSocketProtocolError(Exception):
    """A malformed or oversized WebSocket frame."""


@dataclass(frozen=True)
class Frame:
    """One decoded WebSocket frame (payload already unmasked)."""

    opcode: int
    payload: bytes
    fin: bool = True


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((client_key + WS_ACCEPT_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(opcode: int, payload: bytes, mask: bool = False) -> bytes:
    """Encode one complete (FIN) frame.

    ``mask=True`` applies a fresh random masking key — required for every
    client-to-server frame; servers always send unmasked.
    """
    header = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask:
        key = os.urandom(4)
        header += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


def encode_text(text: str, mask: bool = False) -> bytes:
    """Encode a text message frame."""
    return encode_frame(OP_TEXT, text.encode("utf-8"), mask=mask)


def encode_close(code: int = 1000, reason: str = "", mask: bool = False) -> bytes:
    """Encode a close frame with a status code and optional reason."""
    return encode_frame(
        OP_CLOSE, struct.pack("!H", code) + reason.encode("utf-8"), mask=mask
    )


def close_code(frame: Frame) -> int:
    """The status code carried by a close frame (1005 when absent)."""
    if len(frame.payload) >= 2:
        return int(struct.unpack("!H", frame.payload[:2])[0])
    return 1005


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read one frame from ``reader`` (unmasking if the mask bit is set).

    Raises :class:`WebSocketProtocolError` on malformed input and
    ``asyncio.IncompleteReadError`` when the peer hangs up mid-frame.
    """
    first = await reader.readexactly(2)
    fin = bool(first[0] & 0x80)
    opcode = first[0] & 0x0F
    masked = bool(first[1] & 0x80)
    length = first[1] & 0x7F
    if length == 126:
        length = int(struct.unpack("!H", await reader.readexactly(2))[0])
    elif length == 127:
        length = int(struct.unpack("!Q", await reader.readexactly(8))[0])
    if length > MAX_FRAME_BYTES:
        raise WebSocketProtocolError(f"frame of {length} bytes exceeds the cap")
    key = await reader.readexactly(4) if masked else b""
    payload = await reader.readexactly(length) if length else b""
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return Frame(opcode=opcode, payload=payload, fin=fin)


async def read_message(reader: asyncio.StreamReader) -> Frame:
    """Read one complete *data* message, reassembling continuation frames.

    Control frames (close/ping/pong) interleaved inside a fragmented
    message are returned immediately — the caller handles them and calls
    again.  The returned frame always has ``fin=True`` for data opcodes.
    """
    frame = await read_frame(reader)
    if frame.opcode in (OP_CLOSE, OP_PING, OP_PONG) or frame.fin:
        return frame
    opcode = frame.opcode
    parts = [frame.payload]
    while True:
        nxt = await read_frame(reader)
        if nxt.opcode in (OP_CLOSE, OP_PING, OP_PONG):
            return nxt
        if nxt.opcode != OP_CONT:
            raise WebSocketProtocolError("expected a continuation frame")
        parts.append(nxt.payload)
        if nxt.fin:
            return Frame(opcode=opcode, payload=b"".join(parts), fin=True)
