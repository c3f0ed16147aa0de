"""Stdlib wire protocol of the serve front-end.

The monitoring service speaks plain HTTP/1.1 plus RFC 6455 WebSocket
over asyncio streams — no third-party web framework, because the
surface is tiny (a handful of JSON endpoints, one binary streaming
socket) and the deployment constraint is "runs anywhere the Python
toolchain runs".  This module owns everything byte-shaped:

* :func:`read_request` / :func:`response_bytes` — minimal HTTP/1.1
  request parsing and response framing (Content-Length bodies only;
  the service never chunk-encodes).
* :func:`websocket_accept` / :func:`read_ws_frame` /
  :func:`ws_frame` — the WebSocket upgrade handshake and frame codec
  (server side unmasked, client side masked, no fragmentation — a
  chunk is always one frame).
* :func:`pack_chunk` / :func:`unpack_chunk` — the binary
  :class:`~repro.runtime.sources.StreamChunk` wire form (JSON header
  + raw C-order samples), byte-exact across the round trip.
* :class:`ServeClient` — a small *blocking* HTTP/WS client used by
  the tests, the benchmark and ``repro serve --selftest``; keeping it
  here means client and server share one framing implementation.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from ..errors import AnalysisError
from ..runtime.sources import StreamChunk

#: Upload bound: a replay archive bigger than this is refused with
#: 413 instead of buffered (64 windows x 64 streams of float64 smoke
#: traces is ~26 MB; this leaves generous headroom).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: RFC 6455 handshake GUID.
WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes the service speaks.
WS_TEXT = 0x1
WS_BINARY = 0x2
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA
#: The opcodes a client frame may carry (no continuation: fragmented
#: messages are refused; 0x3-0x7 and 0xB-0xF are reserved).
_WS_OPCODES = frozenset({WS_TEXT, WS_BINARY, WS_CLOSE, WS_PING, WS_PONG})

#: Status phrases for the responses the service actually sends.
STATUS_PHRASES: Dict[int, str] = {
    200: "OK",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    503: "Service Unavailable",
}


class ProtocolError(AnalysisError):
    """A peer sent bytes the protocol layer cannot accept."""


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP/1.1 request.

    Attributes
    ----------
    method, path:
        Request line (path with the query string split off).
    query:
        Decoded query parameters.
    headers:
        Header fields, keys lower-cased.
    body:
        Request body (b"" when absent).
    """

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def wants_websocket(self) -> bool:
        """Whether this request asks for the WebSocket upgrade."""
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "upgrade" in self.headers.get("connection", "").lower()
        )

    @property
    def keep_alive(self) -> bool:
        """Whether the connection persists after the response."""
        return "close" not in self.headers.get("connection", "").lower()


async def read_request(
    reader, max_body: int = MAX_BODY_BYTES
) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request from an asyncio stream reader.

    Returns None on a cleanly closed connection (EOF before the
    request line); raises :class:`ProtocolError` on malformed bytes
    or a body above ``max_body``.
    """
    try:
        line = await reader.readline()
        if not line:
            return None
        method, target, _version = line.decode("ascii").split(None, 2)
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        parts = urlsplit(target)
        query = dict(parse_qsl(parts.query))
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"Content-Length {length!r} is not a byte count")
        length = int(length)
    except ValueError as exc:  # also a line past the reader's limit
        raise ProtocolError(f"malformed request: {exc}") from None
    if length > max_body:
        raise ProtocolError(
            f"request body of {length} bytes exceeds the "
            f"{max_body}-byte bound"
        )
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(
        method=method.upper(),
        path=parts.path,
        query=query,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Iterable[Tuple[str, str]] = (),
    keep_alive: bool = True,
) -> bytes:
    """Frame one HTTP/1.1 response."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body


def json_response(
    status: int, payload: object, keep_alive: bool = True
) -> bytes:
    """Frame one JSON response."""
    return response_bytes(
        status,
        (json.dumps(payload) + "\n").encode("utf-8"),
        keep_alive=keep_alive,
    )


# -- WebSocket framing (RFC 6455) ------------------------------------------


def websocket_accept(key: str) -> str:
    """The Sec-WebSocket-Accept digest of a handshake key."""
    digest = hashlib.sha1((key + WS_MAGIC).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def websocket_handshake_bytes(request: HttpRequest) -> bytes:
    """The 101 upgrade response for a WebSocket request."""
    key = request.headers.get("sec-websocket-key")
    if not key:
        raise ProtocolError("websocket upgrade without Sec-WebSocket-Key")
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n"
    ).encode("ascii")


def _mask(payload: bytes, key: bytes) -> bytes:
    """XOR ``payload`` with the repeating 4-byte ``key`` (RFC 6455 §5.3)."""
    data = np.frombuffer(payload, dtype=np.uint8)
    tiled = np.tile(np.frombuffer(key, dtype=np.uint8), data.size // 4 + 1)
    return (data ^ tiled[: data.size]).tobytes()


def ws_frame(
    payload: bytes, opcode: int = WS_BINARY, mask: bool = False
) -> bytes:
    """Frame one unfragmented WebSocket message.

    Servers send unmasked frames; clients must mask (RFC 6455 §5.1).
    """
    head = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        head += key
        return bytes(head) + _mask(payload, key)
    return bytes(head) + payload


async def read_ws_frame(
    reader, max_size: int = MAX_BODY_BYTES
) -> Optional[Tuple[int, bytes]]:
    """Read one client WebSocket frame; ``(opcode, payload)`` or None on EOF.

    Strict per RFC 6455 section 5: a client frame must be masked, set
    no RSV bit and carry a text, binary or control opcode; anything
    else raises :class:`ProtocolError`.  Fragmented messages are
    refused too — the service's chunk protocol is one message per
    frame by construction.  Only a clean EOF before a frame's first
    byte is None; a frame cut short raises
    :class:`asyncio.IncompleteReadError`.
    """
    try:
        head = await reader.readexactly(2)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        return None
    opcode = head[0] & 0x0F
    if head[0] & 0x70:
        raise ProtocolError("websocket RSV bits set without an extension")
    if opcode not in _WS_OPCODES:
        raise ProtocolError(f"unsupported websocket opcode {opcode:#x}")
    if not head[0] & 0x80:
        raise ProtocolError("fragmented websocket frames are not supported")
    if not head[1] & 0x80:
        raise ProtocolError("client websocket frames must be masked")
    length = head[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > max_size:
        raise ProtocolError(
            f"websocket frame of {length} bytes exceeds the "
            f"{max_size}-byte bound"
        )
    key = await reader.readexactly(4)
    payload = await reader.readexactly(length) if length else b""
    return opcode, _mask(payload, key)


# -- StreamChunk wire form -------------------------------------------------

#: Chunk wire magic ("Repro Chunk v1").
CHUNK_MAGIC = b"RPC1"


def pack_chunk(chunk: StreamChunk) -> bytes:
    """Serialize one :class:`StreamChunk` for the wire.

    Layout: 4-byte magic, 4-byte big-endian header length, JSON
    header (shape/dtype/bookkeeping), raw C-order samples.  The round
    trip through :func:`unpack_chunk` is byte-exact, so a streamed
    session stays bit-identical to the recorded one.  Only a chunk of
    samples goes on the wire, not a live chunk of rFFT columns.
    """
    if chunk.samples is None:
        raise AnalysisError("only a chunk of samples can be packed")
    samples = np.ascontiguousarray(chunk.samples)
    header = json.dumps(
        {
            "fs": chunk.fs,
            "start": chunk.start,
            "scenarios": list(chunk.scenarios),
            "trace_indices": [int(i) for i in chunk.trace_indices],
            "labels": list(chunk.labels),
            "shape": list(samples.shape),
            "dtype": samples.dtype.str,
        }
    ).encode("utf-8")
    return (
        CHUNK_MAGIC
        + struct.pack(">I", len(header))
        + header
        + samples.tobytes()
    )


def unpack_chunk(data: bytes) -> StreamChunk:
    """Rebuild a :class:`StreamChunk` from its wire form.

    Bytes that do not decode to a chunk raise :class:`ProtocolError`;
    a decoded chunk the analysis cannot use (``fs`` not finite and
    positive, windows without samples) raises :class:`AnalysisError`.
    """
    if data[:4] != CHUNK_MAGIC:
        raise ProtocolError("not a packed stream chunk (bad magic)")
    try:
        (header_len,) = struct.unpack(">I", data[4:8])
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
        shape = tuple(int(n) for n in header["shape"])
        samples = np.frombuffer(
            data, dtype=np.dtype(header["dtype"]), offset=8 + header_len
        ).reshape(shape)
        return StreamChunk(
            samples=samples.copy(),
            fs=float(header["fs"]),
            start=int(header["start"]),
            scenarios=tuple(header["scenarios"]),
            trace_indices=tuple(int(i) for i in header["trace_indices"]),
            labels=tuple(header["labels"]),
        )
    except (ArithmeticError, LookupError, TypeError, ValueError, struct.error) as exc:
        raise ProtocolError(f"malformed stream chunk: {exc!r}") from None


# -- Blocking client (tests, benchmark, --selftest) ------------------------


class WsConnection:
    """One blocking client-side WebSocket connection."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._file = sock.makefile("rb")

    def send(self, payload: bytes, opcode: int = WS_BINARY) -> None:
        """Send one masked frame (clients must mask)."""
        self._sock.sendall(ws_frame(payload, opcode=opcode, mask=True))

    def send_json(self, payload: object) -> None:
        """Send one JSON text frame."""
        self.send(json.dumps(payload).encode("utf-8"), opcode=WS_TEXT)

    def _readexactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) < n:
            raise ProtocolError("websocket connection closed mid-frame")
        return data

    def recv(self) -> Tuple[int, bytes]:
        """Read one frame; ``(opcode, payload)`` (server frames are
        unmasked, but masked frames are handled for symmetry)."""
        head = self._readexactly(2)
        fin = bool(head[0] & 0x80)
        opcode = head[0] & 0x0F
        if not fin:
            raise ProtocolError(
                "fragmented websocket frames are not supported"
            )
        masked = bool(head[1] & 0x80)
        length = head[1] & 0x7F
        if length == 126:
            (length,) = struct.unpack(">H", self._readexactly(2))
        elif length == 127:
            (length,) = struct.unpack(">Q", self._readexactly(8))
        key = self._readexactly(4) if masked else b""
        payload = self._readexactly(length) if length else b""
        if masked:
            payload = _mask(payload, key)
        return opcode, payload

    def recv_json(self) -> dict:
        """Read one frame and decode it as JSON."""
        opcode, payload = self.recv()
        if opcode == WS_CLOSE:
            raise ProtocolError("websocket closed by peer")
        return json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        """Send a close frame and drop the socket."""
        try:
            self._sock.sendall(ws_frame(b"", opcode=WS_CLOSE, mask=True))
        except OSError:
            pass
        self._file.close()
        self._sock.close()


class ServeClient:
    """Blocking HTTP/WebSocket client for one serve instance.

    The tests, the throughput benchmark and ``repro serve --selftest``
    all drive the service through this class, so client and server
    exercise the same framing code.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "application/json",
    ) -> Tuple[int, dict]:
        """One HTTP exchange; returns ``(status, decoded JSON body)``."""
        sock = self._connect()
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            sock.sendall(head + body)
            raw = b""
            while True:
                block = sock.recv(65536)
                if not block:
                    break
                raw += block
        finally:
            sock.close()
        header_blob, _, payload = raw.partition(b"\r\n\r\n")
        status_line = header_blob.split(b"\r\n", 1)[0].decode("ascii")
        status = int(status_line.split()[1])
        decoded = json.loads(payload.decode("utf-8")) if payload else {}
        return status, decoded

    def get(self, path: str) -> Tuple[int, dict]:
        """GET one JSON endpoint."""
        return self.request("GET", path)

    def post(
        self,
        path: str,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
    ) -> Tuple[int, dict]:
        """POST a body to one JSON endpoint."""
        return self.request("POST", path, body, content_type)

    def websocket(self, path: str) -> WsConnection:
        """Open a WebSocket to ``path`` (handshake included)."""
        sock = self._connect()
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        sock.sendall(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        handle = sock.makefile("rb")
        status_line = handle.readline().decode("ascii")
        headers: Dict[str, str] = {}
        while True:
            line = handle.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        handle.close()
        if " 101 " not in status_line:
            sock.close()
            raise ProtocolError(
                f"websocket upgrade refused: {status_line.strip()}"
            )
        expected = websocket_accept(key)
        if headers.get("sec-websocket-accept") != expected:
            sock.close()
            raise ProtocolError("websocket handshake digest mismatch")
        return WsConnection(sock)
