"""HTTP/1.1 and WebSocket wire primitives (stdlib only).

``repro serve`` speaks to browsers, dashboards and scrapers over two
protocols on one port: plain HTTP for request/response queries and
WebSocket (RFC 6455) for the snapshot push stream.  Neither needs a
framework — the subset below (request parsing, response formatting,
the upgrade handshake, frame encode/decode) is small enough to own,
and owning it keeps the serving stack importable in the bare test
container.

The serialized payload contract lives here too:
:class:`SnapshotEnvelope` is the one document shape every subscriber
receives — ``{"seq": N, "time_us": T, "snapshot": <schema-2 doc>}``.
Its key inventory is machine-checked against the schema table in
``docs/streaming.md`` by the ``schema-drift`` lint rule, exactly like
the snapshot ``to_json`` forms it wraps.  Served documents are
spliced from bytes the snapshots encode once
(:attr:`~repro.stream.snapshots.LinkSnapshot.document`,
:attr:`~repro.stream.snapshots.FleetSnapshot.members`).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Union
from urllib.parse import parse_qsl, urlsplit

from ..simnet.clock import Ticks
from ..stream.snapshots import (FleetSnapshot, LinkSnapshot,
                                dump_document)

#: Upper bound on one request head (request line + headers).
MAX_REQUEST_BYTES = 32 * 1024

#: RFC 6455 magic GUID for the accept-key digest.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket frame opcodes (the subset the server handles).
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Fixed masking key for the in-repo test client.  RFC 6455 masks
#: client frames to defeat cache poisoning through *untrusted*
#: intermediaries; the loopback clients in the tests and the CI smoke
#: script face none, and a constant key keeps every byte of a test
#: exchange reproducible.
TEST_MASK_KEY = b"\x37\xfa\x21\x3d"

_REASONS = {200: "OK", 101: "Switching Protocols", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 426: "Upgrade Required",
            503: "Service Unavailable"}


class WireError(ValueError):
    """A malformed HTTP request head or WebSocket frame."""


class MessageTooBig(WireError):
    """A WebSocket message over the reader's bound (close 1009)."""


@dataclass(frozen=True, slots=True)
class SnapshotEnvelope:
    """The served payload: one poll's snapshot plus its sequence.

    ``seq`` increases by one per poll of the monitor loop (so a
    subscriber can detect conflated skips), ``time_us`` is the
    snapshot's own stream clock, and ``snapshot`` is the typed
    schema-2 snapshot — a :class:`~repro.stream.snapshots.
    FleetSnapshot` for fleets, a :class:`~repro.stream.snapshots.
    LinkSnapshot` for a single-link monitor.
    """

    seq: int
    time_us: Ticks
    snapshot: Union[FleetSnapshot, LinkSnapshot]

    def to_json(self) -> dict[str, Any]:
        """The wire form (plain JSON-serializable dict)."""
        return {
            "seq": self.seq,
            "time_us": self.time_us,
            "snapshot": self.snapshot.to_json(),
        }


def member_prefix(key: str) -> bytes:
    """The canonical ``"key":`` that opens one member of a document:
    the key as :func:`dump_document` escapes it (ASCII-only JSON)."""
    return (encode_basestring_ascii(key) + ":").encode("ascii")


#: Decodes one JSON value at an offset: how :func:`insert_members`
#: steps over the members it keeps as bytes.
_DECODER = json.JSONDecoder()


def insert_members(document: bytes, encoded: Mapping[str, bytes]) -> bytes:
    """:func:`dump_document` of a document, some members spliced in.

    ``document`` is a :func:`dump_document` object and ``encoded`` maps
    each further key to its whole member, already canonical:
    :func:`member_prefix` of the key followed by a :func:`dump_document`
    result.  A sub-document serialized once is then reused by every
    later document that holds it unchanged.  Each member lands at its
    sorted place among the top-level members of ``document``, which
    are kept byte for byte (a value is decoded only to find where it
    ends), so the result equals :func:`dump_document` of the merged
    document, even for a value a JSON round trip would change.  The
    two must not share a key.
    """
    text = document.decode("ascii")  # dump_document escapes the rest
    parts: list[bytes] = []
    start = index = 1
    for key in sorted(encoded):
        end = start
        while text[index] != "}":
            name, colon = _DECODER.raw_decode(text, index)
            if name > key:
                break
            _value, end = _DECODER.raw_decode(text, colon + 1)
            index = end + 1 if text[end] == "," else end
        if end > start:
            parts.append(document[start:end])
        parts.append(encoded[key])
        start = index
    if start < len(document) - 1:
        parts.append(document[start:-1])
    return b"{" + b",".join(parts) + b"}"


def splice_document(members: Mapping[str, Any],
                    encoded: Mapping[str, bytes]) -> bytes:
    """:func:`insert_members` into the canonical ``members``."""
    return insert_members(dump_document(members), encoded)


def links_member(documents: Mapping[str, bytes]) -> bytes:
    """The ``"links":{...}`` member of a fleet document.

    ``documents`` maps each link name to its canonical document
    (:attr:`~repro.stream.snapshots.LinkSnapshot.document`).
    """
    return member_prefix("links") + splice_document({}, {
        name: member_prefix(name) + document
        for name, document in documents.items()})


# -- HTTP ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """One parsed request head (the server never reads bodies)."""

    method: str
    target: str
    path: str
    query: Mapping[str, str]
    headers: Mapping[str, str]

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_websocket(self) -> bool:
        return ("websocket" in self.header("upgrade").lower()
                and "upgrade" in self.header("connection").lower())


async def read_request(
        reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request head; ``None`` on a clean EOF before data."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise WireError("request head too large") from exc
    if len(head) > MAX_REQUEST_BYTES:
        raise WireError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise WireError(f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. "//[x": an unclosed IPv6 host
        raise WireError(f"malformed request target {target!r}") from exc
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise WireError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return HttpRequest(method=method, target=target,
                       path=split.path or "/", query=query,
                       headers=headers)


def http_response(status: int, body: bytes = b"",
                  content_type: str = "application/json",
                  extra_headers: Mapping[str, str] | None = None
                  ) -> bytes:
    """One full HTTP/1.1 response (always ``Connection: close``)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def json_response(status: int, document: Mapping[str, Any]) -> bytes:
    return http_response(status, dump_document(document))


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"error": message})


# -- WebSocket -------------------------------------------------------


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client key."""
    digest = hashlib.sha1(
        (key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def handshake_response(request: HttpRequest) -> bytes:
    """The 101 upgrade response for a WebSocket request head."""
    key = request.header("sec-websocket-key")
    if not key:
        raise WireError("websocket upgrade without a key")
    head = ("HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {websocket_accept(key)}\r\n\r\n")
    return head.encode("latin-1")


def encode_frame(payload: bytes, opcode: int = OP_TEXT,
                 mask_key: bytes | None = None,
                 fin: bool = True) -> bytes:
    """One WebSocket frame.

    Servers send unmasked frames (``mask_key=None``) — which is what
    lets one encoded broadcast frame be shared verbatim by every
    subscriber.  Clients must mask; the test client passes
    :data:`TEST_MASK_KEY`.
    """
    head = bytearray()
    head.append((0x80 if fin else 0x00) | (opcode & 0x0F))
    mask_bit = 0x80 if mask_key is not None else 0x00
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head.extend(struct.pack(">H", length))
    else:
        head.append(mask_bit | 127)
        head.extend(struct.pack(">Q", length))
    if mask_key is None:
        return bytes(head) + payload
    if len(mask_key) != 4:
        raise WireError("mask key must be 4 bytes")
    head.extend(mask_key)
    masked = bytes(byte ^ mask_key[index % 4]
                   for index, byte in enumerate(payload))
    return bytes(head) + masked


def close_frame(code: int = 1000,
                mask_key: bytes | None = None) -> bytes:
    return encode_frame(struct.pack(">H", code), opcode=OP_CLOSE,
                        mask_key=mask_key)


async def read_frame(reader: asyncio.StreamReader,
                     max_message: int | None = None
                     ) -> tuple[int, bytes] | None:
    """One ``(opcode, payload)`` frame; ``None`` on a clean EOF.

    Handles masked (client) and unmasked (server) frames alike.
    Continuation fragments are assembled into the initiating frame
    before returning, so callers only ever see whole messages.  A
    control frame (close, ping, pong) that is fragmented or declares
    more than 125 octets (RFC 6455 §5.5) raises :class:`WireError`
    from its length octet, before any payload is read.  With
    ``max_message``, a frame whose declared length would take its
    message past that many octets raises :class:`MessageTooBig` from
    its header, before its payload is read: the server bounds what
    one client can make it buffer.
    """
    message: bytearray | None = None
    opcode = OP_CONT
    while True:
        try:
            head = await reader.readexactly(2)
        except asyncio.IncompleteReadError as exc:
            # EOF on a frame boundary is a clean close; inside a
            # fragmented message (or mid-head) it is a protocol error.
            if not exc.partial and message is None:
                return None
            raise WireError("connection closed mid-frame") from exc
        try:
            fin = bool(head[0] & 0x80)
            frame_op = head[0] & 0x0F
            masked = bool(head[1] & 0x80)
            length = head[1] & 0x7F
            if frame_op >= OP_CLOSE and (not fin or length > 125):
                raise WireError(
                    f"control frame 0x{frame_op:x} fragmented or over "
                    "125 octets")
            if length == 126:
                length = struct.unpack(
                    ">H", await reader.readexactly(2))[0]
            elif length == 127:
                length = struct.unpack(
                    ">Q", await reader.readexactly(8))[0]
            if max_message is not None:
                held = (len(message) if frame_op == OP_CONT
                        and message is not None else 0)
                if held + length > max_message:
                    raise MessageTooBig(
                        f"message over {max_message} octets")
            mask_key = await reader.readexactly(4) if masked else b""
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise WireError("connection closed mid-frame") from exc
        if masked:
            payload = bytes(byte ^ mask_key[index % 4]
                            for index, byte in enumerate(payload))
        if frame_op != OP_CONT:
            opcode = frame_op
            message = bytearray(payload)
        elif message is None:
            raise WireError("continuation frame with nothing to "
                            "continue")
        else:
            message.extend(payload)
        if fin:
            return opcode, bytes(message)


def client_handshake(host: str, port: int, path: str = "/ws",
                     key: str = "cmVwcm8tc2VydmUtdGVzdAo=") -> bytes:
    """The request head the in-repo WebSocket test client sends."""
    return (f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n").encode("latin-1")
