"""The serve wire layer: HTTP parsing, WS framing, the envelope."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.serve.wire import (MAX_REQUEST_BYTES, OP_BINARY, OP_CLOSE,
                              OP_CONT, OP_PING, OP_TEXT, TEST_MASK_KEY,
                              HttpRequest, SnapshotEnvelope, WireError,
                              client_handshake, close_frame,
                              dump_document, encode_frame,
                              handshake_response, http_response,
                              read_frame, read_request,
                              websocket_accept)
from repro.stream import LinkSnapshot, StageCounters


def run(coro):
    return asyncio.run(coro)


async def _reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def link_snapshot(link: str = "C1-O12",
                  time_us: int = 1_000_000) -> LinkSnapshot:
    return LinkSnapshot(
        link=link, time_us=time_us, packets=4, events=3, failures=0,
        late_items=0, order_violations=1, reorder_pending=0,
        reassemblers=0,
        stages={"ingest": StageCounters(received=4, emitted=4)},
        eviction={"sweeps": 1},
        analyzers={"chains": {"connections": 1}})


class TestEnvelope:
    def test_to_json_wraps_snapshot(self):
        snapshot = link_snapshot()
        envelope = SnapshotEnvelope(seq=7, time_us=snapshot.time_us,
                                    snapshot=snapshot)
        document = envelope.to_json()
        assert set(document) == {"seq", "time_us", "snapshot"}
        assert document["seq"] == 7
        assert document["snapshot"] == snapshot.to_json()

    def test_dump_document_is_canonical(self):
        document = {"b": 1, "a": {"z": [2, 3], "y": "x"}}
        first = dump_document(document)
        second = dump_document(json.loads(first.decode("utf-8")))
        assert first == second
        assert b" " not in first  # minimal separators
        assert first.index(b'"a"') < first.index(b'"b"')


class TestReadRequest:
    def test_parses_method_path_query_headers(self):
        head = (b"GET /links/C1-O12/history?since_us=5&limit= "
                b"HTTP/1.1\r\nHost: h\r\nX-Thing:  padded  \r\n\r\n")
        request = run(_request(head))
        assert request.method == "GET"
        assert request.path == "/links/C1-O12/history"
        assert request.query == {"since_us": "5", "limit": ""}
        assert request.header("x-thing") == "padded"
        assert request.header("X-Thing") == "padded"
        assert not request.wants_websocket

    def test_clean_eof_returns_none(self):
        assert run(_request(b"")) is None

    def test_partial_head_raises(self):
        with pytest.raises(WireError, match="mid-request"):
            run(_request(b"GET / HTTP/1.1\r\nHost:"))

    def test_malformed_request_line_raises(self):
        with pytest.raises(WireError, match="request line"):
            run(_request(b"GET /\r\n\r\n"))
        with pytest.raises(WireError, match="request line"):
            run(_request(b"GET / SPDY/3\r\n\r\n"))

    def test_malformed_header_raises(self):
        with pytest.raises(WireError, match="header"):
            run(_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"))

    def test_oversized_head_raises(self):
        filler = b"X-Pad: " + b"a" * MAX_REQUEST_BYTES + b"\r\n"
        with pytest.raises(WireError, match="too large"):
            run(_request(b"GET / HTTP/1.1\r\n" + filler + b"\r\n"))

    def test_websocket_upgrade_detected(self):
        request = run(_request(client_handshake("h", 1)))
        assert request.path == "/ws"
        assert request.wants_websocket


async def _request(data: bytes) -> HttpRequest | None:
    return await read_request(await _reader(data))


class TestHttpResponse:
    def test_head_and_body(self):
        response = http_response(200, b'{"x":1}')
        head, _sep, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 7" in head
        assert b"Connection: close" in head
        assert b"Content-Type: application/json" in head
        assert body == b'{"x":1}'

    def test_extra_headers_and_unknown_status(self):
        response = http_response(418, extra_headers={"X-A": "b"})
        assert response.startswith(b"HTTP/1.1 418 Unknown\r\n")
        assert b"X-A: b" in response


class TestWebSocketHandshake:
    def test_rfc6455_accept_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert websocket_accept("dGhlIHNhbXBsZSBub25jZQ==") \
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_handshake_response_echoes_accept(self):
        request = run(_request(client_handshake("h", 1, key="abc")))
        response = handshake_response(request)
        assert response.startswith(
            b"HTTP/1.1 101 Switching Protocols\r\n")
        accept = websocket_accept("abc").encode("latin-1")
        assert b"Sec-WebSocket-Accept: " + accept in response

    def test_handshake_without_key_raises(self):
        head = (b"GET /ws HTTP/1.1\r\nUpgrade: websocket\r\n"
                b"Connection: Upgrade\r\n\r\n")
        with pytest.raises(WireError, match="key"):
            handshake_response(run(_request(head)))


class TestFrames:
    @pytest.mark.parametrize("mask", [None, TEST_MASK_KEY])
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 70_000])
    def test_round_trip(self, mask, size):
        payload = bytes(index % 251 for index in range(size))
        frame = encode_frame(payload, opcode=OP_BINARY,
                             mask_key=mask)
        assert run(_frame(frame)) == (OP_BINARY, payload)

    def test_unmasked_frame_bytes_are_deterministic(self):
        # The shared-broadcast invariant depends on one encoded frame
        # being valid for every client: no mask, no randomness.
        assert encode_frame(b"abc") == encode_frame(b"abc")
        assert encode_frame(b"abc")[0] == 0x80 | OP_TEXT
        assert encode_frame(b"abc")[1] == 3  # mask bit clear

    def test_bad_mask_key_rejected(self):
        with pytest.raises(WireError, match="4 bytes"):
            encode_frame(b"x", mask_key=b"\x00\x01")

    def test_continuation_fragments_assemble(self):
        frames = (encode_frame(b"hel", opcode=OP_TEXT, fin=False)
                  + encode_frame(b"lo ", opcode=OP_CONT, fin=False)
                  + encode_frame(b"fleet", opcode=OP_CONT, fin=True))
        assert run(_frame(frames)) == (OP_TEXT, b"hello fleet")

    def test_new_frame_mid_message_starts_over(self):
        # A non-continuation frame inside a fragmented message starts
        # a new message; the partial one is dropped.
        frames = (encode_frame(b"stale", opcode=OP_TEXT, fin=False)
                  + encode_frame(b"hb", opcode=OP_PING,
                                 mask_key=TEST_MASK_KEY))
        assert run(_frame(frames)) == (OP_PING, b"hb")

    def test_orphan_continuation_raises(self):
        with pytest.raises(WireError, match="continuation"):
            run(_frame(encode_frame(b"x", opcode=OP_CONT)))

    def test_clean_eof_returns_none(self):
        assert run(_frame(b"")) is None

    def test_truncated_frame_raises(self):
        frame = encode_frame(b"hello")[:3]
        with pytest.raises(WireError, match="mid-frame"):
            run(_frame(frame))

    def test_close_frame_carries_code(self):
        opcode, payload = run(_frame(close_frame(1001,
                                                 TEST_MASK_KEY)))
        assert opcode == OP_CLOSE
        assert payload == (1001).to_bytes(2, "big")

    def test_ping_frame_round_trip(self):
        frame = encode_frame(b"hb", opcode=OP_PING,
                             mask_key=TEST_MASK_KEY)
        assert run(_frame(frame)) == (OP_PING, b"hb")


class TestControlFrames:
    """RFC 6455 §5.5: a control frame carries at most 125 octets and
    is never fragmented."""

    def test_125_octet_ping_is_read(self):
        frame = encode_frame(b"p" * 125, opcode=OP_PING,
                             mask_key=TEST_MASK_KEY)
        assert run(_frame(frame)) == (OP_PING, b"p" * 125)

    def test_126_octet_ping_raises(self):
        frame = encode_frame(b"p" * 126, opcode=OP_PING,
                             mask_key=TEST_MASK_KEY)
        with pytest.raises(WireError, match="control frame"):
            run(_frame(frame))

    def test_fragmented_ping_raises(self):
        frames = (encode_frame(b"h", opcode=OP_PING, fin=False)
                  + encode_frame(b"b", opcode=OP_CONT, fin=True))
        with pytest.raises(WireError, match="control frame"):
            run(_frame(frames))

    def test_huge_close_raises_before_its_payload(self):
        """A close frame declaring 2^62 octets fails on its header;
        the payload is never awaited (the stream stays open)."""
        async def read_header_only():
            reader = asyncio.StreamReader()
            reader.feed_data(bytes([0x80 | OP_CLOSE, 127])
                             + struct.pack(">Q", 1 << 62))
            return await asyncio.wait_for(read_frame(reader), 1)

        with pytest.raises(WireError, match="control frame"):
            run(read_header_only())


async def _frame(data: bytes):
    return await read_frame(await _reader(data))
