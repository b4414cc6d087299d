"""Totality of :meth:`CapturedPacket.decode` on untrusted bytes.

A capture is untrusted input, so one malformed frame must be counted
by the caller, never raised: ``decode`` returns a packet or ``None``
for arbitrary bytes and for valid frames that are truncated, have one
bit flipped or carry a TTL of 0.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netstack.addresses import ipv4, mac
from repro.netstack.checksum import internet_checksum
from repro.netstack.ethernet import HEADER_SIZE
from repro.netstack.packet import CapturedPacket
from repro.netstack.tcp import TCPFlags, TCPSegment

SRC_IP = ipv4("10.0.0.1")
DST_IP = ipv4("10.1.0.7")
SRC_MAC = mac("02:00:00:00:00:01")
DST_MAC = mac("02:00:00:00:00:02")

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def valid_frames(draw) -> bytes:
    """One well-formed Ethernet/IPv4/TCP frame."""
    segment = TCPSegment(
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, (1 << 32) - 1)),
        ack=draw(st.integers(0, (1 << 32) - 1)),
        flags=TCPFlags.decode(draw(st.integers(0, 0x3F))),
        window=draw(st.integers(0, 0xFFFF)),
        payload=draw(st.binary(max_size=64)))
    packet = CapturedPacket.build(
        0, SRC_MAC, DST_MAC, SRC_IP, DST_IP, segment,
        ip_id=draw(st.integers(0, 0xFFFF)))
    return packet.encode()


def with_ttl_zero(frame: bytes) -> bytes:
    """``frame`` with TTL 0 under a correct IPv4 header checksum."""
    header = bytearray(frame[HEADER_SIZE:HEADER_SIZE + 20])
    header[8] = 0  # TTL
    header[10:12] = b"\x00\x00"
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return frame[:HEADER_SIZE] + bytes(header) + frame[HEADER_SIZE + 20:]


def decode(frame: bytes) -> CapturedPacket | None:
    packet = CapturedPacket.decode(1, frame)
    assert packet is None or isinstance(packet, CapturedPacket)
    return packet


class TestDecodeIsTotal:
    @PROPERTY
    @given(st.binary(max_size=128))
    def test_arbitrary_bytes(self, data):
        decode(data)

    @PROPERTY
    @given(valid_frames())
    def test_valid_frame_decodes(self, frame):
        packet = decode(frame)
        assert packet is not None
        assert packet.encode() == frame

    @PROPERTY
    @given(valid_frames(), st.data())
    def test_truncated_frame(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        decode(frame[:cut])

    @PROPERTY
    @given(valid_frames(), st.data())
    def test_bit_flipped_frame(self, frame, data):
        """Only the unchecked MAC addresses survive a flipped bit:
        the EtherType stops being IPv4, and the IPv4 header and TCP
        checksums catch any flip in what they cover."""
        bit = data.draw(st.integers(0, len(frame) * 8 - 1))
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << (bit % 8)
        packet = decode(bytes(flipped))
        if bit // 8 < 12:
            assert packet is not None
        else:
            assert packet is None

    @PROPERTY
    @given(valid_frames())
    def test_ttl_zero_frame(self, frame):
        """TTL 0 under a correct header checksum fails only the
        packet's field validation."""
        assert decode(with_ttl_zero(frame)) is None
