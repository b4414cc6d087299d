"""Totality of :meth:`CapturedPacket.decode` on untrusted bytes.

A capture is untrusted input, so one malformed frame must be counted
by the caller, never raised: ``decode`` returns a packet or ``None``
for arbitrary bytes and for valid frames that are truncated, have one
bit flipped or carry a TTL of 0. A valid frame decodes to the packet
it was built from, field by field.

``decode`` checks each header value once, in the layer decoders, and
builds the layers without running their constructors. The validating
constructors are the oracle: they accept every layer and address
``decode`` builds and build an equal object.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.checksum import internet_checksum
from repro.netstack.ethernet import HEADER_SIZE
from repro.netstack.ip import IPv4Error, IPv4Packet
from repro.netstack.packet import CapturedPacket
from repro.netstack.tcp import TCPFlags, TCPOption, TCPSegment

PROPERTY = settings(max_examples=200, deadline=None)

MACS = st.integers(0, (1 << 48) - 1).map(MacAddress)
IPV4S = st.integers(0, (1 << 32) - 1).map(IPv4Address)
FLAGS = st.builds(TCPFlags, syn=st.booleans(), ack=st.booleans(),
                  fin=st.booleans(), rst=st.booleans(),
                  psh=st.booleans(), urg=st.booleans())
#: Up to five options of at most eight octets each, so the encoded
#: area never passes the 40-octet limit. END (kind 0) is left out: it
#: ends the area, so options after it are padding on the wire.
OPTIONS = st.lists(
    st.one_of(st.just(TCPOption(TCPOption.NOP)),
              st.builds(TCPOption, st.integers(2, 255),
                        st.binary(max_size=6))),
    max_size=5).map(tuple)


@st.composite
def valid_packets(draw) -> CapturedPacket:
    """One well-formed Ethernet/IPv4/TCP packet."""
    segment = TCPSegment(
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, (1 << 32) - 1)),
        ack=draw(st.integers(0, (1 << 32) - 1)),
        flags=draw(FLAGS),
        window=draw(st.integers(0, 0xFFFF)),
        payload=draw(st.binary(max_size=64)),
        options=draw(OPTIONS))
    return CapturedPacket.build(
        1, draw(MACS), draw(MACS), draw(IPV4S), draw(IPV4S), segment,
        ip_id=draw(st.integers(0, 0xFFFF)))


def valid_frames():
    """The encoded form of :func:`valid_packets`."""
    return valid_packets().map(CapturedPacket.encode)


def assert_same_fields(decoded, built) -> None:
    for field in fields(built):
        assert getattr(decoded, field.name) == getattr(built, field.name), \
            field.name


def with_ttl_zero(frame: bytes) -> bytes:
    """``frame`` with TTL 0 under a correct IPv4 header checksum."""
    header = bytearray(frame[HEADER_SIZE:HEADER_SIZE + 20])
    header[8] = 0  # TTL
    header[10:12] = b"\x00\x00"
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return frame[:HEADER_SIZE] + bytes(header) + frame[HEADER_SIZE + 20:]


def flip_bit(frame: bytes, bit: int) -> bytes:
    flipped = bytearray(frame)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


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
    @given(valid_packets())
    def test_valid_frame_decodes(self, built):
        frame = built.encode()
        packet = decode(frame)
        assert packet is not None
        assert packet.encode() == frame
        for layer in ("ethernet", "ip", "tcp"):
            assert_same_fields(getattr(packet, layer),
                               getattr(built, layer))
        assert_same_fields(packet, built)

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
        packet = decode(flip_bit(frame, bit))
        if bit // 8 < 12:
            assert packet is not None
        else:
            assert packet is None

    @PROPERTY
    @given(valid_frames())
    def test_ttl_zero_frame(self, frame):
        """TTL 0 under a correct header checksum fails only the IPv4
        decoder's TTL check."""
        assert decode(with_ttl_zero(frame)) is None


def built_parts(packet: CapturedPacket) -> dict[str, object]:
    """Every layer and address :meth:`CapturedPacket.decode` builds."""
    return {"ethernet": packet.ethernet,
            "ethernet.dst": packet.ethernet.dst,
            "ethernet.src": packet.ethernet.src,
            "ip": packet.ip, "ip.src": packet.ip.src,
            "ip.dst": packet.ip.dst, "tcp": packet.tcp}


def assert_checked_once(packet: CapturedPacket | None) -> None:
    """The constructors rebuild each decoded part as an equal object
    with the same hash; each part survives a pickle round trip (the
    shard pipes carry addresses) and has no instance ``__dict__``."""
    assert packet is not None
    for name, part in built_parts(packet).items():
        rebuilt = replace(part)
        assert rebuilt == part and hash(rebuilt) == hash(part), name
        assert pickle.loads(pickle.dumps(part)) == part, name
        assert not hasattr(part, "__dict__"), name


class TestCheckedOnce:
    @PROPERTY
    @given(valid_packets())
    def test_valid_frame(self, built):
        assert_checked_once(decode(built.encode()))

    @PROPERTY
    @given(valid_frames(), st.integers(0, 12 * 8 - 1))
    def test_mac_flipped_frame(self, frame, bit):
        """The MACs are the one unchecked span, so every flip there
        still decodes."""
        assert_checked_once(decode(flip_bit(frame, bit)))

    @PROPERTY
    @given(valid_frames())
    def test_ttl_zero_is_an_ipv4_error(self, frame):
        with pytest.raises(IPv4Error, match="ttl"):
            IPv4Packet.decode(with_ttl_zero(frame)[HEADER_SIZE:])

    @pytest.mark.parametrize("time_us", [1.5, True])
    def test_non_integer_time_is_a_type_error(self, time_us):
        frame = CapturedPacket.build(
            1, MacAddress(1), MacAddress(2), IPv4Address(3),
            IPv4Address(4), TCPSegment(src_port=1, dst_port=2,
                                       seq=0)).encode()
        with pytest.raises(TypeError, match="integer microseconds"):
            CapturedPacket.decode(time_us, frame)
