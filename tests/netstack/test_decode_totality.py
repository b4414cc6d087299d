"""Totality of :meth:`CapturedPacket.decode` on untrusted bytes.

A capture is untrusted input, so one malformed frame must be counted
by the caller, never raised: ``decode`` returns a packet or ``None``
for arbitrary bytes and for valid frames that are truncated, have one
bit flipped or carry a TTL of 0. A valid frame decodes to the packet
it was built from, field by field.

``decode`` checks each header value once, in the layer decoders, and
builds the packet and its layers without running their constructors.
The validating constructors are the oracle: they accept the packet
and every layer and address ``decode`` builds and build an equal
object. Records from both capture scanners carry no instance dict
either.

Decoded addresses are shared: one object per value, from a bounded
per-process table, equal to the object the constructor builds. A
table that fills is dropped, so sharing never changes a value.
"""

from __future__ import annotations

import io
import pickle
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import PacketCapture, extract_apdus
from repro.iec104.constants import IEC104_PORT
from repro.netstack import addresses
from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.checksum import internet_checksum
from repro.netstack.ethernet import HEADER_SIZE
from repro.netstack.ip import IPv4Error, IPv4Packet
from repro.netstack.packet import CapturedPacket
from repro.netstack.pcap import PcapReader, PcapRecord, PcapWriter
from repro.netstack.pcapng import PcapngReader, PcapngWriter
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
    """The packet and every layer and address
    :meth:`CapturedPacket.decode` builds."""
    return {"packet": packet, "ethernet": packet.ethernet,
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

    @PROPERTY
    @given(valid_packets())
    def test_wire_length_is_the_encoded_length(self, built):
        """The packet's derived wire length is its encoded frame's,
        built or decoded."""
        decoded = decode(built.encode())
        assert decoded is not None
        for packet in (built, decoded):
            assert packet.wire_length == len(packet.encode())

    @PROPERTY
    @given(st.lists(valid_packets(), max_size=4))
    def test_scanned_records_carry_no_dict(self, packets):
        """Both scanners build records without an instance dict."""
        records = [PcapRecord(time_us=index, data=packet.encode())
                   for index, packet in enumerate(packets)]
        pcap, pcapng = io.BytesIO(), io.BytesIO()
        PcapWriter(pcap).write_all(records)
        writer = PcapngWriter(pcapng)
        for record in records:
            writer.write_record(record)
        for reader, stream in ((PcapReader, pcap),
                               (PcapngReader, pcapng)):
            scanned = list(reader(io.BytesIO(stream.getvalue())))
            assert [record.data for record in scanned] \
                == [record.data for record in records]
            for record in scanned:
                assert not hasattr(record, "__dict__")
                assert replace(record) == record

    @pytest.mark.parametrize("time_us", [1.5, True])
    def test_non_integer_time_is_a_type_error(self, time_us):
        frame = CapturedPacket.build(
            1, MacAddress(1), MacAddress(2), IPv4Address(3),
            IPv4Address(4), TCPSegment(src_port=1, dst_port=2,
                                       seq=0)).encode()
        with pytest.raises(TypeError, match="integer microseconds"):
            CapturedPacket.decode(time_us, frame)


#: An IEC 104 U-format TESTFR act frame.
TESTFR_ACT = bytes.fromhex("680443000000")


@st.composite
def iec104_packets(draw) -> CapturedPacket:
    """A packet from the IEC 104 port carrying one U-format frame."""
    segment = TCPSegment(src_port=IEC104_PORT,
                         dst_port=draw(st.integers(1024, 0xFFFF)),
                         seq=draw(st.integers(0, (1 << 32) - 1)),
                         payload=TESTFR_ACT)
    return CapturedPacket.build(1, draw(MACS), draw(MACS), draw(IPV4S),
                                draw(IPV4S), segment)


def addresses_of(packet: CapturedPacket) -> tuple[object, ...]:
    """The packet's two MACs and two IPv4 addresses."""
    return (packet.ethernet.dst, packet.ethernet.src, packet.ip.src,
            packet.ip.dst)


@contextmanager
def fresh_tables(limit: int | None = None):
    """Empty shared-address tables capped at ``limit`` entries (the
    module's own cap by default); the tables and the cap are restored
    afterwards."""
    if limit is None:
        limit = addresses._SHARED_LIMIT
    with mock.patch.object(addresses, "_SHARED_LIMIT", limit), \
            mock.patch.dict(addresses._MACS, clear=True), \
            mock.patch.dict(addresses._IPV4S, clear=True):
        yield


class TestSharedAddresses:
    @PROPERTY
    @given(valid_packets())
    def test_decoded_addresses_are_shared_values(self, built):
        """A decoded address equals, hashes and prints as the
        constructor's, survives pickling, and is the same object in
        every decode of its value; constructors build their own."""
        frame = built.encode()
        with fresh_tables():
            first, second = decode(frame), decode(frame)
        assert first is not None and second is not None
        for address, again, twin in zip(addresses_of(first),
                                        addresses_of(second),
                                        addresses_of(built)):
            assert address == twin and hash(address) == hash(twin)
            assert repr(address) == repr(twin)
            assert str(address) == str(twin)
            assert pickle.loads(pickle.dumps(address)) == twin
            assert again is address and twin is not address

    @PROPERTY
    @given(st.lists(valid_packets(), min_size=1, max_size=12))
    def test_a_full_table_is_dropped(self, packets):
        """With the cap at 8, the tables never pass it, and every
        packet, decoded before or after a table was dropped, equals
        the packet it was built from."""
        with fresh_tables(8):
            for built in packets * 2:
                assert decode(built.encode()) == built
                assert len(addresses._MACS) <= 8
                assert len(addresses._IPV4S) <= 8

    def test_more_hosts_than_the_cap(self):
        """100 hosts through tables capped at 8: each table is
        dropped many times over and no decoded value changes."""
        segment = TCPSegment(src_port=1, dst_port=2, seq=0)
        with fresh_tables(8):
            for host in range(100):
                built = CapturedPacket.build(
                    1, MacAddress(host), MacAddress(host + 1000),
                    IPv4Address(host), IPv4Address(host + 1000),
                    segment)
                assert decode(built.encode()) == built
                assert 0 < len(addresses._MACS) <= 8
                assert 0 < len(addresses._IPV4S) <= 8

    def test_threads_racing_on_a_table_change_no_value(self):
        """Four threads decode 400 hosts through tables capped at 8,
        switching every microsecond: a race can lose sharing, or let a
        table pass its cap by one entry per other thread until the
        next insert drops it, but every packet equals its twin."""
        segment = TCPSegment(src_port=1, dst_port=2, seq=0)

        def packets(offset: int) -> list[CapturedPacket]:
            return [CapturedPacket.build(
                1, MacAddress(host), MacAddress(host + 1),
                IPv4Address(host), IPv4Address(host + 1), segment)
                for host in range(offset, offset + 400)]

        built = [packets(offset) for offset in (0, 100, 200, 300)]
        decoded: list[list[CapturedPacket | None]] = [[] for _ in built]

        def run(index: int) -> None:
            decoded[index].extend(decode(packet.encode())
                                  for packet in built[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fresh_tables(8):
                threads = [threading.Thread(target=run, args=(index,))
                           for index in range(len(built))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(addresses._MACS) <= 8 + len(threads) - 1
                assert len(addresses._IPV4S) <= 8 + len(threads) - 1
        finally:
            sys.setswitchinterval(interval)
        assert decoded == built

    @PROPERTY
    @given(st.lists(iec104_packets(), min_size=1, max_size=6),
           st.data())
    def test_pipeline_names_hosts_the_map_omits(self, packets, data):
        """The pipeline names a mapped host by its map entry (an empty
        name too) and any other host ``ip:port``."""
        hosts = sorted({address for packet in packets
                        for address in (packet.ip.src, packet.ip.dst)})
        names = {host: data.draw(st.sampled_from(["", "C1", "O7"]))
                 for host in hosts if data.draw(st.booleans())}
        decoded = [decode(packet.encode()) for packet in packets]
        events = extract_apdus(PacketCapture(packets=decoded,
                                             names=names)).events

        def name(address: IPv4Address, port: int) -> str:
            return names.get(address, f"{address}:{port}")

        assert [(event.src, event.dst) for event in events] \
            == [(name(packet.ip.src, packet.tcp.src_port),
                 name(packet.ip.dst, packet.tcp.dst_port))
                for packet in packets]
