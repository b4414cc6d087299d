"""Ethernet / IPv4 / TCP codec tests, including checksums."""

import pytest
from hypothesis import example, given, strategies as st

from repro.netstack.addresses import ipv4, mac
from repro.netstack.checksum import internet_checksum, verify_checksum
from repro.netstack.ethernet import (ETHERTYPE_IPV4, EthernetError,
                                     EthernetFrame)
from repro.netstack.ip import IPv4Error, IPv4Packet, PROTO_TCP
from repro.netstack.packet import CapturedPacket, Endpoint, FlowKey
from repro.netstack.tcp import (PSH_ACK, SYN, TCPError, TCPFlags,
                                TCPSegment)

from .checksum_reference import internet_checksum as reference_checksum

SRC_IP = ipv4("10.0.0.1")
DST_IP = ipv4("10.1.0.7")
SRC_MAC = mac("02:00:00:00:00:01")
DST_MAC = mac("02:00:00:00:00:02")

#: Longest checksum input drawn: one MTU frame and then some.
MAX_FRAME = 1600
BYTES_LIKE = st.sampled_from([bytes, bytearray, memoryview])


def checksum_inputs():
    """Arbitrary octets, plus all-zero and all-0xFF blocks (the
    checksum's edge values), up to :data:`MAX_FRAME` octets."""
    sizes = st.integers(0, MAX_FRAME)
    return st.one_of(st.binary(max_size=MAX_FRAME),
                     sizes.map(bytes),
                     sizes.map(lambda size: b"\xff" * size))


class TestChecksum:
    def test_rfc1071_example(self):
        # RFC 1071 worked example.
        data = bytes((0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7))
        assert internet_checksum(data) == ~0xDDF2 & 0xFFFF

    def test_verify_of_valid_block(self):
        data = b"\x45\x00\x00\x14"
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=0, max_size=200))
    def test_checksum_then_verify(self, data):
        checksum = internet_checksum(data)
        padded = data if len(data) % 2 == 0 else data + b"\x00"
        assert verify_checksum(padded + checksum.to_bytes(2, "big"))

    @given(checksum_inputs(), BYTES_LIKE)
    @example(b"\x00" * MAX_FRAME, memoryview)
    @example(b"\xff" * MAX_FRAME, bytearray)
    @example(b"\xff" * (MAX_FRAME - 1), bytes)
    def test_verify_matches_folded_sum_form(self, data, kind):
        """The arithmetic checksum equals the RFC 1071 word loop with
        its carry fold, value for value, for bytes, bytearray and
        memoryview input alike."""
        expected = reference_checksum(data)
        assert internet_checksum(kind(data)) == expected
        assert verify_checksum(kind(data)) == (expected == 0)


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(dst=DST_MAC, src=SRC_MAC,
                              ethertype=ETHERTYPE_IPV4, payload=b"abc")
        assert EthernetFrame.decode(frame.encode()) == frame

    def test_too_short(self):
        with pytest.raises(EthernetError):
            EthernetFrame.decode(b"\x00" * 13)

    def test_ethertype_range(self):
        with pytest.raises(ValueError):
            EthernetFrame(dst=DST_MAC, src=SRC_MAC, ethertype=0x10000,
                          payload=b"")


class TestIPv4:
    def test_roundtrip(self):
        packet = IPv4Packet(src=SRC_IP, dst=DST_IP, payload=b"hello",
                            identification=99, ttl=33)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded == packet

    def test_checksum_verified(self):
        raw = bytearray(IPv4Packet(src=SRC_IP, dst=DST_IP,
                                   payload=b"x").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(IPv4Error):
            IPv4Packet.decode(bytes(raw))
        # verify=False tolerates it
        assert IPv4Packet.decode(bytes(raw), verify=False).ttl != 64

    def test_total_length_respected(self):
        # Ethernet padding after the IP datagram must be stripped.
        packet = IPv4Packet(src=SRC_IP, dst=DST_IP, payload=b"abc")
        decoded = IPv4Packet.decode(packet.encode() + b"\x00" * 10)
        assert decoded.payload == b"abc"

    def test_rejects_non_v4(self):
        raw = bytearray(IPv4Packet(src=SRC_IP, dst=DST_IP,
                                   payload=b"").encode())
        raw[0] = (6 << 4) | 5
        with pytest.raises(IPv4Error):
            IPv4Packet.decode(bytes(raw))

    def test_rejects_truncated(self):
        with pytest.raises(IPv4Error):
            IPv4Packet.decode(b"\x45\x00")

    def test_rejects_fragment(self):
        raw = bytearray(IPv4Packet(src=SRC_IP, dst=DST_IP,
                                   payload=b"abc",
                                   dont_fragment=False).encode())
        raw[6] = 0x00
        raw[7] = 0x10  # fragment offset 16
        # fix checksum
        raw[10:12] = b"\x00\x00"
        checksum = internet_checksum(bytes(raw[:20]))
        raw[10:12] = checksum.to_bytes(2, "big")
        with pytest.raises(IPv4Error):
            IPv4Packet.decode(bytes(raw))


class TestTCP:
    def test_roundtrip(self):
        segment = TCPSegment(src_port=40000, dst_port=2404, seq=1000,
                             ack=2000, flags=PSH_ACK, window=8192,
                             payload=b"data")
        decoded = TCPSegment.decode(segment.encode(SRC_IP, DST_IP),
                                    SRC_IP, DST_IP)
        assert decoded == segment

    def test_checksum_covers_pseudo_header(self):
        segment = TCPSegment(src_port=1, dst_port=2, seq=0, flags=SYN)
        raw = segment.encode(SRC_IP, DST_IP)
        # Decoding against the wrong addresses must fail verification.
        with pytest.raises(TCPError):
            TCPSegment.decode(raw, SRC_IP, ipv4("10.9.9.9"))

    def test_flags_roundtrip(self):
        flags = TCPFlags(syn=True, fin=True, psh=True, urg=True)
        assert TCPFlags.decode(flags.encode()) == flags

    def test_flags_decode_matches_fields(self):
        """Every flags octet decodes to the field-by-field flags; the
        top two bits (ECE, CWR) are ignored."""
        for bits in range(256):
            assert TCPFlags.decode(bits) == TCPFlags(
                fin=bool(bits & 0x01), syn=bool(bits & 0x02),
                rst=bool(bits & 0x04), psh=bool(bits & 0x08),
                ack=bool(bits & 0x10), urg=bool(bits & 0x20)), bits

    def test_flags_str(self):
        assert str(TCPFlags(syn=True, ack=True)) == "SYN|ACK"
        assert str(TCPFlags()) == "-"

    def test_sequence_space(self):
        assert TCPSegment(src_port=1, dst_port=2, seq=0,
                          flags=SYN).sequence_space == 1
        assert TCPSegment(src_port=1, dst_port=2, seq=0,
                          payload=b"ab").sequence_space == 2

    def test_port_range(self):
        with pytest.raises(ValueError):
            TCPSegment(src_port=70000, dst_port=1, seq=0)

    def test_truncated(self):
        with pytest.raises(TCPError):
            TCPSegment.decode(b"\x00" * 10, SRC_IP, DST_IP)


class TestCapturedPacket:
    def build(self, payload=b"\x68\x04\x43\x00\x00\x00"):
        segment = TCPSegment(src_port=40001, dst_port=2404, seq=7,
                             ack=3, flags=PSH_ACK, payload=payload)
        return CapturedPacket.build(1_250_000, SRC_MAC, DST_MAC, SRC_IP,
                                    DST_IP, segment)

    def test_build_decode_roundtrip(self):
        packet = self.build()
        decoded = CapturedPacket.decode(1_250_000, packet.encode())
        assert decoded.tcp == packet.tcp
        assert decoded.ip.src == SRC_IP

    def test_flow_key(self):
        packet = self.build()
        key = packet.flow_key
        assert key.src == Endpoint(SRC_IP, 40001)
        assert key.dst == Endpoint(DST_IP, 2404)
        assert key.reversed.src == key.dst
        assert key.canonical == key.canonical.reversed.canonical

    def test_decode_ignores_non_ipv4(self):
        frame = EthernetFrame(dst=DST_MAC, src=SRC_MAC, ethertype=0x0806,
                              payload=b"\x00" * 28)  # ARP
        assert CapturedPacket.decode(0, frame.encode()) is None

    def test_decode_ignores_non_tcp(self):
        ip_packet = IPv4Packet(src=SRC_IP, dst=DST_IP, payload=b"\x00" * 8,
                               protocol=17)  # UDP
        frame = EthernetFrame(dst=DST_MAC, src=SRC_MAC,
                              ethertype=ETHERTYPE_IPV4,
                              payload=ip_packet.encode())
        assert CapturedPacket.decode(0, frame.encode()) is None

    def test_wire_length(self):
        packet = self.build(payload=b"")
        assert packet.wire_length == 14 + 20 + 20

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            Endpoint(SRC_IP, 99999)

    def test_flow_key_str(self):
        assert "->" in str(FlowKey(Endpoint(SRC_IP, 1),
                                   Endpoint(DST_IP, 2)))


class TestTCPOptions:
    from repro.netstack.tcp import TCPOption

    def seg(self, options):
        return TCPSegment(src_port=1000, dst_port=2404, seq=5,
                          flags=SYN, options=tuple(options))

    def test_mss_roundtrip(self):
        from repro.netstack.tcp import TCPOption
        option = TCPOption(kind=TCPOption.MSS, data=b"\x05\xb4")
        segment = self.seg([option])
        decoded = TCPSegment.decode(segment.encode(SRC_IP, DST_IP),
                                    SRC_IP, DST_IP)
        assert decoded.options == (option,)
        assert decoded.options[0].mss == 1460

    def test_window_scale_and_padding(self):
        from repro.netstack.tcp import TCPOption
        option = TCPOption(kind=TCPOption.WINDOW_SCALE, data=b"\x07")
        decoded = TCPSegment.decode(
            self.seg([option]).encode(SRC_IP, DST_IP), SRC_IP, DST_IP)
        assert decoded.options[0].window_scale == 7

    def test_timestamps(self):
        from repro.netstack.tcp import TCPOption
        import struct as _struct
        option = TCPOption(kind=TCPOption.TIMESTAMPS,
                           data=_struct.pack("!II", 1000, 2000))
        decoded = TCPSegment.decode(
            self.seg([option]).encode(SRC_IP, DST_IP), SRC_IP, DST_IP)
        assert decoded.options[0].timestamps == (1000, 2000)

    def test_sack_blocks(self):
        from repro.netstack.tcp import TCPOption
        import struct as _struct
        option = TCPOption(kind=TCPOption.SACK,
                           data=_struct.pack("!IIII", 10, 20, 30, 40))
        decoded = TCPSegment.decode(
            self.seg([option]).encode(SRC_IP, DST_IP), SRC_IP, DST_IP)
        assert decoded.options[0].sack_blocks == ((10, 20), (30, 40))

    def test_multiple_options_with_nops(self):
        from repro.netstack.tcp import TCPOption
        options = [TCPOption(kind=TCPOption.MSS, data=b"\x02\x00"),
                   TCPOption(kind=TCPOption.NOP),
                   TCPOption(kind=TCPOption.SACK_PERMITTED)]
        decoded = TCPSegment.decode(
            self.seg(options).encode(SRC_IP, DST_IP), SRC_IP, DST_IP)
        kinds = [o.kind for o in decoded.options]
        assert kinds == [TCPOption.MSS, TCPOption.NOP,
                         TCPOption.SACK_PERMITTED]

    def test_payload_untouched_by_options(self):
        from repro.netstack.tcp import TCPOption
        segment = TCPSegment(
            src_port=1, dst_port=2, seq=0, flags=PSH_ACK,
            payload=b"data!",
            options=(TCPOption(kind=TCPOption.MSS, data=b"\x02\x00"),))
        decoded = TCPSegment.decode(segment.encode(SRC_IP, DST_IP),
                                    SRC_IP, DST_IP)
        assert decoded.payload == b"data!"

    def test_malformed_option_length(self):
        from repro.netstack.tcp import parse_options
        with pytest.raises(TCPError):
            parse_options(b"\x02\x01")  # length 1 < 2

    def test_truncated_option(self):
        from repro.netstack.tcp import parse_options
        with pytest.raises(TCPError):
            parse_options(b"\x02\x04\x05")  # claims 4, has 3

    def test_options_size_limit(self):
        from repro.netstack.tcp import TCPOption, encode_options
        with pytest.raises(TCPError):
            encode_options([TCPOption(kind=254, data=b"x" * 39)])
