"""Flow table / connection tracking tests."""

from hypothesis import example, given, strategies as st

from repro.netstack.addresses import ipv4, mac
from repro.netstack.flows import FlowKind, FlowTable
from repro.netstack.packet import CapturedPacket
from repro.netstack.tcp import (ACK, FIN_ACK, PSH_ACK, RST, RST_ACK, SYN,
                                SYN_ACK, TCPSegment)

from .flows_reference import ReferenceFlowTable

CLIENT_IP = ipv4("10.0.0.1")
SERVER_IP = ipv4("10.1.0.5")
CLIENT_MAC = mac("02:00:00:00:00:01")
SERVER_MAC = mac("02:00:00:00:00:02")


def pkt(t, sport, dport, flags, payload=b"", reverse=False):
    time_us = round(t * 1_000_000)
    segment = TCPSegment(src_port=sport, dst_port=dport, seq=100, ack=1,
                         flags=flags, payload=payload)
    if reverse:
        return CapturedPacket.build(time_us, SERVER_MAC, CLIENT_MAC,
                                    SERVER_IP, CLIENT_IP, segment)
    return CapturedPacket.build(time_us, CLIENT_MAC, SERVER_MAC,
                                CLIENT_IP, SERVER_IP, segment)


def handshake(table, t0, sport=40000, dport=2404):
    table.add(pkt(t0, sport, dport, SYN))
    table.add(pkt(t0 + 0.001, dport, sport, SYN_ACK, reverse=True))
    table.add(pkt(t0 + 0.002, sport, dport, ACK))


class TestFlowTable:
    def test_both_directions_one_flow(self):
        table = FlowTable()
        handshake(table, 0.0)
        assert len(table) == 1
        flow = table.flows[0]
        assert flow.forward.packets + flow.reverse.packets == 3

    def test_short_lived_with_fin(self):
        table = FlowTable()
        handshake(table, 0.0)
        table.add(pkt(0.5, 40000, 2404, FIN_ACK))
        flow = table.flows[0]
        assert flow.kind is FlowKind.SHORT_LIVED
        assert flow.duration == 0.5

    def test_short_lived_with_rst(self):
        table = FlowTable()
        handshake(table, 0.0)
        table.add(pkt(0.02, 2404, 40000, RST_ACK, reverse=True))
        assert table.flows[0].kind is FlowKind.SHORT_LIVED

    def test_long_lived_no_syn(self):
        table = FlowTable()
        table.add(pkt(1.0, 40000, 2404, PSH_ACK, payload=b"data"))
        table.add(pkt(9.0, 40000, 2404, FIN_ACK))
        assert table.flows[0].kind is FlowKind.LONG_LIVED

    def test_long_lived_no_termination(self):
        table = FlowTable()
        handshake(table, 0.0)
        table.add(pkt(5.0, 40000, 2404, PSH_ACK, payload=b"data"))
        assert table.flows[0].kind is FlowKind.LONG_LIVED

    def test_initiator_identified(self):
        table = FlowTable()
        handshake(table, 0.0)
        flow = table.flows[0]
        assert flow.initiator is not None
        assert flow.initiator.src.port == 40000

    def test_rejected_predicate(self):
        table = FlowTable()
        handshake(table, 0.0)
        table.add(pkt(0.01, 2404, 40000, RST_ACK, reverse=True))
        assert table.flows[0].rejected

    def test_rejected_requires_no_payload(self):
        table = FlowTable()
        handshake(table, 0.0)
        table.add(pkt(0.01, 40000, 2404, PSH_ACK,
                      payload=b"0123456789ABCDEF"))
        table.add(pkt(0.02, 2404, 40000, RST_ACK, reverse=True))
        assert not table.flows[0].rejected

    def test_distinct_ports_distinct_flows(self):
        table = FlowTable()
        handshake(table, 0.0, sport=40000)
        handshake(table, 1.0, sport=40001)
        assert len(table) == 2

    def test_byte_accounting(self):
        table = FlowTable()
        packet = pkt(0.0, 40000, 2404, PSH_ACK, payload=b"12345")
        table.add(packet)
        flow = table.flows[0]
        assert flow.bytes == packet.wire_length
        total_payload = (flow.forward.payload_bytes
                         + flow.reverse.payload_bytes)
        assert total_payload == 5


#: A small pool, so drawn packets often share a flow: both directions
#: of one connection, and self-flows (the same endpoint both ends).
POOL_HOSTS = (CLIENT_IP, SERVER_IP, ipv4("10.0.0.2"))
POOL_PORTS = (1, 2404, 40000)
ENDPOINTS = st.tuples(st.sampled_from(POOL_HOSTS),
                      st.sampled_from(POOL_PORTS))


def packet_between(time_us, src, dst, flags, payload=b""):
    segment = TCPSegment(src_port=src[1], dst_port=dst[1], seq=100,
                         ack=1, flags=flags, payload=payload)
    return CapturedPacket.build(time_us, CLIENT_MAC, SERVER_MAC, src[0],
                                dst[0], segment)


#: A packet to ``add`` (times drawn independently, so they also go
#: backwards) or an ``int`` horizon to ``pop_idle``.
FLOW_OPS = st.lists(
    st.one_of(
        st.builds(packet_between, st.integers(0, 50), ENDPOINTS,
                  ENDPOINTS,
                  st.sampled_from((SYN, SYN_ACK, ACK, PSH_ACK, FIN_ACK,
                                   RST, RST_ACK)),
                  st.binary(max_size=4)),
        st.integers(0, 60)),
    max_size=40)

CLIENT = (CLIENT_IP, 40000)
SERVER = (SERVER_IP, 2404)


class TestFlowTableOracle:
    @given(FLOW_OPS)
    @example([packet_between(10, CLIENT, SERVER, SYN),
              packet_between(11, SERVER, CLIENT, SYN_ACK),
              packet_between(5, CLIENT, SERVER, ACK),
              packet_between(3, CLIENT, CLIENT, PSH_ACK, b"self"),
              packet_between(20, SERVER, CLIENT, SYN),
              6,
              packet_between(2, SERVER, CLIENT, FIN_ACK)])
    def test_matches_flowkey_keyed_table(self, ops):
        """The integer-keyed table returns the records the
        ``FlowKey``-keyed reference returns, in the same order, from
        every call."""
        table = FlowTable()
        reference = ReferenceFlowTable()
        for op in ops:
            if isinstance(op, int):
                assert table.pop_idle(op) == reference.pop_idle(op)
            else:
                assert table.add(op) == reference.add(op)
            assert table.flows == reference.flows
