"""Simulated TCP layer tests: the emitted packets must be real TCP."""

import random

import pytest

from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.flows import FlowKind, FlowTable
from repro.netstack.reassembly import StreamReassembler
from repro.simnet.capture import CaptureTap
from repro.simnet.clock import Simulator
from repro.simnet.tcpsim import (RetransmissionModel, SimConnection,
                                 SimHost)


def make_hosts():
    client = SimHost(name="C1", ip=IPv4Address(0x0A000001),
                     mac=MacAddress(0x020000000001))
    server = SimHost(name="O1", ip=IPv4Address(0x0A010001),
                     mac=MacAddress(0x020000000002))
    return client, server


def make_conn(tap=None, seed=1, retransmission=None):
    client, server = make_hosts()
    tap = tap if tap is not None else CaptureTap()
    conn = SimConnection(Simulator(), tap, client, server,
                         server_port=2404, rng=random.Random(seed),
                         retransmission=retransmission)
    return conn, tap


class TestHandshake:
    def test_three_packets(self):
        conn, tap = make_conn()
        done = conn.establish(10_000_000)
        assert len(tap.packets) == 3
        assert done > 10_000_000
        flags = [str(p.flags) for p in tap.packets]
        assert flags == ["SYN", "SYN|ACK", "ACK"]

    def test_flow_table_sees_one_connection(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"hello")
        conn.close_fin(2_000_000, from_client=True)
        table = FlowTable()
        table.add_all(tap.packets)
        assert len(table) == 1
        assert table.flows[0].kind is FlowKind.SHORT_LIVED

    def test_cannot_establish_twice(self):
        conn, _ = make_conn()
        conn.establish(0)
        with pytest.raises(RuntimeError):
            conn.establish(1_000_000)

    def test_float_time_rejected(self):
        from repro.simnet.clock import SimulationError
        conn, _ = make_conn()
        with pytest.raises(SimulationError):
            conn.establish(0.0)


class TestDataTransfer:
    def test_payload_reassembles(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"part one ")
        conn.send(2_000_000, from_client=True, payload=b"part two")
        reassembler = StreamReassembler()
        for packet in tap.packets:
            if packet.flow_key.src.port != 2404 and packet.payload:
                reassembler.feed(packet.tcp.seq, packet.payload)
        # Feed SYN separately for ISN accounting
        out = b""
        reassembler2 = StreamReassembler()
        for packet in tap.packets:
            if packet.flow_key.src.port != 2404:
                out += reassembler2.feed(packet.tcp.seq, packet.payload,
                                         syn=packet.flags.syn)
        assert out == b"part one part two"

    def test_seq_numbers_advance_by_payload(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"12345")
        conn.send(2_000_000, from_client=True, payload=b"678")
        data = [p for p in tap.packets if p.payload]
        assert data[1].tcp.seq == data[0].tcp.seq + 5

    def test_bidirectional_ack_tracking(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"ping")
        conn.send(2_000_000, from_client=False, payload=b"pong")
        reply = [p for p in tap.packets if p.payload][-1]
        request = [p for p in tap.packets if p.payload][0]
        assert reply.tcp.ack == request.tcp.seq + 4

    def test_empty_payload_rejected(self):
        conn, _ = make_conn()
        conn.establish(0)
        with pytest.raises(ValueError):
            conn.send(1_000_000, from_client=True, payload=b"")

    def test_send_before_establish_rejected(self):
        conn, _ = make_conn()
        with pytest.raises(RuntimeError):
            conn.send(0, from_client=True, payload=b"x")


class TestRetransmission:
    def test_injection_duplicates_packet(self):
        model = RetransmissionModel(probability=1.0, delay=0.2)
        conn, tap = make_conn(retransmission=model)
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"dup")
        data = [p for p in tap.packets if p.payload]
        assert len(data) == 2
        assert data[0].tcp.seq == data[1].tcp.seq
        assert data[0].payload == data[1].payload
        # delay=0.2 s quantizes to exactly 200_000 ticks.
        assert data[1].time_us == 1_200_000

    def test_zero_probability_no_duplicates(self):
        conn, tap = make_conn(
            retransmission=RetransmissionModel(probability=0.0))
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"once")
        assert len([p for p in tap.packets if p.payload]) == 1

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RetransmissionModel(probability=1.5)
        with pytest.raises(ValueError):
            RetransmissionModel(delay=0.0)


class TestTeardown:
    def test_fin_sequence(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.close_fin(1_000_000, from_client=True)
        flags = [str(p.flags) for p in tap.packets[3:]]
        assert flags == ["ACK|FIN", "ACK|FIN", "ACK"]
        assert conn.closed

    def test_rst(self):
        conn, tap = make_conn()
        conn.establish(0)
        conn.close_rst(1_000_000, from_client=False)
        assert str(tap.packets[-1].flags) == "ACK|RST"

    def test_refuse(self):
        conn, tap = make_conn()
        conn.refuse(0)
        flags = [str(p.flags) for p in tap.packets]
        assert flags == ["SYN", "ACK|RST"]
        assert conn.closed

    def test_ignored_syn_retries(self):
        conn, tap = make_conn()
        conn.send_syn_unanswered(0, retries=2, backoff=1.0)
        flags = [str(p.flags) for p in tap.packets]
        assert flags == ["SYN", "SYN", "SYN"]
        # Exponential backoff: 0, 1, 3 seconds in exact ticks.
        times = [p.time_us for p in tap.packets]
        assert times == [0, 1_000_000, 3_000_000]
        # Same ISN on every retry.
        assert len({p.tcp.seq for p in tap.packets}) == 1

    def test_send_after_close_rejected(self):
        conn, _ = make_conn()
        conn.establish(0)
        conn.close_fin(1_000_000, from_client=True)
        with pytest.raises(RuntimeError):
            conn.send(2_000_000, from_client=True, payload=b"late")


class TestEverythingDecodes:
    def test_all_packets_valid_tcp(self):
        """Every emitted packet must decode through the real netstack
        parsers with checksums verified."""
        from repro.netstack.packet import CapturedPacket
        model = RetransmissionModel(probability=0.5)
        conn, tap = make_conn(retransmission=model, seed=7)
        conn.establish(0)
        for index in range(10):
            conn.send((1 + index) * 1_000_000,
                      from_client=index % 2 == 0,
                      payload=bytes([index]) * (index + 1))
        conn.close_fin(20_000_000, from_client=False)
        for packet in tap.packets:
            decoded = CapturedPacket.decode(packet.time_us,
                                            packet.encode())
            assert decoded is not None
            assert decoded.tcp == packet.tcp


class TestDelayedAcks:
    def test_pure_acks_emitted(self):
        client, server = make_hosts()
        tap = CaptureTap()
        conn = SimConnection(Simulator(), tap, client, server, 2404,
                             rng=random.Random(4),
                             ack_policy="delayed", ack_every=2)
        conn.establish(0)
        for index in range(4):
            conn.send((1 + index) * 1_000_000, from_client=True,
                      payload=b"data")
        pure_acks = [p for p in tap.packets
                     if str(p.flags) == "ACK" and not p.payload
                     and p.time_us > 500_000]
        assert len(pure_acks) == 2  # one per two data segments
        # ACKs come from the receiving side.
        assert all(p.flow_key.src.port == 2404 for p in pure_acks)

    def test_ack_numbers_cover_received_data(self):
        client, server = make_hosts()
        tap = CaptureTap()
        conn = SimConnection(Simulator(), tap, client, server, 2404,
                             rng=random.Random(4),
                             ack_policy="delayed", ack_every=1)
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"12345")
        data = [p for p in tap.packets if p.payload][-1]
        ack = [p for p in tap.packets
               if str(p.flags) == "ACK" and p.time_us > 1_000_000][-1]
        assert ack.tcp.ack == data.tcp.seq + 5

    def test_default_policy_no_pure_acks(self):
        client, server = make_hosts()
        tap = CaptureTap()
        conn = SimConnection(Simulator(), tap, client, server, 2404,
                             rng=random.Random(4))
        conn.establish(0)
        conn.send(1_000_000, from_client=True, payload=b"x")
        late_acks = [p for p in tap.packets
                     if str(p.flags) == "ACK" and p.time_us > 500_000]
        assert late_acks == []

    def test_policy_validation(self):
        client, server = make_hosts()
        with pytest.raises(ValueError):
            SimConnection(Simulator(), CaptureTap(), client, server,
                          2404, rng=random.Random(1),
                          ack_policy="bogus")
        with pytest.raises(ValueError):
            SimConnection(Simulator(), CaptureTap(), client, server,
                          2404, rng=random.Random(1), ack_every=0)
