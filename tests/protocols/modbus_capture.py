"""A four-poll Modbus/TCP capture, and a hostile copy of it.

The hostile copy rewrites one response's function octet and
re-encodes that segment, so the frame still decodes and only the
Modbus parser sees the damage.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.analysis import PacketCapture
from repro.netstack.addresses import IPv4Address, MacAddress
from repro.netstack.packet import CapturedPacket
from repro.protocols.modbus import MBAP_HEADER, MODBUS_PORT
from repro.simnet.capture import CaptureTap
from repro.simnet.clock import Simulator
from repro.simnet.modbus import ModbusLink
from repro.simnet.tcpsim import SimHost

#: Request/response pairs in :func:`polls_capture`.
POLLS = 4

#: The response (0-based, in capture order) :func:`hostile_capture`
#: rewrites.
HOSTILE_RESPONSE = 1


def polls_capture() -> PacketCapture:
    """C1 reads one holding register of M1 :data:`POLLS` times."""
    sim = Simulator()
    tap = CaptureTap()
    master = SimHost(name="C1", ip=IPv4Address(0x0A000001),
                     mac=MacAddress(0x020000000001))
    plant = SimHost(name="M1", ip=IPv4Address(0x0A010002),
                    mac=MacAddress(0x020000000003))
    link = ModbusLink(sim=sim, tap=tap, rng=random.Random(7),
                      master_host=master, outstation_host=plant,
                      master_name="C1", outstation_name="M1",
                      registers={100: lambda t: 50.0})
    connected_us = link.connect(1_000_000)
    for poll in range(POLLS):
        link.send_read(connected_us + poll * 1_000_000, 100, 1)
    sim.run()
    return PacketCapture(packets=list(tap.packets),
                         names={master.ip: "C1", plant.ip: "M1"})


def with_function_octet(packet: CapturedPacket,
                        function: int) -> CapturedPacket:
    """``packet`` with its ADU's function octet set to ``function``,
    rebuilt so the TCP checksum still holds."""
    payload = bytearray(packet.payload)
    payload[MBAP_HEADER] = function
    return CapturedPacket.build(
        packet.time_us, packet.ethernet.src, packet.ethernet.dst,
        packet.ip.src, packet.ip.dst,
        replace(packet.tcp, payload=bytes(payload)),
        ip_id=packet.ip.identification)


def hostile_capture(function: int = 0x80) -> PacketCapture:
    """:func:`polls_capture` with response :data:`HOSTILE_RESPONSE`'s
    function octet set to ``function``."""
    capture = polls_capture()
    responses = [index for index, packet in enumerate(capture.packets)
                 if packet.payload and packet.tcp.src_port == MODBUS_PORT]
    assert len(responses) == POLLS
    packets = list(capture.packets)
    target = responses[HOSTILE_RESPONSE]
    packets[target] = with_function_octet(packets[target], function)
    return PacketCapture(packets=packets, names=capture.names)
