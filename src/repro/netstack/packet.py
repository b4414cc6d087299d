"""Layered packet model: what a capture tap sees.

A :class:`CapturedPacket` is one timestamped Ethernet frame with its
decoded IPv4 and TCP layers, exposing the fields the analysis pipeline
needs (4-tuple, flags, payload) without re-parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .addresses import IPv4Address, MacAddress
from .ethernet import ETHERTYPE_IPV4, EthernetFrame
from .ip import PROTO_TCP, IPv4Packet
from .pcap import PcapRecord
from .tcp import TCPFlags, TCPSegment


@dataclass(frozen=True, order=True)
class Endpoint:
    """An (address, port) transport endpoint."""

    address: IPv4Address
    port: int

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError("port must fit in 16 bits")

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


@dataclass(frozen=True, order=True)
class FlowKey:
    """The directional 4-tuple <srcIP, srcPort, dstIP, dstPort>."""

    src: Endpoint
    dst: Endpoint

    @property
    def reversed(self) -> "FlowKey":
        return FlowKey(src=self.dst, dst=self.src)

    @property
    def canonical(self) -> "FlowKey":
        """Direction-independent form (smaller endpoint first)."""
        return self if self.src <= self.dst else self.reversed

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst}"


@dataclass(frozen=True)
class CapturedPacket:
    """One packet as seen by the network tap (Fig. 5 of the paper).

    ``time_us`` is the canonical capture time in integer microseconds
    (the simulation tick).
    """

    time_us: int
    ethernet: EthernetFrame
    ip: IPv4Packet
    tcp: TCPSegment

    def __post_init__(self) -> None:
        _check_time(self.time_us)

    # ``cached_property`` writes to the instance ``__dict__`` directly,
    # which a frozen (non-slots) dataclass permits: the derived views
    # below are pure functions of the frozen fields, so caching them is
    # invisible except to the hot-loop profiles that hit them per
    # packet (flow tracking asks for flow_key and wire_length on every
    # add).
    @cached_property
    def flow_key(self) -> FlowKey:
        return FlowKey(src=Endpoint(self.ip.src, self.tcp.src_port),
                       dst=Endpoint(self.ip.dst, self.tcp.dst_port))

    @property
    def payload(self) -> bytes:
        return self.tcp.payload

    @property
    def flags(self) -> TCPFlags:
        return self.tcp.flags

    @cached_property
    def wire_length(self) -> int:
        """Total on-wire frame length in octets."""
        return len(self.ethernet.encode())

    def encode(self) -> bytes:
        """Serialize the full Ethernet frame."""
        return self.ethernet.encode()

    @classmethod
    def build(cls, time_us: int, src_mac: MacAddress,
              dst_mac: MacAddress, src_ip: IPv4Address,
              dst_ip: IPv4Address, segment: TCPSegment,
              ip_id: int = 0) -> "CapturedPacket":
        """Assemble a packet from its TCP segment upward."""
        ip_packet = IPv4Packet(src=src_ip, dst=dst_ip,
                               payload=segment.encode(src_ip, dst_ip),
                               identification=ip_id)
        frame = EthernetFrame(dst=dst_mac, src=src_mac,
                              ethertype=ETHERTYPE_IPV4,
                              payload=ip_packet.encode())
        return cls(time_us=time_us, ethernet=frame, ip=ip_packet,
                   tcp=segment)

    @classmethod
    def decode(cls, time_us: int,
               frame_bytes: bytes) -> "CapturedPacket | None":
        """Decode a raw Ethernet frame; None unless it is a well-formed
        TCP/IPv4 frame.

        The paper's captures contained ICCP and C37.118 alongside IEC
        104; returning ``None`` for anything that is not TCP-over-IPv4
        lets callers filter exactly as the paper did. A malformed frame
        (truncated, a checksum mismatch, an invalid header field) is
        ``None`` too, so one bad frame is counted by the caller rather
        than ending a capture's analysis. Each header field is checked
        once, by its layer's decoder; a non-integer ``time_us`` of a
        well-formed frame raises ``TypeError``, as the constructor does.
        """
        try:
            frame = EthernetFrame.decode(frame_bytes)
            if frame.ethertype != ETHERTYPE_IPV4:
                return None
            ip_packet = IPv4Packet.decode(frame.payload)
            if ip_packet.protocol != PROTO_TCP:
                return None
            segment = TCPSegment.decode(ip_packet.payload, ip_packet.src,
                                        ip_packet.dst)
        except ValueError:  # every layer decoder's errors
            return None
        _check_time(time_us)
        packet = _new(cls)
        # Seed the cached wire length: Ethernet II re-encodes to the
        # decoded bytes verbatim (14-octet header + payload), so the
        # frame we just consumed *is* the on-wire form.
        packet.__dict__.update(time_us=time_us, ethernet=frame,
                               ip=ip_packet, tcp=segment,
                               wire_length=len(frame_bytes))
        return packet


_new = object.__new__


def _check_time(time_us: object) -> None:
    if not isinstance(time_us, int) or isinstance(time_us, bool):
        raise TypeError(
            f"time_us must be integer microseconds, got {time_us!r}")


def decode_records(records: Iterable[PcapRecord]
                   ) -> Iterator[CapturedPacket]:
    """The packets :meth:`CapturedPacket.decode` accepts, in order."""
    for record in records:
        packet = CapturedPacket.decode(record.time_us, record.data)
        if packet is not None:
            yield packet
