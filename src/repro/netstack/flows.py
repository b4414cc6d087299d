"""TCP connection tracking over captured packets.

The paper defines a flow by the 4-tuple <srcIP, srcPort, dstIP,
dstPort> and splits flows into *short-lived* (a matching SYN and
RST/FIN pair appear inside the capture) and *long-lived* (the
connection started before the capture or outlived it). This module
builds those records; :mod:`repro.analysis.flows` computes the Table 3 /
Fig. 8 statistics from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from .packet import CapturedPacket, FlowKey


class FlowKind(enum.Enum):
    """Paper Section 6.2 flow classification."""

    SHORT_LIVED = "short-lived"   # SYN and FIN/RST both inside capture
    LONG_LIVED = "long-lived"     # began before capture or never ended


@dataclass
class DirectionStats:
    """Per-direction counters within a connection."""

    packets: int = 0
    bytes: int = 0
    payload_bytes: int = 0


@dataclass
class FlowRecord:
    """One TCP connection (canonical 4-tuple, both directions).

    Times are canonical integer-microsecond ticks; ``first_time``/
    ``last_time``/``duration`` are derived float-second views for the
    statistics layers that bin and threshold in seconds.
    """

    key: FlowKey  # canonical orientation
    first_time_us: int
    last_time_us: int
    saw_syn: bool = False
    saw_fin: bool = False
    saw_rst: bool = False
    #: Endpoint that sent the first SYN (connection initiator), if seen.
    initiator: FlowKey | None = None
    forward: DirectionStats = field(default_factory=DirectionStats)
    reverse: DirectionStats = field(default_factory=DirectionStats)

    @property
    def duration_us(self) -> int:
        return self.last_time_us - self.first_time_us

    @property
    def first_time(self) -> float:
        return self.first_time_us / 1_000_000

    @property
    def last_time(self) -> float:
        return self.last_time_us / 1_000_000

    @property
    def duration(self) -> float:
        return self.duration_us / 1_000_000

    @property
    def packets(self) -> int:
        return self.forward.packets + self.reverse.packets

    @property
    def bytes(self) -> int:
        return self.forward.bytes + self.reverse.bytes

    @property
    def kind(self) -> FlowKind:
        if self.saw_syn and (self.saw_fin or self.saw_rst):
            return FlowKind.SHORT_LIVED
        return FlowKind.LONG_LIVED

    @property
    def rejected(self) -> bool:
        """True for the Fig. 9 pathology: SYN answered by RST/FIN with
        (nearly) no data exchanged."""
        return (self.kind is FlowKind.SHORT_LIVED and self.saw_rst
                and self.forward.payload_bytes + self.reverse.payload_bytes
                == 0)


class FlowTable:
    """Accumulate packets into per-connection records.

    Records are keyed by the integer form of the canonical 4-tuple,
    ``((address, port), (address, port))``. Integer tuples order
    exactly as :class:`FlowKey` endpoints do (address value, then
    port), so the key and the direction match
    :attr:`FlowKey.canonical` without building or hashing a
    ``FlowKey`` per packet; one is built only for a new record's key
    and a connection's initiator.
    """

    def __init__(self) -> None:
        self._flows: dict[tuple[tuple[int, int], tuple[int, int]],
                          FlowRecord] = {}

    def add(self, packet: CapturedPacket) -> FlowRecord:
        ip = packet.ip
        tcp = packet.tcp
        time_us = packet.time_us
        src = (ip.src.value, tcp.src_port)
        dst = (ip.dst.value, tcp.dst_port)
        forward = src <= dst
        canonical = (src, dst) if forward else (dst, src)
        record = self._flows.get(canonical)
        if record is None:
            key = packet.flow_key
            record = FlowRecord(key=key if forward else key.reversed,
                                first_time_us=time_us,
                                last_time_us=time_us)
            self._flows[canonical] = record
        record.first_time_us = min(record.first_time_us, time_us)
        record.last_time_us = max(record.last_time_us, time_us)
        flags = tcp.flags
        if flags.syn:
            record.saw_syn = True
            if not flags.ack and record.initiator is None:
                record.initiator = packet.flow_key
        if flags.fin:
            record.saw_fin = True
        if flags.rst:
            record.saw_rst = True
        stats = record.forward if forward else record.reverse
        stats.packets += 1
        stats.bytes += packet.wire_length
        stats.payload_bytes += len(tcp.payload)
        return record

    def add_all(self, packets: Iterable[CapturedPacket]) -> None:
        for packet in packets:
            self.add(packet)

    def pop_idle(self, last_time_before_us: int) -> list[FlowRecord]:
        """Remove and return flows whose last packet predates the
        horizon (the streaming engine's idle-flow eviction)."""
        idle = [key for key, record in self._flows.items()
                if record.last_time_us < last_time_before_us]
        return [self._flows.pop(key) for key in idle]

    @property
    def flows(self) -> list[FlowRecord]:
        return list(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows.values())
