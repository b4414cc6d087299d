"""A ``FlowKey``-keyed flow table: the oracle for ``FlowTable``.

It keys its records by the canonical :class:`FlowKey` dataclass and
picks the direction by comparing keys, where
:class:`repro.netstack.flows.FlowTable` keys by integer tuples, so
agreement between the two pins the integer ordering to the
dataclass ordering. The records are the shared
:class:`~repro.netstack.flows.FlowRecord` type.
"""

from __future__ import annotations

from repro.netstack.flows import FlowRecord
from repro.netstack.packet import CapturedPacket, FlowKey


class ReferenceFlowTable:
    """Accumulate packets into per-connection records."""

    def __init__(self) -> None:
        self._flows: dict[FlowKey, FlowRecord] = {}

    def add(self, packet: CapturedPacket) -> FlowRecord:
        key = packet.flow_key
        canonical = key.canonical
        record = self._flows.get(canonical)
        if record is None:
            record = FlowRecord(key=canonical,
                                first_time_us=packet.time_us,
                                last_time_us=packet.time_us)
            self._flows[canonical] = record
        record.first_time_us = min(record.first_time_us, packet.time_us)
        record.last_time_us = max(record.last_time_us, packet.time_us)
        flags = packet.flags
        if flags.syn:
            record.saw_syn = True
            if not flags.ack and record.initiator is None:
                record.initiator = key
        if flags.fin:
            record.saw_fin = True
        if flags.rst:
            record.saw_rst = True
        stats = (record.forward if key == canonical else record.reverse)
        stats.packets += 1
        stats.bytes += packet.wire_length
        stats.payload_bytes += len(packet.payload)
        return record

    def pop_idle(self, last_time_before_us: int) -> list[FlowRecord]:
        idle = [key for key, record in self._flows.items()
                if record.last_time_us < last_time_before_us]
        return [self._flows.pop(key) for key in idle]

    @property
    def flows(self) -> list[FlowRecord]:
        return list(self._flows.values())
