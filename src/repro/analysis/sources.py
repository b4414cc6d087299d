"""Capture-first packet sources for the analysis entrypoints.

The analysis API historically threaded ``(packets, names=...)`` pairs
through every call. The canonical currency is a *capture*: any object
with a ``packets`` iterable and a ``host_names()`` mapping —
:class:`repro.simnet.scenario.SyntheticCapture`, the perf cache's
``CachedCapture``, an :class:`repro.simnet.attacker.AttackResult`, or
the :class:`PacketCapture` wrapper below. Raw packet iterables and
pcap/pcapng readers are also accepted (with an empty name map); the
deprecated ``names=`` keyword was removed in 1.1.0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket, decode_records
from ..netstack.pcap import PcapReader, PcapRecord
from ..netstack.pcapng import PcapngReader

#: Anything the Capture-first entrypoints accept.
PacketSource = object


@dataclass
class PacketCapture:
    """Minimal concrete capture: a packet list plus its name map."""

    packets: list[CapturedPacket]
    names: dict[IPv4Address, str] = field(default_factory=dict)

    def host_names(self) -> dict[IPv4Address, str]:
        return dict(self.names)

    def __len__(self) -> int:
        return len(self.packets)


def resolve_source(source: PacketSource
                   ) -> tuple[Iterable[CapturedPacket],
                              dict[IPv4Address, str]]:
    """Coerce ``source`` into ``(packets, names)``.

    Accepts a capture object (``.packets`` + ``.host_names()``), a
    :class:`PcapReader`/:class:`PcapngReader`, an iterable of
    :class:`PcapRecord`, or a plain iterable of
    :class:`CapturedPacket` (the latter three with an empty name map
    — wrap in :class:`PacketCapture` to attach names).
    """
    packets = getattr(source, "packets", None)
    host_names = getattr(source, "host_names", None)
    if packets is not None and callable(host_names):
        return packets, dict(host_names())
    if isinstance(source, (PcapReader, PcapngReader)):
        return decode_records(source), {}
    iterator = iter(source)  # type: ignore[arg-type]
    try:
        first = next(iterator)
    except StopIteration:
        return [], {}
    rest = itertools.chain([first], iterator)
    if isinstance(first, PcapRecord):
        return decode_records(rest), {}
    return rest, {}


def as_capture(source: PacketSource) -> PacketCapture:
    """Like :func:`resolve_source` but materializes a reusable
    :class:`PacketCapture` (multi-pass callers)."""
    if isinstance(source, PacketCapture):
        return source
    packets, resolved = resolve_source(source)
    return PacketCapture(packets=list(packets), names=resolved)
