"""Ethernet II framing."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..slots import slot_setters
from .addresses import MacAddress, shared_mac

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800

#: Destination and source MACs (each as 16 + 32 bits) and EtherType.
_HEADER = struct.Struct("!HIHIH")  # staticcheck: width=14
#: Minimum Ethernet header size (no 802.1Q tag support needed here).
HEADER_SIZE = _HEADER.size  # 14


class EthernetError(ValueError):
    """Raised when an Ethernet frame cannot be decoded."""


@dataclass(frozen=True, slots=True)
class EthernetFrame:
    """An Ethernet II frame (no FCS; captures normally strip it)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError("ethertype must fit in 16 bits")

    def encode(self) -> bytes:
        return (self.dst.to_bytes() + self.src.to_bytes()
                + self.ethertype.to_bytes(2, "big") + self.payload)

    @classmethod
    def decode(cls, data: bytes | memoryview) -> "EthernetFrame":
        raw = bytes(data)
        if len(raw) < HEADER_SIZE:
            raise EthernetError(
                f"frame too short for Ethernet header: {len(raw)} octets")
        dst_high, dst_low, src_high, src_low, ethertype = \
            _HEADER.unpack_from(raw)
        # The struct widths bound every field the constructors check.
        frame = _new(cls)
        _set_dst(frame, shared_mac(dst_high << 32 | dst_low))
        _set_src(frame, shared_mac(src_high << 32 | src_low))
        _set_ethertype(frame, ethertype)
        _set_payload(frame, raw[HEADER_SIZE:])
        return frame


_new = object.__new__
_set_dst, _set_src, _set_ethertype, _set_payload = \
    slot_setters(EthernetFrame)
