"""IPv4 packet codec (header without options, which SCADA gear rarely
uses; options are accepted on decode and skipped)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..slots import slot_setters
from .addresses import IPv4Address, shared_ipv4
from .checksum import internet_checksum

#: IP protocol number for TCP.
PROTO_TCP = 6

#: The option-less header, addresses as 32-bit integers.
_HEADER = struct.Struct("!BBHHHBBHII")  # staticcheck: width=20
MIN_HEADER_SIZE = _HEADER.size  # 20


class IPv4Error(ValueError):
    """Raised when an IPv4 packet cannot be decoded."""


@dataclass(frozen=True, slots=True)
class IPv4Packet:
    """An IPv4 packet. ``checksum`` is recomputed on encode."""

    src: IPv4Address
    dst: IPv4Address
    payload: bytes
    protocol: int = PROTO_TCP
    ttl: int = 64
    identification: int = 0
    dont_fragment: bool = True
    tos: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.protocol <= 255:
            raise ValueError("protocol must fit in 8 bits")
        if not 0 < self.ttl <= 255:
            raise ValueError("ttl must be in 1..255")
        if not 0 <= self.identification <= 0xFFFF:
            raise ValueError("identification must fit in 16 bits")
        if len(self.payload) + MIN_HEADER_SIZE > 0xFFFF:
            raise ValueError("payload too large for IPv4 total length")

    @property
    def total_length(self) -> int:
        return MIN_HEADER_SIZE + len(self.payload)

    def encode(self) -> bytes:
        version_ihl = (4 << 4) | 5
        flags_frag = 0x4000 if self.dont_fragment else 0
        header = _HEADER.pack(version_ihl, self.tos, self.total_length,
                              self.identification, flags_frag, self.ttl,
                              self.protocol, 0, self.src.value,
                              self.dst.value)
        checksum = internet_checksum(header)
        header = header[:10] + checksum.to_bytes(2, "big") + header[12:]
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes | memoryview,
               verify: bool = True) -> "IPv4Packet":
        raw = bytes(data)
        if len(raw) < MIN_HEADER_SIZE:
            raise IPv4Error(f"packet too short: {len(raw)} octets")
        (version_ihl, tos, total_length, identification, flags_frag, ttl,
         protocol, checksum, src, dst) = _HEADER.unpack_from(raw)
        version = version_ihl >> 4
        ihl = (version_ihl & 0x0F) * 4
        if version != 4:
            raise IPv4Error(f"not IPv4 (version {version})")
        if ihl < MIN_HEADER_SIZE or len(raw) < ihl:
            raise IPv4Error(f"invalid header length {ihl}")
        if total_length < ihl or total_length > len(raw):
            raise IPv4Error(
                f"total length {total_length} inconsistent with capture "
                f"({len(raw)} octets)")
        if flags_frag & 0x3FFF and not flags_frag & 0x4000:
            raise IPv4Error("fragmented IPv4 packets are not supported")
        if verify and internet_checksum(raw[:ihl]) != 0:
            raise IPv4Error("IPv4 header checksum mismatch")
        if ttl == 0:
            raise IPv4Error("ttl must be in 1..255")
        # The struct widths and ``total_length`` bound every other
        # field the constructors check.
        packet = _new(cls)
        _set_src(packet, shared_ipv4(src))
        _set_dst(packet, shared_ipv4(dst))
        _set_payload(packet, raw[ihl:total_length])
        _set_protocol(packet, protocol)
        _set_ttl(packet, ttl)
        _set_identification(packet, identification)
        _set_dont_fragment(packet, (flags_frag & 0x4000) != 0)
        _set_tos(packet, tos)
        return packet


_new = object.__new__
(_set_src, _set_dst, _set_payload, _set_protocol, _set_ttl,
 _set_identification, _set_dont_fragment, _set_tos) = \
    slot_setters(IPv4Packet)
