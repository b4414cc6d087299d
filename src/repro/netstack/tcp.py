"""TCP segment codec with pseudo-header checksum and option parsing."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..slots import slot_setters
from .addresses import IPv4Address
from .checksum import internet_checksum
from .ip import PROTO_TCP

_HEADER = struct.Struct("!HHIIBBHHH")  # staticcheck: width=20
MIN_HEADER_SIZE = _HEADER.size  # 20
#: The checksum pseudo-header: addresses, zero, protocol, TCP length.
_PSEUDO_HEADER = struct.Struct("!IIBBH")  # staticcheck: width=12


class TCPError(ValueError):
    """Raised when a TCP segment cannot be decoded."""


@dataclass(frozen=True)
class TCPOption:
    """One TCP option (kind + raw payload, with decoded conveniences)."""

    kind: int
    data: bytes = b""

    # Well-known option kinds.
    END = 0
    NOP = 1
    MSS = 2
    WINDOW_SCALE = 3
    SACK_PERMITTED = 4
    SACK = 5
    TIMESTAMPS = 8

    @property
    def mss(self) -> int | None:
        if self.kind == self.MSS and len(self.data) == 2:
            return struct.unpack("!H", self.data)[0]
        return None

    @property
    def window_scale(self) -> int | None:
        if self.kind == self.WINDOW_SCALE and len(self.data) == 1:
            return self.data[0]
        return None

    @property
    def timestamps(self) -> tuple[int, int] | None:
        if self.kind == self.TIMESTAMPS and len(self.data) == 8:
            return struct.unpack("!II", self.data)

    @property
    def sack_blocks(self) -> tuple[tuple[int, int], ...] | None:
        if self.kind == self.SACK and len(self.data) % 8 == 0:
            values = struct.unpack(f"!{len(self.data) // 4}I",
                                   self.data)
            return tuple(zip(values[0::2], values[1::2]))
        return None

    def encode(self) -> bytes:
        if self.kind in (self.END, self.NOP):
            return bytes((self.kind,))
        return bytes((self.kind, 2 + len(self.data))) + self.data


def parse_options(raw: bytes) -> tuple[TCPOption, ...]:
    """Parse the TCP options area (between header and payload)."""
    options: list[TCPOption] = []
    offset = 0
    while offset < len(raw):
        kind = raw[offset]
        if kind == TCPOption.END:
            break
        if kind == TCPOption.NOP:
            options.append(TCPOption(kind=kind))
            offset += 1
            continue
        if offset + 2 > len(raw):
            raise TCPError("truncated TCP option header")
        length = raw[offset + 1]
        if length < 2 or offset + length > len(raw):
            raise TCPError(f"invalid TCP option length {length}")
        options.append(TCPOption(kind=kind,
                                 data=raw[offset + 2:offset + length]))
        offset += length
    return tuple(options)


def encode_options(options) -> bytes:
    """Encode options and pad to a 4-octet boundary with END/NOPs."""
    raw = b"".join(option.encode() for option in options)
    if len(raw) % 4:
        raw += b"\x00" * (4 - len(raw) % 4)
    if len(raw) > 40:
        raise TCPError("TCP options exceed 40 octets")
    return raw


@dataclass(frozen=True)
class TCPFlags:
    """The six classic TCP control flags."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False
    psh: bool = False
    urg: bool = False

    def encode(self) -> int:
        return ((0x01 if self.fin else 0)
                | (0x02 if self.syn else 0)
                | (0x04 if self.rst else 0)
                | (0x08 if self.psh else 0)
                | (0x10 if self.ack else 0)
                | (0x20 if self.urg else 0))

    @classmethod
    def decode(cls, bits: int) -> "TCPFlags":
        """The shared instance for the low six bits of ``bits``."""
        return _FLAGS[bits & 0x3F]

    def __str__(self) -> str:
        names = [name.upper() for name in
                 ("syn", "ack", "fin", "rst", "psh", "urg")
                 if getattr(self, name)]
        return "|".join(names) if names else "-"


#: Every combination of the six flags, indexed by its encoding; the
#: instances are frozen, so decoded segments share them.
_FLAGS = tuple(TCPFlags(fin=bool(bits & 0x01), syn=bool(bits & 0x02),
                        rst=bool(bits & 0x04), psh=bool(bits & 0x08),
                        ack=bool(bits & 0x10), urg=bool(bits & 0x20))
               for bits in range(64))

#: Common flag combinations.
SYN = TCPFlags(syn=True)
SYN_ACK = TCPFlags(syn=True, ack=True)
ACK = TCPFlags(ack=True)
PSH_ACK = TCPFlags(psh=True, ack=True)
FIN_ACK = TCPFlags(fin=True, ack=True)
RST = TCPFlags(rst=True)
RST_ACK = TCPFlags(rst=True, ack=True)


@dataclass(frozen=True, slots=True)
class TCPSegment:
    """A TCP segment. ``checksum`` is recomputed on encode."""

    src_port: int
    dst_port: int
    seq: int
    ack: int = 0
    flags: TCPFlags = field(default_factory=TCPFlags)
    window: int = 65535
    payload: bytes = b""
    options: tuple[TCPOption, ...] = ()

    def __post_init__(self) -> None:
        for name, value in (("src_port", self.src_port),
                            ("dst_port", self.dst_port),
                            ("window", self.window)):
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} must fit in 16 bits")
        for name, value in (("seq", self.seq), ("ack", self.ack)):
            if not 0 <= value < (1 << 32):
                raise ValueError(f"{name} must fit in 32 bits")

    @property
    def sequence_space(self) -> int:
        """Octets of sequence space consumed (payload + SYN/FIN)."""
        return (len(self.payload)
                + (1 if self.flags.syn else 0)
                + (1 if self.flags.fin else 0))

    def encode(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bytes:
        option_bytes = encode_options(self.options)
        header_size = MIN_HEADER_SIZE + len(option_bytes)
        data_offset = (header_size // 4) << 4
        header = _HEADER.pack(self.src_port, self.dst_port, self.seq,
                              self.ack, data_offset, self.flags.encode(),
                              self.window, 0, 0) + option_bytes
        pseudo = _PSEUDO_HEADER.pack(src_ip.value, dst_ip.value, 0,
                                     PROTO_TCP,
                                     len(header) + len(self.payload))
        checksum = internet_checksum(pseudo + header + self.payload)
        header = header[:16] + checksum.to_bytes(2, "big") + header[18:]
        return header + self.payload

    @classmethod
    def decode(cls, data: bytes | memoryview, src_ip: IPv4Address,
               dst_ip: IPv4Address) -> "TCPSegment":
        raw = bytes(data)
        if len(raw) < MIN_HEADER_SIZE:
            raise TCPError(f"segment too short: {len(raw)} octets")
        (src_port, dst_port, seq, ack, offset_byte, flag_bits, window,
         _checksum, _urgent) = _HEADER.unpack_from(raw)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < MIN_HEADER_SIZE or len(raw) < data_offset:
            raise TCPError(f"invalid data offset {data_offset}")
        pseudo = _PSEUDO_HEADER.pack(src_ip.value, dst_ip.value, 0,
                                     PROTO_TCP, len(raw))
        if internet_checksum(pseudo + raw) != 0:
            raise TCPError("TCP checksum mismatch")
        options = (parse_options(raw[MIN_HEADER_SIZE:data_offset])
                   if data_offset > MIN_HEADER_SIZE else ())
        # The struct widths bound every field the constructor checks.
        segment = _new(cls)
        _set_src_port(segment, src_port)
        _set_dst_port(segment, dst_port)
        _set_seq(segment, seq)
        _set_ack(segment, ack)
        _set_flags(segment, TCPFlags.decode(flag_bits))
        _set_window(segment, window)
        _set_payload(segment, raw[data_offset:])
        _set_options(segment, options)
        return segment


_new = object.__new__
(_set_src_port, _set_dst_port, _set_seq, _set_ack, _set_flags, _set_window,
 _set_payload, _set_options) = slot_setters(TCPSegment)
