"""Minimal pcapng (pcap next generation) reader and writer.

Real-world captures increasingly come as pcapng; this module supports
the blocks needed to round-trip packet data: Section Header
(0x0A0D0D0A), Interface Description (1), Enhanced Packet (6) and
Simple Packet (3). Options other than ``if_tsresol`` are skipped;
multiple sections and interfaces are handled; both byte orders are
supported via the section byte-order magic.

Reading has one implementation, :class:`PcapngScanner` (block
framing, section byte order, interfaces, packet blocks). The batch
:class:`PcapngReader` and the streaming
:class:`~repro.stream.ingest.PcapngTailSource` are shells that feed it
bytes, so tail/batch parity and the end-of-file rule (see
:class:`~repro.netstack.pcap.ByteScanner`) hold by construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

from .pcap import (LINKTYPE_ETHERNET, MAGIC_NSEC, MAGIC_USEC,
                   ByteScanner, CaptureReader, PcapRecord)

SHB_TYPE = 0x0A0D0D0A
IDB_TYPE = 0x00000001
SPB_TYPE = 0x00000003
EPB_TYPE = 0x00000006

_BYTE_ORDER_MAGIC = 0x1A2B3C4D

#: A block header (type + length) plus, for an SHB, the byte-order
#: magic needed to interpret the length at all.
_BLOCK_PROBE_SIZE = 12

_U32 = {"<": struct.Struct("<I"), ">": struct.Struct(">I")}


class PcapngError(ValueError):
    """Raised on malformed pcapng input."""


@dataclass
class Interface:
    """One Interface Description Block's decoded state."""

    linktype: int
    #: Timestamp units per second (from if_tsresol; default 1e6).
    ticks_per_second: int = 1_000_000


def parse_idb_body(body: bytes, endian: str) -> Interface:
    """Decode an Interface Description Block body (sans header)."""
    if len(body) < 8:
        raise PcapngError("IDB too short")
    linktype = struct.unpack(endian + "H", body[0:2])[0]
    interface = Interface(linktype=linktype)
    # Walk options for if_tsresol (code 9).
    offset = 8
    while offset + 4 <= len(body):
        code, length = struct.unpack(endian + "HH",
                                     body[offset:offset + 4])
        offset += 4
        value = body[offset:offset + length]
        offset += (length + 3) & ~3
        if code == 0:
            break
        if code == 9 and value:
            resol = value[0]
            if resol & 0x80:
                interface.ticks_per_second = 2 ** (resol & 0x7F)
            else:
                interface.ticks_per_second = 10 ** resol
    return interface


def parse_epb_body(body: bytes, endian: str,
                   interfaces: list[Interface]) -> PcapRecord:
    """Decode an Enhanced Packet Block body into a record."""
    if len(body) < 20:
        raise PcapngError("EPB too short")
    (interface_id, ts_high, ts_low, captured,
     original) = struct.unpack(endian + "IIIII", body[:20])
    if interface_id >= len(interfaces):
        raise PcapngError(
            f"EPB references unknown interface {interface_id}")
    ticks = (ts_high << 32) | ts_low
    interface = interfaces[interface_id]
    data = body[20:20 + captured]
    if len(data) < captured:
        raise PcapngError("EPB packet data truncated")
    # Exact integer conversion to the canonical µs tick; decimal
    # resolutions >= 1e6 divide evenly, coarser or binary resolutions
    # floor deterministically.
    time_us = ticks * 1_000_000 // interface.ticks_per_second
    return PcapRecord(time_us=time_us, data=data,
                      original_length=original)


def parse_spb_body(body: bytes, endian: str) -> PcapRecord:
    """Decode a Simple Packet Block body (no timestamp available)."""
    if len(body) < 4:
        raise PcapngError("SPB too short")
    original = struct.unpack(endian + "I", body[:4])[0]
    data = body[4:4 + original]
    return PcapRecord(time_us=0, data=data, original_length=original)


class PcapngScanner(ByteScanner):
    """The pcapng scanner: block framing and dispatch.

    An SHB starts a section (byte order from its magic, interface list
    reset); IDBs add interfaces; EPB and SPB blocks become records;
    any other block (NRB, ISB, custom) is counted in
    ``blocks_skipped``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._endian = "<"
        self._have_section = False
        self._interfaces: list[Interface] = []
        self.blocks_skipped = 0

    def header(self) -> bool:
        if not self._have_section:
            self._next_block()
        return self._have_section

    def _next_block(self) -> tuple[int, bytes] | None:
        """Pop one complete block off the buffer, or None to wait."""
        buffer = self._buffer
        start = self._offset
        if len(buffer) - start < _BLOCK_PROBE_SIZE:
            return None
        # The SHB type value reads the same under either byte order,
        # so probing with the current one is safe even across a
        # section boundary that flips it.
        endian = self._endian
        block_type = _U32[endian].unpack_from(buffer, start)[0]
        section = block_type == SHB_TYPE
        if section:
            if _U32["<"].unpack_from(buffer, start + 8)[0] \
                    == _BYTE_ORDER_MAGIC:
                endian = "<"
            elif _U32[">"].unpack_from(buffer, start + 8)[0] \
                    == _BYTE_ORDER_MAGIC:
                endian = ">"
            else:
                raise PcapngError("bad byte-order magic")
        elif not self._have_section:
            raise PcapngError(
                f"not a pcapng stream (first block 0x{block_type:08x})")
        u32 = _U32[endian]
        length = u32.unpack_from(buffer, start + 4)[0]
        if length < (16 if section else 12) or length % 4:
            raise PcapngError(f"invalid block length {length}")
        end = start + length
        if len(buffer) < end:
            return None
        if u32.unpack_from(buffer, end - 4)[0] != length:
            raise PcapngError("block length trailer mismatch")
        self._offset = end
        if section:
            self._endian = endian
            self._have_section = True
            self._interfaces = []
        return block_type, buffer[start + 8:end - 4]

    def records(self, limit: int | None = None) -> list[PcapRecord]:
        records: list[PcapRecord] = []
        while limit is None or len(records) < limit:
            block = self._next_block()
            if block is None:
                break
            block_type, body = block
            if block_type == EPB_TYPE:
                records.append(parse_epb_body(body, self._endian,
                                              self._interfaces))
            elif block_type == IDB_TYPE:
                self._interfaces.append(
                    parse_idb_body(body, self._endian))
            elif block_type == SPB_TYPE:
                records.append(parse_spb_body(body, self._endian))
            elif block_type != SHB_TYPE:
                self.blocks_skipped += 1
        return records

    def finish(self) -> None:
        if not self._have_section:
            raise PcapngError("truncated pcapng section header")
        if self.pending_bytes:
            raise PcapngError("truncated pcapng block")


class PcapngReader(CaptureReader):
    """Iterate :class:`PcapRecord` items from a pcapng stream.

    A truncated file yields every complete record, then raises
    :class:`PcapngError`.
    """

    _scanner_type = PcapngScanner


def read_pcapng(path) -> list[PcapRecord]:
    """Read every packet record from a pcapng file."""
    with open(path, "rb") as stream:
        return list(PcapngReader(stream))


class PcapngWriter:
    """Write packet records as a single-section pcapng stream.

    Emits one Section Header Block plus one Interface Description
    Block up front (microsecond resolution — the pcapng default, so
    no ``if_tsresol`` option is needed), then one Enhanced Packet
    Block per record. Symmetric with :class:`PcapngReader`: canonical
    integer-µs ticks round-trip losslessly.
    """

    def __init__(self, stream: BinaryIO,
                 linktype: int = LINKTYPE_ETHERNET,
                 snaplen: int = 65535):
        self._stream = stream
        self.snaplen = snaplen
        # SHB: magic, version 1.0, section length unknown (-1).
        shb_body = struct.pack("<IHHq", _BYTE_ORDER_MAGIC, 1, 0, -1)
        self._write_block(SHB_TYPE, shb_body)
        # IDB: linktype, reserved, snaplen; no options.
        idb_body = struct.pack("<HHI", linktype, 0, snaplen)
        self._write_block(IDB_TYPE, idb_body)

    def _write_block(self, block_type: int, body: bytes) -> None:
        padding = (-len(body)) % 4
        length = 12 + len(body) + padding
        self._stream.write(struct.pack("<II", block_type, length))
        self._stream.write(body)
        self._stream.write(b"\x00" * padding)
        self._stream.write(struct.pack("<I", length))

    def write(self, time_us: int, data: bytes,
              original_length: int | None = None) -> None:
        """Append one packet as an Enhanced Packet Block."""
        captured = data[:self.snaplen]
        original = (original_length if original_length is not None
                    else len(data))
        header = struct.pack("<IIIII", 0, (time_us >> 32) & 0xFFFFFFFF,
                             time_us & 0xFFFFFFFF, len(captured),
                             original)
        self._write_block(EPB_TYPE, header + captured)

    def write_record(self, record: PcapRecord) -> None:
        self.write(record.time_us, record.data,
                   original_length=record.original_length)


def write_pcapng(path, records) -> int:
    """Write records (``PcapRecord`` iterables) to a pcapng file."""
    count = 0
    with open(path, "wb") as stream:
        writer = PcapngWriter(stream)
        for record in records:
            writer.write_record(record)
            count += 1
    return count


def sniff_format(stream: BinaryIO) -> str:
    """Return "pcap", "pcapng" or "unknown" without consuming input."""
    position = stream.tell()
    magic = stream.read(4)
    stream.seek(position)
    if len(magic) < 4:
        return "unknown"
    value_le = struct.unpack("<I", magic)[0]
    value_be = struct.unpack(">I", magic)[0]
    if value_le == SHB_TYPE:
        return "pcapng"
    if {value_le, value_be} & {MAGIC_USEC, MAGIC_NSEC}:
        return "pcap"
    return "unknown"
