"""An independent classic-pcap reader: the oracle for ``PcapScanner``.

One ``read()`` per global header, record header and record body, with
no buffering and no code shared with :mod:`repro.netstack.pcap`'s
scanner, so agreement between the two is evidence rather than
tautology. It raises the same :class:`PcapError` message for each
truncation mode, after yielding every complete record before it.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

from repro.netstack.pcap import (MAGIC_NSEC, MAGIC_USEC, PcapError,
                                 PcapRecord)


def iter_unbuffered(stream: BinaryIO) -> Iterator[PcapRecord]:
    """Yield the records of the pcap ``stream`` one read at a time."""
    header = stream.read(24)
    if len(header) < 24:
        raise PcapError("truncated pcap global header")
    endian = "<"
    magic = struct.unpack("<I", header[:4])[0]
    if magic not in (MAGIC_USEC, MAGIC_NSEC):
        endian = ">"
        magic = struct.unpack(">I", header[:4])[0]
        if magic not in (MAGIC_USEC, MAGIC_NSEC):
            raise PcapError(f"bad pcap magic 0x{magic:08x}")
    record_header = struct.Struct(endian + "IIII")
    while True:
        head = stream.read(record_header.size)
        if not head:
            return
        if len(head) < record_header.size:
            raise PcapError("truncated pcap record header")
        seconds, fraction, captured, original = record_header.unpack(head)
        data = stream.read(captured)
        if len(data) < captured:
            raise PcapError("truncated pcap record body")
        if magic == MAGIC_NSEC:
            fraction //= 1000
        yield PcapRecord(time_us=seconds * 1_000_000 + fraction,
                         data=data, original_length=original)
