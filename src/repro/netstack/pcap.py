"""Classic libpcap file format reader and writer.

Implements the 24-octet global header plus 16-octet per-record headers,
supporting microsecond (magic 0xa1b2c3d4) and nanosecond (0xa1b23c4d)
resolution and both byte orders on read. This is the on-disk format the
paper's captures were stored in; our simulator writes it and our
analysis pipeline reads it, so the whole pipeline round-trips through
real pcap bytes.

Reading has one implementation, :class:`PcapScanner`: it is fed bytes
and hands back complete records. The batch :class:`PcapReader` feeds
it a stream in fixed-size chunks; the streaming
:class:`~repro.stream.ingest.PcapTailSource` feeds it whatever a
growing file has gained. Both share its end-of-file rule: a finished
capture that ends in a partial header or record raises
:class:`PcapError` after every complete record before it.

Timestamps are canonical integer microseconds (``time_us``), the same
tick the simulation clock counts in. The microsecond record header
stores exactly that pair ``divmod(time_us, 1_000_000)``, so the
writer↔reader round trip is lossless *by construction* — no float
quantization, no exact-timestamp sidecar. Nanosecond-resolution files
are read (and optionally written) with sub-microsecond precision
floored to the canonical tick.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

MAGIC_USEC = 0xA1B2C3D4
MAGIC_NSEC = 0xA1B23C4D

#: Data-link type for Ethernet.
LINKTYPE_ETHERNET = 1

#: Ticks per second (canonical microsecond resolution).
_US_PER_SECOND = 1_000_000

_GLOBAL_HEADER = struct.Struct("<IHHiIII")  # staticcheck: width=24
_RECORD_HEADER = struct.Struct("<IIII")  # staticcheck: width=16


class PcapError(ValueError):
    """Raised on malformed pcap files."""


@dataclass(frozen=True)
class PcapRecord:
    """One captured frame: an integer-µs timestamp and the raw bytes."""

    time_us: int
    data: bytes
    original_length: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.time_us, int) \
                or isinstance(self.time_us, bool):
            raise TypeError(
                f"time_us must be integer microseconds, got "
                f"{self.time_us!r} — use round(seconds * 1_000_000) "
                f"to convert")

    @property
    def truncated(self) -> bool:
        return (self.original_length is not None
                and self.original_length > len(self.data))


class PcapWriter:
    """Write records to a classic pcap stream.

    The default microsecond resolution stores ``time_us`` exactly;
    ``nanoseconds=True`` writes the 0xa1b23c4d variant (each tick
    stored as ``micros * 1000``), mainly so round-trip tests can cover
    both magics with files we produced ourselves.
    """

    def __init__(self, stream: BinaryIO, snaplen: int = 65535,
                 linktype: int = LINKTYPE_ETHERNET,
                 nanoseconds: bool = False):
        self._stream = stream
        self._snaplen = snaplen
        self._nanoseconds = nanoseconds
        magic = MAGIC_NSEC if nanoseconds else MAGIC_USEC
        stream.write(_GLOBAL_HEADER.pack(magic, 2, 4, 0, 0, snaplen,
                                         linktype))

    def write(self, record: PcapRecord) -> None:
        seconds, fraction = divmod(record.time_us, _US_PER_SECOND)
        if self._nanoseconds:
            fraction *= 1000
        data = record.data[:self._snaplen]
        original = (record.original_length
                    if record.original_length is not None
                    else len(record.data))
        self._stream.write(_RECORD_HEADER.pack(seconds, fraction,
                                               len(data), original))
        self._stream.write(data)

    def write_all(self, records: Iterable[PcapRecord]) -> int:
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count


#: Bytes a batch reader takes from its stream per read: large enough
#: that the per-read cost vanishes, small enough that no reader ever
#: holds a whole capture.
READ_CHUNK = 1 << 20

#: Precompiled record-header codecs, one per byte order. Sharing them
#: across scanners keeps the per-record hot loop free of Struct builds.
_RECORD_STRUCTS = {
    "<": _RECORD_HEADER,
    ">": struct.Struct(">IIII"),  # staticcheck: width=16
}


class ByteScanner:
    """Incremental parser of one capture format: bytes in, records out.

    Callers :meth:`feed` bytes as they arrive and take every record
    that is complete so far from :meth:`records`; a record cut by the
    end of the fed bytes stays buffered until the rest is fed. Once no
    more bytes will come, :meth:`finish` applies the end-of-file rule:
    bytes left over after the last complete record are a truncated
    capture and raise the format's error.

    Consumed bytes are tracked by a cursor into one buffer that is
    trimmed once per :meth:`feed`, not re-sliced per record.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._offset = 0

    def feed(self, data: bytes) -> None:
        """Append newly arrived bytes."""
        if self._offset:
            self._buffer = self._buffer[self._offset:]
            self._offset = 0
        self._buffer += data

    @property
    def pending_bytes(self) -> int:
        """Bytes fed but not yet consumed by a complete record."""
        return len(self._buffer) - self._offset

    def header(self) -> bool:
        """Parse the file header once its bytes are in; True after."""
        raise NotImplementedError

    def records(self, limit: int | None = None) -> list[PcapRecord]:
        """Every complete record fed so far (at most ``limit``)."""
        raise NotImplementedError

    def finish(self) -> None:
        """The end-of-file rule; call once :meth:`records` is empty."""
        raise NotImplementedError


class PcapScanner(ByteScanner):
    """The classic-pcap scanner: global header, then record framing.

    The global header fixes byte order and µs/ns resolution; each
    record is a 16-octet header plus its captured bytes.
    """

    def __init__(self) -> None:
        super().__init__()
        self._record_struct = _RECORD_HEADER
        self._nanoseconds = False
        #: Global-header fields; None until the header is parsed.
        self.version: tuple[int, int] | None = None
        self.snaplen: int | None = None
        self.linktype: int | None = None

    def header(self) -> bool:
        if self.version is not None:
            return True
        start = self._offset
        if len(self._buffer) - start < _GLOBAL_HEADER.size:
            return False
        header = self._buffer[start:start + _GLOBAL_HEADER.size]
        endian = "<"
        magic = struct.unpack("<I", header[:4])[0]
        if magic not in (MAGIC_USEC, MAGIC_NSEC):
            endian = ">"
            magic = struct.unpack(">I", header[:4])[0]
            if magic not in (MAGIC_USEC, MAGIC_NSEC):
                raise PcapError(f"bad pcap magic 0x{magic:08x}")
        fields = struct.unpack(endian + "IHHiIII", header)
        self.version = (fields[1], fields[2])
        self.snaplen = fields[5]
        self.linktype = fields[6]
        self._nanoseconds = magic == MAGIC_NSEC
        self._record_struct = _RECORD_STRUCTS[endian]
        self._offset = start + _GLOBAL_HEADER.size
        return True

    def records(self, limit: int | None = None) -> list[PcapRecord]:
        if not self.header():
            return []
        # The whole loop is index arithmetic over one precompiled
        # ``Struct.unpack_from``; only the payload bytes of complete
        # records are materialized.
        records: list[PcapRecord] = []
        append = records.append
        unpack_from = self._record_struct.unpack_from
        header_size = _RECORD_HEADER.size
        nanoseconds = self._nanoseconds
        buffer = self._buffer
        size = len(buffer)
        offset = self._offset
        us = _US_PER_SECOND
        while limit is None or len(records) < limit:
            if size - offset < header_size:
                break
            seconds, fraction, captured, original = unpack_from(buffer,
                                                                offset)
            body = offset + header_size
            if size - body < captured:
                break
            if nanoseconds:
                fraction //= 1000
            append(PcapRecord(time_us=seconds * us + fraction,
                              data=buffer[body:body + captured],
                              original_length=original))
            offset = body + captured
        self._offset = offset
        return records

    def finish(self) -> None:
        if not self.header():
            raise PcapError("truncated pcap global header")
        pending = self.pending_bytes
        if pending:
            part = "header" if pending < _RECORD_HEADER.size else "body"
            raise PcapError(f"truncated pcap record {part}")


class CaptureReader:
    """A batch reader: a stream pulled through its format's scanner.

    The stream is read in :data:`READ_CHUNK` pieces, so memory stays
    bounded by one chunk plus one record however large the file. The
    header is parsed on construction; iteration yields every complete
    record, then applies the scanner's end-of-file rule.
    """

    _scanner_type: type[ByteScanner]

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        self._scanner = scanner = self._scanner_type()
        while not scanner.header() and self._fill():
            pass

    def _fill(self) -> bool:
        """Feed the next chunk; at end of stream apply the EOF rule."""
        chunk = self._stream.read(READ_CHUNK)
        if chunk:
            self._scanner.feed(chunk)
            return True
        self._scanner.finish()
        return False

    def __iter__(self) -> Iterator[PcapRecord]:
        while True:
            yield from self._scanner.records()
            if not self._fill():
                return


class PcapReader(CaptureReader):
    """Read records from a classic pcap stream.

    A truncated file yields every complete record, then raises
    :class:`PcapError` naming the truncation (global header, record
    header or record body).
    """

    _scanner: PcapScanner
    _scanner_type = PcapScanner

    def __init__(self, stream: BinaryIO):
        super().__init__(stream)
        self.version = self._scanner.version
        self.snaplen = self._scanner.snaplen
        self.linktype = self._scanner.linktype


def write_pcap(path, records: Iterable[PcapRecord],
               snaplen: int = 65535) -> int:
    """Write ``records`` to ``path``; return the number written."""
    with open(path, "wb") as stream:
        return PcapWriter(stream, snaplen=snaplen).write_all(records)


def read_pcap(path) -> list[PcapRecord]:
    """Read every record from the pcap file at ``path``."""
    with open(path, "rb") as stream:
        return list(PcapReader(stream))
