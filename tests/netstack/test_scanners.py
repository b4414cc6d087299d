"""Property tests for the two capture scanners and their shells.

Each format has one scanner (:class:`~repro.netstack.pcap.PcapScanner`,
:class:`~repro.netstack.pcapng.PcapngScanner`) behind two shells: the
batch reader (a stream in) and the tail source (a growing file in).
Two properties pin them:

* **chunk invariance** — however a valid capture's bytes arrive,
  however large each poll and each read, the tail source yields
  exactly the batch reader's records and error (and, for pcap, the
  independent reference reader's records and errors), and holds at
  most one read chunk plus one partial record after every poll;
* **totality** — arbitrary bytes, and valid captures cut short or
  with a byte flipped, produce records or the format's documented
  error, never ``struct.error``/``IndexError``/anything else, and a
  source never holds more bytes than it was fed.
"""

from __future__ import annotations

import io
import itertools
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack import pcap
from repro.netstack.pcap import (MAGIC_NSEC, MAGIC_USEC, PcapError,
                                 PcapReader)
from repro.netstack.pcapng import PcapngError, PcapngReader
from repro.stream import PcapngTailSource, PcapTailSource

from .pcap_reference import iter_unbuffered
from .test_pcapng import block, epb, idb, pad4, shb

#: Per format: batch reader, tail source, documented error.
SHELLS = {
    "pcap": (PcapReader, PcapTailSource, PcapError),
    "pcapng": (PcapngReader, PcapngTailSource, PcapngError),
}

PROPERTY = settings(max_examples=150, deadline=None)

#: Poll sizes a tail source cycles through, and read sizes far
#: smaller than a capture, so reads split headers, records and blocks.
POLLS = st.lists(st.integers(1, 5), min_size=1, max_size=4)
READS = st.integers(1, 64)
#: Times a drawn capture's records (pcap) or sections (pcapng) are
#: repeated, so a file holds many reads' worth of small records.
COPIES = st.integers(1, 8)


@st.composite
def pcap_captures(draw) -> bytes:
    """Classic pcap in either byte order, µs or ns resolution."""
    endian = draw(st.sampled_from("<>"))
    nanoseconds = draw(st.booleans())
    out = struct.pack(endian + "IHHiIII",
                      MAGIC_NSEC if nanoseconds else MAGIC_USEC,
                      2, 4, 0, 0, 65535, 1)
    records = draw(st.lists(st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 999_999_999 if nanoseconds else 999_999),
        st.binary(max_size=40),
        st.integers(0, 64)), max_size=8))
    for seconds, fraction, data, extra in records:
        out += struct.pack(endian + "IIII", seconds, fraction,
                           len(data), len(data) + extra) + data
    return out


#: One IDB option: code (end, comment, ``if_tsresol``, unknown),
#: declared length, value bytes (which may disagree with the length).
OPTIONS = st.tuples(st.sampled_from([0, 1, 9, 9, 0xBEEF]),
                    st.integers(0, 8), st.binary(max_size=8))


@st.composite
def pcapng_captures(draw) -> bytes:
    """pcapng with 1-3 sections of either byte order, interfaces with
    arbitrary options (``if_tsresol`` of any value, short values),
    EPB/SPB packets and skipped blocks."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        endian = draw(st.sampled_from("<>"))
        parts.append(shb(endian))
        interfaces = draw(st.integers(0, 2))
        for _ in range(interfaces):
            options = b"".join(
                struct.pack(endian + "HH", code, length) + pad4(value)
                for code, length, value
                in draw(st.lists(OPTIONS, max_size=3)))
            parts.append(idb(options=options, endian=endian))
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["epb", "spb", "other"]))
            data = draw(st.binary(max_size=40))
            if kind == "epb" and interfaces:
                parts.append(epb(
                    interface=draw(st.integers(0, interfaces - 1)),
                    ticks=draw(st.integers(0, 2**48)), data=data,
                    endian=endian))
            elif kind == "spb":
                parts.append(block(
                    0x00000003,
                    struct.pack(endian + "I", len(data)) + pad4(data),
                    endian))
            else:  # a Name Resolution Block: counted, not decoded
                parts.append(block(0x00000004, data, endian))
    return b"".join(parts)


CAPTURES = {"pcap": pcap_captures(), "pcapng": pcapng_captures()}


def split(data: bytes, cuts: list[int]) -> list[bytes]:
    """``data`` cut at every offset in ``cuts`` (any order, repeats)."""
    points = sorted({cut % (len(data) + 1) for cut in cuts})
    bounds = [0, *points, len(data)]
    return [data[start:end] for start, end in zip(bounds, bounds[1:])]


def key(records) -> list[tuple]:
    return [(r.time_us, r.data, r.original_length) for r in records]


def batch_read(reader_type, data: bytes):
    """(records, error) of a batch reader over ``data``."""
    records: list = []
    try:
        records.extend(reader_type(io.BytesIO(data)))
    except (PcapError, PcapngError) as exc:
        return records, exc
    return records, None


def repeated(fmt: str, capture: bytes, copies: int) -> bytes:
    """A valid capture holding ``capture``'s records ``copies`` times."""
    if fmt == "pcap":
        return capture[:24] + capture[24:] * copies
    return capture * copies


def largest_unit(fmt: str, capture: bytes) -> int:
    """The largest file header, record or block of a valid capture,
    in octets on disk."""
    sizes = []
    if fmt == "pcap":
        magic = struct.unpack("<I", capture[:4])[0]
        endian = "<" if magic in (MAGIC_USEC, MAGIC_NSEC) else ">"
        offset = 24
        sizes.append(offset)
        while offset < len(capture):
            size = 16 + struct.unpack_from(endian + "I", capture,
                                           offset + 8)[0]
            sizes.append(size)
            offset += size
        return max(sizes)
    offset, endian = 0, "<"
    while offset < len(capture):
        if capture[offset:offset + 4] == b"\n\r\r\n":
            order = struct.unpack_from("<I", capture, offset + 8)[0]
            endian = "<" if order == 0x1A2B3C4D else ">"
        size = struct.unpack_from(endian + "I", capture, offset + 4)[0]
        sizes.append(size)
        offset += size
    return max(sizes)


def tail_read(source_type, path, data: bytes, polls=(3,),
              bound: int | None = None):
    """(records, error) of a non-follow tail source over ``data``,
    polled with the sizes in ``polls`` in turn, asserting it never
    buffers more than ``bound`` (default: what the file holds)."""
    path.write_bytes(data)
    source = source_type(path)
    records: list = []
    try:
        for size in itertools.islice(itertools.cycle(polls),
                                     len(data) + 4):
            if source.exhausted:
                break
            records.extend(source.poll(size))
            assert source.pending_bytes <= min(len(data),
                                               bound or len(data))
        else:
            raise AssertionError("tail source neither ended nor raised")
    except (PcapError, PcapngError) as exc:
        return records, exc
    finally:
        source.close()
    return records, None


def tail_read_chunks(source_type, path, chunks: list[bytes],
                     polls=(2,), bound: int | None = None):
    """Records a ``follow`` tail source yields while ``chunks`` are
    appended one at a time, polling to quiescence after each with the
    sizes in ``polls`` in turn, never buffering more than ``bound``."""
    path.write_bytes(b"")
    source = source_type(path, follow=True)
    records: list = []
    fed = 0
    sizes = itertools.cycle(polls)
    try:
        for chunk in chunks:
            with open(path, "ab") as stream:
                stream.write(chunk)
            fed += len(chunk)
            while True:
                batch = source.poll(next(sizes))
                assert source.pending_bytes <= min(fed, bound or fed)
                if not batch:
                    break
                records.extend(batch)
    finally:
        source.close()
    return records, source


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("scanners")


@pytest.mark.parametrize("fmt", sorted(SHELLS))
class TestChunkInvariance:
    @PROPERTY
    @given(data=st.data(), cuts=st.lists(st.integers(0, 2**16),
                                         max_size=12),
           polls=POLLS, read=READS, copies=COPIES)
    def test_tail_matches_batch_however_chunked(self, work, fmt, data,
                                                cuts, polls, read,
                                                copies):
        """However the file grows, polls and reads are sized, the tail
        source yields the batch reader's records, holding at most one
        read plus one partial record after every poll."""
        reader_type, source_type, _error = SHELLS[fmt]
        capture = repeated(fmt, data.draw(CAPTURES[fmt]), copies)
        batch, error = batch_read(reader_type, capture)
        assert error is None
        with mock.patch.object(pcap, "READ_CHUNK", read):
            got, source = tail_read_chunks(
                source_type, work / f"c.{fmt}", split(capture, cuts),
                polls, bound=read + largest_unit(fmt, capture))
        assert key(got) == key(batch)
        assert source.records_read == len(batch)
        assert source.pending_bytes == 0
        if fmt == "pcap":
            assert key(batch) \
                == key(iter_unbuffered(io.BytesIO(capture)))

    @PROPERTY
    @given(data=st.data(), cut=st.integers(0, 2**16), polls=POLLS,
           read=READS, copies=COPIES)
    def test_cut_capture_matches_batch_and_reference(self, work, fmt,
                                                     data, cut, polls,
                                                     read, copies):
        """A finished capture cut anywhere, polled and read in any
        sizes: the tail source, the batch reader and (pcap) the
        reference yield the same records, then the same error, and
        the tail holds at most one read plus one partial record."""
        reader_type, source_type, _error = SHELLS[fmt]
        capture = repeated(fmt, data.draw(CAPTURES[fmt]), copies)
        cut_bytes = capture[:cut % (len(capture) + 1)]
        with mock.patch.object(pcap, "READ_CHUNK", read):
            batch, batch_error = batch_read(reader_type, cut_bytes)
            tail, tail_error = tail_read(
                source_type, work / f"t.{fmt}", cut_bytes, polls,
                bound=read + largest_unit(fmt, capture))
        assert key(tail) == key(batch)
        assert (tail_error is None) == (batch_error is None)
        if tail_error is not None:
            assert type(tail_error) is type(batch_error)
            assert str(tail_error).endswith(str(batch_error))
        if fmt == "pcap":
            reference: list = []
            try:
                reference.extend(iter_unbuffered(io.BytesIO(cut_bytes)))
            except PcapError as exc:
                assert batch_error is not None
                assert str(batch_error) == str(exc)
            else:
                assert batch_error is None
            assert key(reference) == key(batch)


@pytest.mark.parametrize("fmt", sorted(SHELLS))
class TestTotality:
    @staticmethod
    def check(work, fmt: str, raw: bytes, cuts: list[int]) -> None:
        reader_type, source_type, _error = SHELLS[fmt]
        # Any exception other than the format errors fails the test.
        batch_read(reader_type, raw)
        tail_read(source_type, work / f"x.{fmt}", raw)
        try:
            tail_read_chunks(source_type, work / f"y.{fmt}",
                             split(raw, cuts))
        except (PcapError, PcapngError):
            pass

    @PROPERTY
    @given(raw=st.binary(max_size=300),
           cuts=st.lists(st.integers(0, 2**16), max_size=6))
    def test_arbitrary_bytes(self, work, fmt, raw, cuts):
        self.check(work, fmt, raw, cuts)

    @PROPERTY
    @given(data=st.data(), header=st.sampled_from(sorted(SHELLS)),
           tail=st.binary(max_size=200),
           cuts=st.lists(st.integers(0, 2**16), max_size=6))
    def test_valid_header_then_garbage(self, work, fmt, data, header,
                                       tail, cuts):
        """Past a well-formed file header, so the record and block
        framing sees the garbage."""
        prefix = data.draw(CAPTURES[header])
        self.check(work, fmt, prefix + tail, cuts)

    @PROPERTY
    @given(data=st.data(), cut=st.integers(0, 2**16),
           flips=st.lists(st.tuples(st.integers(0, 2**16),
                                    st.integers(1, 255)), max_size=3),
           cuts=st.lists(st.integers(0, 2**16), max_size=6))
    def test_cut_or_flipped_capture(self, work, fmt, data, cut, flips,
                                    cuts):
        raw = bytearray(data.draw(CAPTURES[fmt]))
        for position, mask in flips:
            if raw:
                raw[position % len(raw)] ^= mask
        self.check(work, fmt, bytes(raw[:cut % (len(raw) + 1)]), cuts)
