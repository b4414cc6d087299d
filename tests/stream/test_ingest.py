"""Ingest sources: pcap tailing, capture following, live taps, fan-in."""

from __future__ import annotations

import io
import struct

import pytest

from repro.netstack.pcap import (MAGIC_USEC, PcapError, PcapRecord,
                                 PcapWriter)
from repro.netstack.pcapng import (PcapngError, PcapngReader,
                                   PcapngWriter)
from repro.stream import (ByteChunk, CaptureSource, ListSource,
                          PcapngTailSource, PcapTailSource, TransportTap)


def pcap_bytes(records: list[PcapRecord]) -> bytes:
    stream = io.BytesIO()
    writer = PcapWriter(stream)
    writer.write_all(records)
    return stream.getvalue()


def pcapng_bytes(records: list[PcapRecord]) -> bytes:
    stream = io.BytesIO()
    writer = PcapngWriter(stream)
    for record in records:
        writer.write_record(record)
    return stream.getvalue()


def records(count: int, start_us: int = 1_000_000) -> list[PcapRecord]:
    return [PcapRecord(time_us=start_us + index * 1000,
                       data=bytes([index % 251]) * 60)
            for index in range(count)]


class TestListSource:
    def test_polls_in_batches(self):
        source = ListSource(range(5))
        assert source.poll(2) == [0, 1]
        assert not source.exhausted
        assert source.poll(10) == [2, 3, 4]
        assert source.exhausted
        assert source.poll(10) == []

    def test_takes_items_as_polled(self):
        """A generator stays streamed: one item is read ahead, which
        is what keeps ``exhausted`` exact."""
        pulled = []

        def items():
            for index in range(4):
                pulled.append(index)
                yield index

        source = ListSource(items())
        assert pulled == [0]
        assert source.poll(2) == [0, 1]
        assert pulled == [0, 1, 2]
        assert source.poll(1) == [2]
        assert not source.exhausted
        assert source.poll(5) == [3]
        assert source.exhausted


class TestCaptureSource:
    class GrowingCapture:
        def __init__(self):
            self.packets = []

    def test_follows_growth_then_drains(self):
        capture = self.GrowingCapture()
        source = CaptureSource(capture, finished=False)
        assert source.poll(10) == []
        assert not source.exhausted  # producer still running
        capture.packets.extend(["a", "b"])
        assert source.poll(10) == ["a", "b"]
        capture.packets.append("c")
        source.finished = True
        assert not source.exhausted  # one packet still unread
        assert source.poll(10) == ["c"]
        assert source.exhausted

    def test_host_names_absent_is_empty(self):
        source = CaptureSource(self.GrowingCapture())
        assert source.host_names() == {}


class TestPcapTailSource:
    def test_reads_complete_file(self, tmp_path):
        wanted = records(5)
        path = tmp_path / "done.pcap"
        path.write_bytes(pcap_bytes(wanted))
        source = PcapTailSource(path)
        got = []
        while not source.exhausted:
            got.extend(source.poll(2))
        source.close()
        assert [r.time_us for r in got] == [r.time_us for r in wanted]
        assert [r.data for r in got] == [r.data for r in wanted]
        assert source.records_read == 5

    def test_partial_tail_bytes_stay_buffered(self, tmp_path):
        wanted = records(3)
        data = pcap_bytes(wanted)
        path = tmp_path / "growing.pcap"
        # Write everything except the last record's final 7 bytes.
        path.write_bytes(data[:-7])
        source = PcapTailSource(path, follow=True)
        got = source.poll(10)
        assert len(got) == 2
        assert source.pending_bytes > 0
        assert not source.exhausted  # follow mode never exhausts
        # Writer catches up; the buffered partial record completes.
        with open(path, "ab") as stream:
            stream.write(data[-7:])
        assert len(source.poll(10)) == 1
        assert source.records_read == 3
        source.close()

    def test_partial_global_header_tolerated(self, tmp_path):
        data = pcap_bytes(records(1))
        path = tmp_path / "header.pcap"
        path.write_bytes(data[:10])  # half a global header
        source = PcapTailSource(path, follow=True)
        assert source.poll(10) == []
        with open(path, "ab") as stream:
            stream.write(data[10:])
        assert len(source.poll(10)) == 1
        source.close()

    def test_non_follow_exhausts_at_eof(self, tmp_path):
        path = tmp_path / "single.pcap"
        path.write_bytes(pcap_bytes(records(1)))
        source = PcapTailSource(path)
        source.poll(10)
        source.poll(10)  # sees EOF
        assert source.exhausted
        source.close()

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 40)
        source = PcapTailSource(path)
        with pytest.raises(PcapError):
            source.poll(10)
        source.close()

    def test_big_endian_header(self, tmp_path):
        record = records(1)[0]
        header = struct.pack(">IHHiIII", MAGIC_USEC, 2, 4, 0, 0,
                             65535, 1)
        body = struct.pack(">IIII", record.time_us // 1_000_000,
                           record.time_us % 1_000_000,
                           len(record.data),
                           len(record.data)) + record.data
        path = tmp_path / "be.pcap"
        path.write_bytes(header + body)
        source = PcapTailSource(path)
        got = source.poll(10)
        assert len(got) == 1
        assert got[0].time_us == record.time_us
        assert got[0].data == record.data
        source.close()


class TestPcapngTailSource:
    def test_batch_stream_parity(self, tmp_path):
        """Tailing a finished pcapng yields exactly the reader's
        records (shared block parsers make this hold by construction —
        this pins the buffering layer on top)."""
        wanted = records(7)
        data = pcapng_bytes(wanted)
        path = tmp_path / "done.pcapng"
        path.write_bytes(data)
        batch = list(PcapngReader(io.BytesIO(data)))
        source = PcapngTailSource(path)
        got = []
        while not source.exhausted:
            got.extend(source.poll(3))
        source.close()
        assert [(r.time_us, r.data) for r in got] \
            == [(r.time_us, r.data) for r in batch]
        assert source.records_read == len(wanted)

    def test_partial_block_stays_buffered(self, tmp_path):
        wanted = records(3)
        data = pcapng_bytes(wanted)
        path = tmp_path / "growing.pcapng"
        # Everything except the last block's final 9 bytes.
        path.write_bytes(data[:-9])
        source = PcapngTailSource(path, follow=True)
        got = source.poll(10)
        assert len(got) == 2
        assert source.pending_bytes > 0
        assert not source.exhausted  # follow mode never exhausts
        with open(path, "ab") as stream:
            stream.write(data[-9:])
        assert len(source.poll(10)) == 1
        assert source.records_read == 3
        source.close()

    def test_growth_at_every_block_boundary(self, tmp_path):
        """Cut the file at every byte offset in turn; the buffered
        remainder must always complete to the same record stream."""
        wanted = records(2)
        data = pcapng_bytes(wanted)
        path = tmp_path / "cut.pcapng"
        for cut in range(0, len(data), 7):
            path.write_bytes(data[:cut])
            source = PcapngTailSource(path, follow=True)
            got = list(source.poll(10))
            with open(path, "ab") as stream:
                stream.write(data[cut:])
            while True:
                batch = source.poll(10)
                if not batch:
                    break
                got.extend(batch)
            source.close()
            assert [(r.time_us, r.data) for r in got] \
                == [(r.time_us, r.data) for r in wanted], cut

    def test_partial_section_header_tolerated(self, tmp_path):
        data = pcapng_bytes(records(1))
        path = tmp_path / "header.pcapng"
        path.write_bytes(data[:10])  # not even the byte-order magic
        source = PcapngTailSource(path, follow=True)
        assert source.poll(10) == []
        assert not source.exhausted
        with open(path, "ab") as stream:
            stream.write(data[10:])
        assert len(source.poll(10)) == 1
        source.close()

    def test_non_follow_exhausts_at_eof(self, tmp_path):
        path = tmp_path / "single.pcapng"
        path.write_bytes(pcapng_bytes(records(1)))
        source = PcapngTailSource(path)
        source.poll(10)
        source.poll(10)  # sees EOF
        assert source.exhausted
        source.close()

    def test_new_section_resets_endianness(self, tmp_path):
        # A little-endian section followed by a big-endian one.
        from tests.netstack.test_pcapng import epb, idb, shb
        data = (shb() + idb() + epb(ticks=1_000_000)
                + shb(">") + idb(endian=">")
                + epb(ticks=2_000_000, endian=">"))
        path = tmp_path / "sections.pcapng"
        path.write_bytes(data)
        source = PcapngTailSource(path)
        got = []
        while not source.exhausted:
            got.extend(source.poll(10))
        source.close()
        assert [r.time_us for r in got] == [1_000_000, 2_000_000]

    def test_not_pcapng_raises(self, tmp_path):
        path = tmp_path / "classic.pcap"
        path.write_bytes(pcap_bytes(records(1)))
        source = PcapngTailSource(path)
        with pytest.raises(PcapngError):
            source.poll(10)
        source.close()


#: Per format: bytes of a capture holding ``records``, its tail
#: source and its error.
FORMATS = {
    "pcap": (pcap_bytes, PcapTailSource, PcapError),
    "pcapng": (pcapng_bytes, PcapngTailSource, PcapngError),
}


def drain(source, got: list, max_items: int = 2,
          max_polls: int = 1000) -> None:
    """Poll until exhausted, collecting into ``got``; a source that
    neither exhausts nor raises fails instead of looping forever."""
    for _ in range(max_polls):
        if source.exhausted:
            return
        got.extend(source.poll(max_items))
    raise AssertionError(f"source still polling after {max_polls}")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestEndOfFileRule:
    """A finished capture ending in leftover bytes raises the format
    error after every complete record; ``follow`` keeps waiting."""

    #: Cuts of a three-record capture: (label, bytes kept, records
    #: complete before the cut, expected message).
    @staticmethod
    def cuts(data: bytes, fmt: str):
        header = 24 if fmt == "pcap" else 28
        return [
            ("mid-record", len(data) - 7, 2, "truncated"),
            ("mid-header", 10, 0,
             "global header" if fmt == "pcap" else "section header"),
            ("mid-record-header", header + 5, 0, "truncated"),
            ("empty", 0, 0, "truncated"),
        ]

    def test_non_follow_raises_after_complete_records(self, tmp_path,
                                                      fmt):
        to_bytes, source_type, error = FORMATS[fmt]
        wanted = records(3)
        data = to_bytes(wanted)
        for label, keep, complete, message in self.cuts(data, fmt):
            path = tmp_path / f"{label}.{fmt}"
            path.write_bytes(data[:keep])
            source = source_type(path)
            got: list = []
            with pytest.raises(error, match=message) as info:
                drain(source, got)
            source.close()
            assert str(path) in str(info.value), label
            assert [(r.time_us, r.data) for r in got] \
                == [(r.time_us, r.data) for r in wanted[:complete]], \
                label
            assert not source.exhausted, label

    def test_follow_keeps_buffering(self, tmp_path, fmt):
        to_bytes, source_type, _error = FORMATS[fmt]
        wanted = records(3)
        data = to_bytes(wanted)
        for label, keep, complete, _message in self.cuts(data, fmt):
            path = tmp_path / f"{label}.{fmt}"
            path.write_bytes(data[:keep])
            source = source_type(path, follow=True)
            got = []
            for _ in range(5):
                got.extend(source.poll(10))
            assert len(got) == complete, label
            assert not source.exhausted, label
            with open(path, "ab") as stream:
                stream.write(data[keep:])
            got.extend(source.poll(10))
            source.close()
            assert [(r.time_us, r.data) for r in got] \
                == [(r.time_us, r.data) for r in wanted], label
            assert source.pending_bytes == 0, label


class TestTransportTap:
    def test_push_assigns_monotone_ticks(self):
        tap = TransportTap(tick_step_us=10)
        tap.push("a", "b", b"one")
        tap.push("a", "b", b"two", time_us=500)
        tap.push("b", "a", b"three")
        chunks = tap.poll(10)
        assert [chunk.time_us for chunk in chunks] == [10, 500, 510]
        assert [chunk.data for chunk in chunks] \
            == [b"one", b"two", b"three"]

    def test_tap_interposes_and_preserves_receiver(self):
        seen = []

        class FakeTransport:
            receiver = None

        transport = FakeTransport()
        transport.receiver = seen.append
        tap = TransportTap()
        tap.tap(transport, src="C1", dst="O1")
        transport.receiver(b"\x68\x04")
        assert seen == [b"\x68\x04"]  # original callback still runs
        chunks = tap.poll(10)
        assert len(chunks) == 1
        assert (chunks[0].src, chunks[0].dst) == ("C1", "O1")

    def test_exhausted_only_when_finished_and_empty(self):
        tap = TransportTap()
        tap.push("a", "b", b"x")
        assert not tap.exhausted
        tap.finished = True
        assert not tap.exhausted
        tap.poll(10)
        assert tap.exhausted
