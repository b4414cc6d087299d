"""libpcap file format tests.

The canonical timestamp is integer microseconds (``time_us``); the
microsecond record header stores exactly ``divmod(time_us, 1_000_000)``,
so writer↔reader round trips must be *exact*, not approximate.
"""

import io
import struct

import pytest
from hypothesis import given, strategies as st

from repro.netstack import pcap
from repro.netstack.pcap import (LINKTYPE_ETHERNET, MAGIC_NSEC, PcapError,
                                 PcapReader, PcapRecord, PcapWriter,
                                 read_pcap, write_pcap)

from .pcap_reference import iter_unbuffered


def roundtrip(records, snaplen=65535, nanoseconds=False):
    buffer = io.BytesIO()
    PcapWriter(buffer, snaplen=snaplen,
               nanoseconds=nanoseconds).write_all(records)
    buffer.seek(0)
    return list(PcapReader(buffer))


class TestRoundtrip:
    def test_single_record(self):
        records = roundtrip([PcapRecord(time_us=12_345_678,
                                        data=b"\xAA" * 60)])
        assert len(records) == 1
        assert records[0].data == b"\xAA" * 60
        assert records[0].time_us == 12_345_678

    def test_many_records_preserve_order(self):
        inputs = [PcapRecord(time_us=i * 1_000_000, data=bytes([i]) * 10)
                  for i in range(50)]
        outputs = roundtrip(inputs)
        assert [r.data for r in outputs] == [r.data for r in inputs]

    def test_empty_file(self):
        assert roundtrip([]) == []

    def test_snaplen_truncates(self):
        records = roundtrip([PcapRecord(time_us=0, data=b"x" * 100)],
                            snaplen=40)
        assert len(records[0].data) == 40
        assert records[0].original_length == 100
        assert records[0].truncated

    def test_float_timestamp_rejected(self):
        with pytest.raises(TypeError):
            PcapRecord(time_us=1.9999996, data=b"x")

    def test_float_timestamp_view_removed(self):
        # The deprecated float-seconds view went away in 1.1.0.
        record = PcapRecord(time_us=2_500_000, data=b"x")
        with pytest.raises(AttributeError):
            record.timestamp

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10**15),
        st.binary(min_size=0, max_size=100)), max_size=20))
    def test_roundtrip_property_exact(self, entries):
        """Integer-µs timestamps survive the µs-magic round trip
        bit-for-bit — no approx, no sidecar."""
        inputs = [PcapRecord(time_us=t, data=d) for t, d in entries]
        outputs = roundtrip(inputs)
        assert len(outputs) == len(inputs)
        for before, after in zip(inputs, outputs):
            assert after.data == before.data
            assert after.time_us == before.time_us

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=10**15),
        st.binary(min_size=0, max_size=100)), max_size=20))
    def test_roundtrip_property_exact_nanosecond_magic(self, entries):
        """The 0xa1b23c4d writer stores micros*1000; reading floors
        back to the identical canonical tick."""
        inputs = [PcapRecord(time_us=t, data=d) for t, d in entries]
        outputs = roundtrip(inputs, nanoseconds=True)
        assert [r.time_us for r in outputs] \
            == [r.time_us for r in inputs]
        assert [r.data for r in outputs] == [r.data for r in inputs]


class TestHeader:
    def test_header_fields(self):
        buffer = io.BytesIO()
        PcapWriter(buffer, snaplen=1234)
        buffer.seek(0)
        reader = PcapReader(buffer)
        assert reader.version == (2, 4)
        assert reader.snaplen == 1234
        assert reader.linktype == LINKTYPE_ETHERNET

    def test_nanosecond_magic_write_sets_magic(self):
        buffer = io.BytesIO()
        PcapWriter(buffer, nanoseconds=True)
        assert struct.unpack("<I", buffer.getvalue()[:4])[0] == MAGIC_NSEC

    def test_nanosecond_magic(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_NSEC, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack("<IIII", 10, 500_000_000, 3, 3))
        buffer.write(b"abc")
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert records[0].time_us == 10_500_000

    def test_nanosecond_sub_microsecond_floors(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_NSEC, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack("<IIII", 10, 123_456_789, 3, 3))
        buffer.write(b"abc")
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert records[0].time_us == 10_123_456

    def test_big_endian(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack(">IIII", 7, 250_000, 2, 2))
        buffer.write(b"hi")
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert records[0].time_us == 7_250_000
        assert records[0].data == b"hi"

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=999_999),
        st.binary(min_size=0, max_size=40)), max_size=10))
    def test_big_endian_records_read_exactly(self, entries):
        """Hand-packed big-endian µs records decode to the exact tick."""
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, 1))
        for seconds, micros, data in entries:
            buffer.write(struct.pack(">IIII", seconds, micros,
                                     len(data), len(data)))
            buffer.write(data)
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert [r.time_us for r in records] \
            == [s * 1_000_000 + u for s, u, _ in entries]


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record_header(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(b"\x01\x02")
        buffer.seek(0)
        with pytest.raises(PcapError):
            list(PcapReader(buffer))

    def test_truncated_record_body(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(struct.pack("<IIII", 0, 0, 100, 100))
        buffer.write(b"short")
        buffer.seek(0)
        with pytest.raises(PcapError):
            list(PcapReader(buffer))


class TestFastPathParity:
    """The scanner path (a chunked :class:`PcapReader`) and the
    independent one-read-per-field reference must agree exactly:
    records, and the error raised for each truncation mode."""

    @staticmethod
    def both_paths(raw: bytes):
        scanned = list(PcapReader(io.BytesIO(raw)))
        reference = list(iter_unbuffered(io.BytesIO(raw)))
        return scanned, reference

    def test_little_endian_microseconds(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for index in range(25):
            writer.write(PcapRecord(time_us=index * 1_000_000 + index,
                                    data=bytes([index]) * (index + 1)))
        scanned, reference = self.both_paths(buffer.getvalue())
        assert scanned == reference
        assert len(scanned) == 25

    def test_big_endian(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                 65535, 1))
        for index in range(5):
            buffer.write(struct.pack(">IIII", index, 250_000, 4, 4))
            buffer.write(bytes([index]) * 4)
        scanned, reference = self.both_paths(buffer.getvalue())
        assert scanned == reference
        assert scanned[3].time_us == 3_250_000

    def test_nanosecond_magic(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_NSEC, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack("<IIII", 10, 123_456_789, 3, 3))
        buffer.write(b"abc")
        scanned, reference = self.both_paths(buffer.getvalue())
        assert scanned == reference
        # Integer identity: both paths must floor to the same tick.
        assert scanned[0].time_us == reference[0].time_us == 10_123_456

    def test_big_endian_nanoseconds(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", MAGIC_NSEC, 2, 4, 0, 0,
                                 65535, 1))
        buffer.write(struct.pack(">IIII", 1, 999_999_999, 2, 2))
        buffer.write(b"hi")
        scanned, reference = self.both_paths(buffer.getvalue())
        assert scanned == reference

    def test_truncated_record_header_both_paths(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(b"\x01\x02")
        raw = buffer.getvalue()
        with pytest.raises(PcapError, match="record header"):
            list(PcapReader(io.BytesIO(raw)))
        with pytest.raises(PcapError, match="record header"):
            list(iter_unbuffered(io.BytesIO(raw)))

    def test_truncated_record_body_both_paths(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)
        buffer.write(struct.pack("<IIII", 0, 0, 100, 100))
        buffer.write(b"short")
        raw = buffer.getvalue()
        with pytest.raises(PcapError, match="record body"):
            list(PcapReader(io.BytesIO(raw)))
        with pytest.raises(PcapError, match="record body"):
            list(iter_unbuffered(io.BytesIO(raw)))

    def test_records_before_truncation_agree(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(PcapRecord(time_us=1_000_000, data=b"ok"))
        buffer.write(struct.pack("<IIII", 2, 0, 50, 50))
        buffer.write(b"not fifty octets")
        raw = buffer.getvalue()
        for records in (PcapReader(io.BytesIO(raw)),
                        iter_unbuffered(io.BytesIO(raw))):
            iterator = iter(records)
            assert next(iterator).data == b"ok"
            with pytest.raises(PcapError, match="record body"):
                next(iterator)

    def test_chunk_boundaries_are_invisible(self, monkeypatch):
        """Reads far smaller than a record split headers and bodies
        across chunks; the records must not change."""
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for index in range(12):
            writer.write(PcapRecord(time_us=index * 7_000_001,
                                    data=bytes([index]) * (3 * index)))
        raw = buffer.getvalue()
        whole = list(PcapReader(io.BytesIO(raw)))
        for chunk in (1, 5, 16, 23):
            monkeypatch.setattr(pcap, "READ_CHUNK", chunk)
            assert list(PcapReader(io.BytesIO(raw))) == whole, chunk
        assert whole == list(iter_unbuffered(io.BytesIO(raw)))


class TestFileHelpers:
    def test_write_read_path(self, tmp_path):
        path = tmp_path / "capture.pcap"
        count = write_pcap(path,
                           [PcapRecord(time_us=1_000_000, data=b"abc")])
        assert count == 1
        records = read_pcap(path)
        assert records[0].data == b"abc"
        assert records[0].time_us == 1_000_000
