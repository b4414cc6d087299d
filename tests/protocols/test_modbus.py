"""Modbus/TCP codec: MBAP framing, PDU decode, stream resync."""

from __future__ import annotations

import pytest

from repro.protocols.modbus import (MAX_ADU_LENGTH, MBAP_HEADER,
                                    READ_HOLDING_REGISTERS,
                                    WRITE_SINGLE_REGISTER, ModbusAdu,
                                    ModbusParser, ModbusStreamDecoder,
                                    scan_mbap)


def read_request(transaction: int = 1, start: int = 100,
                 count: int = 4) -> ModbusAdu:
    return ModbusAdu(transaction=transaction, unit=1,
                     function=READ_HOLDING_REGISTERS,
                     data=bytes((start >> 8, start & 0xFF,
                                 count >> 8, count & 0xFF)))


class TestAdu:
    def test_encode_parse_round_trip(self):
        adu = read_request(transaction=0x1234)
        result = ModbusParser().parse_frame(adu.encode())
        assert result.ok and result.compliant
        assert result.apdu == adu

    def test_wire_layout(self):
        raw = read_request(transaction=0x0102).encode()
        # MBAP: transaction, protocol id 0, length = unit + PDU.
        assert raw[:2] == b"\x01\x02"
        assert raw[2:4] == b"\x00\x00"
        assert raw[4:6] == (len(raw) - 6).to_bytes(2, "big")
        assert len(raw) == MBAP_HEADER + 1 + 4

    def test_tokens(self):
        assert read_request().token == "F3"
        exception = ModbusAdu(transaction=1, unit=1,
                              function=READ_HOLDING_REGISTERS | 0x80,
                              data=b"\x02")
        assert exception.is_exception
        assert exception.token == "X3"
        assert not read_request().is_exception


class TestParser:
    def test_truncated_adu_is_an_error(self):
        result = ModbusParser().parse_frame(b"\x00\x01\x00\x00")
        assert not result.ok
        assert "truncated" in str(result.error)

    def test_nonzero_protocol_id_is_an_error(self):
        raw = bytearray(read_request().encode())
        raw[2] = 1
        result = ModbusParser().parse_frame(bytes(raw))
        assert not result.ok
        assert "protocol id" in str(result.error)

    def test_length_mismatch_is_an_error(self):
        raw = bytearray(read_request().encode())
        raw[5] += 3  # claim a longer PDU than is present
        result = ModbusParser().parse_frame(bytes(raw))
        assert not result.ok
        assert "disagrees" in str(result.error)

    @pytest.mark.parametrize("function", [0x00, 0x80])
    def test_function_code_zero_is_an_error(self, function):
        """Code 0 with or without the exception bit: ``0x80`` would
        tokenize as ``X0``, which no token model accepts."""
        raw = bytearray(read_request().encode())
        raw[MBAP_HEADER] = function
        result = ModbusParser().parse_frame(bytes(raw))
        assert not result.ok
        assert str(result.error) == f"invalid function code {function}"

    def test_parse_stream_splits_back_to_back_adus(self):
        frames = [read_request(transaction=index)
                  for index in range(3)]
        payload = b"".join(frame.encode() for frame in frames)
        results = ModbusParser().parse_stream(payload)
        assert [result.apdu for result in results] == frames

    def test_parse_stream_reports_a_desynchronized_tail(self):
        payload = read_request().encode() + b"\x00\x01\x00\x99"
        results = ModbusParser().parse_stream(payload)
        assert results[0].ok
        assert not results[-1].ok
        assert "desynchronized" in str(results[-1].error)


class TestScan:
    def test_partial_frame_is_buffered_not_an_error(self):
        raw = read_request().encode()
        spans, stop, reason = scan_mbap(raw[:-2])
        assert spans == [] and stop == 0 and reason is None

    def test_implausible_length_is_a_desync(self):
        header = b"\x00\x01\x00\x00" \
            + (MAX_ADU_LENGTH + 1).to_bytes(2, "big") + b"\x01"
        spans, stop, reason = scan_mbap(header)
        assert spans == [] and stop == 0
        assert "implausible" in reason

    def test_offset_scan(self):
        raw = read_request().encode()
        spans, stop, reason = scan_mbap(b"\x00" * 0 + raw + raw,
                                        offset=len(raw))
        assert spans == [(len(raw), len(raw))]
        assert stop == 2 * len(raw) and reason is None


class TestStreamDecoder:
    def test_byte_by_byte_feed_recovers_every_frame(self):
        frames = [read_request(transaction=index)
                  for index in range(4)]
        payload = b"".join(frame.encode() for frame in frames)
        decoder = ModbusStreamDecoder()
        decoded = []
        for index in range(len(payload)):
            decoded.extend(decoder.feed(payload[index:index + 1]))
        assert [result.apdu for result in decoded] == frames
        assert decoder.pending == 0
        assert decoder.desync_bytes == 0

    def test_resync_after_garbage(self):
        good = read_request(transaction=7).encode()
        garbage = b"\xde\xad\x01\xbe\xef"
        decoder = ModbusStreamDecoder()
        results = decoder.feed(garbage + good)
        decoded = [result.apdu for result in results if result.ok]
        assert decoded and decoded[-1].transaction == 7
        assert decoder.desync_bytes > 0

    def test_pending_counts_the_buffered_partial(self):
        raw = read_request().encode()
        decoder = ModbusStreamDecoder()
        assert decoder.feed(raw[:5]) == []
        assert decoder.pending == 5
        results = decoder.feed(raw[5:])
        assert [result.apdu for result in results] \
            == [read_request()]
        assert decoder.pending == 0

    def test_write_request_round_trip(self):
        adu = ModbusAdu(transaction=9, unit=2,
                        function=WRITE_SINGLE_REGISTER,
                        data=b"\x00\x64\xff\x00")
        result = ModbusParser().parse_frame(adu.encode())
        assert result.ok
        assert result.apdu.token == "F6"

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64])
    def test_chunking_is_invisible(self, chunk):
        frames = [read_request(transaction=index)
                  for index in range(6)]
        payload = b"".join(frame.encode() for frame in frames)
        decoder = ModbusStreamDecoder()
        decoded = []
        for offset in range(0, len(payload), chunk):
            decoded.extend(
                decoder.feed(payload[offset:offset + chunk]))
        assert [result.apdu for result in decoded] == frames
