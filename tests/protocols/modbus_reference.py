"""The Modbus/TCP incremental decoder as its own loop: the oracle for
``repro.iec104.codec.StreamDecoder`` over a ``ModbusParser``.

:class:`ReferenceModbusStreamDecoder` buffers partial ADUs across
segments and, on lost framing, skips one octet and rescans, as the
Modbus decoder did before each parser owned its framing. The one
``StreamDecoder`` must match it after every feed.
"""

from __future__ import annotations

from repro.protocols.modbus import ModbusParser, scan_mbap


class ReferenceModbusStreamDecoder:
    """Buffer partial ADUs; skip one octet per lost-framing stop."""

    def __init__(self, parser: ModbusParser,
                 link_key: object = None) -> None:
        self.parser = parser
        self.link_key = link_key
        self._buffer = b""
        self.desync_bytes = 0

    def feed(self, segment: bytes) -> list:
        buf = self._buffer + segment
        results: list = []
        offset = 0
        while True:
            spans, stop, reason = scan_mbap(buf, offset)
            results.extend(self.parser.parse_frame(buf[start:start + total],
                                                   self.link_key)
                           for start, total in spans)
            if reason is not None and stop < len(buf):
                self.desync_bytes += 1
                offset = stop + 1
                continue
            self._buffer = buf[stop:]
            return results

    @property
    def pending(self) -> int:
        return len(self._buffer)
