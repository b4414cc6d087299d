"""Oracles for the IEC 104 stream parsers.

:func:`split_frames` is the scalar APDU splitter, the oracle for
``scan_apci``. It walks the 0x68 start byte and length octet one frame
at a time and slices each frame out, sharing no code with the span scan
in :mod:`repro.iec104.apci`, so agreement between the two is evidence
rather than tautology.

:class:`StandardParser` is the strict parser written on its own: one
decode under the standard profile per frame, with no profile memory,
candidate loop or memo. ``repro.iec104.codec.StrictParser`` is the
tolerant parser over the standard profile alone, and must match it
result for result.

:class:`ReferenceStreamDecoder` is the IEC 104 incremental decoder as
it was before each parser owned its framing: its own feed loop, with
its one-complete-frame shortcut, splitting with :func:`split_frames`
and resyncing to the next 0x68. ``repro.iec104.codec.StreamDecoder``
over an IEC 104 parser must match it after every feed.
"""

from __future__ import annotations

from repro.iec104.apci import decode_apdu
from repro.iec104.codec import ParseResult, ParserStats
from repro.iec104.constants import START_BYTE
from repro.iec104.errors import IEC104Error
from repro.iec104.profiles import STANDARD_PROFILE

_START = bytes((START_BYTE,))


def split_frames(payload: bytes | memoryview) -> tuple[list[bytes], bytes]:
    """Split a reassembled TCP byte stream into raw APDU frames.

    Returns ``(frames, remainder)`` where ``remainder`` is a trailing
    partial frame (to be prepended to the next segment) — or garbage when
    it does not start with 0x68, which callers surface as a framing
    problem.
    """
    buf = payload if isinstance(payload, bytes) else bytes(payload)
    frames: list[bytes] = []
    offset = 0
    size = len(buf)
    while offset + 2 <= size:
        if buf[offset] != START_BYTE:
            break
        total = 2 + buf[offset + 1]
        if offset + total > size:
            break
        frames.append(buf[offset:offset + total])
        offset += total
    return frames, buf[offset:]


class StandardParser:
    """Decode every frame under the standard profile, nothing else."""

    def __init__(self) -> None:
        self.stats = ParserStats()

    def parse_frame(self, raw: bytes, link_key: object = None
                    ) -> ParseResult:
        try:
            apdu, _ = decode_apdu(raw, profile=STANDARD_PROFILE)
            result = ParseResult(raw=raw, apdu=apdu,
                                 profile=STANDARD_PROFILE)
        except IEC104Error as exc:
            result = ParseResult(raw=raw, error=exc)
        self.stats.record(result)
        return result

    def parse_stream(self, payload: bytes,
                     link_key: object = None) -> list[ParseResult]:
        frames, rest = split_frames(payload)
        results = [self.parse_frame(frame) for frame in frames]
        if rest and rest[0] != START_BYTE:
            result = ParseResult(
                raw=rest,
                error=IEC104Error("stream desynchronized: no start byte"))
            self.stats.record(result)
            results.append(result)
        return results


class ReferenceStreamDecoder:
    """Buffer partial APDUs across segments; skip to the next 0x68 on
    lost framing, counting the skipped octets."""

    def __init__(self, parser, link_key: object = None) -> None:
        self.parser = parser
        self.link_key = link_key
        self._buffer = b""
        self.desync_bytes = 0

    def feed(self, segment: bytes) -> list[ParseResult]:
        buf = self._buffer + segment
        parse = self.parser.parse_frame
        if (len(buf) > 1 and buf[0] == START_BYTE
                and 2 + buf[1] == len(buf)):
            # Exactly one complete frame: parse it in place.
            self._buffer = b""
            return [parse(buf, self.link_key)]
        results: list[ParseResult] = []
        while True:
            frames, rest = split_frames(buf)
            results.extend(parse(frame, self.link_key) for frame in frames)
            if rest and rest[0] != START_BYTE:
                resync = rest.find(_START)
                if resync == -1:
                    self.desync_bytes += len(rest)
                    self._buffer = b""
                    return results
                self.desync_bytes += resync
                buf = rest[resync:]
                continue
            self._buffer = rest
            return results

    @property
    def pending(self) -> int:
        return len(self._buffer)
