"""Modbus/TCP: MBAP framing + function-code PDU codec + spec.

The second protocol behind the abstraction, end-to-end.  Modbus/TCP
frames one PDU per ADU behind the 7-octet MBAP header::

    transaction id (u16be) | protocol id (u16be, always 0) |
    length (u16be, unit + PDU octets) | unit id (u8)

followed by the PDU: one function-code octet and its data.  There is
no start byte — framing integrity rests on the protocol-id field
being zero and the length being plausible, which is exactly what
:func:`scan_mbap` checks (the passive-measurement analogue of the
IEC 104 0x68 scan).

Tokens are protocol-generic strings the existing Markov/whitelist
models consume unchanged: ``F<fc>`` for a normal PDU and ``X<fc>``
for an exception response (function code with the 0x80 error bit
set).  The token says nothing about direction — like the IEC 104
alphabet, request and response of the same function share a token,
and the models learn the per-connection transition structure.

The parser mirrors :mod:`repro.iec104.codec` exactly (``parse_frame``
/ ``parse_stream``, results with ``raw``, ``apdu``, ``error``, ``ok``,
``compliant``) and owns its framing (``scan`` / ``resync``), so one
:class:`~repro.iec104.codec.StreamDecoder` buffers a Modbus/TCP byte
stream as it does an IEC 104 one, and the stream pipeline drives
either through one code path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from .base import ProtocolSpec, register_protocol

#: The Modbus/TCP well-known port.
MODBUS_PORT = 502

#: MBAP header octets (transaction, protocol, length, unit).
MBAP_HEADER = 7

#: Largest legal MBAP length field: unit id + function code + 252
#: data octets (the Modbus spec's 253-octet PDU ceiling).
MAX_ADU_LENGTH = 254

#: Function codes with application behaviour in the simulator; any
#: 1..127 code still *decodes* (tolerance), these just name the
#: common ones.
READ_HOLDING_REGISTERS = 3
READ_INPUT_REGISTERS = 4
WRITE_SINGLE_REGISTER = 6
WRITE_MULTIPLE_REGISTERS = 16

_MBAP = struct.Struct(">HHHB")


class ModbusError(Exception):
    """A Modbus ADU failed to decode."""


@dataclass(frozen=True, slots=True)
class ModbusAdu:
    """One decoded Modbus/TCP ADU (header + PDU).

    ``function`` is the raw function-code octet — bit 0x80 set marks
    an exception response.  Frozen and hashable, like the IEC 104
    frame classes, so results can be shared and memoized safely.
    """

    transaction: int
    unit: int
    function: int
    data: bytes

    @property
    def is_exception(self) -> bool:
        return bool(self.function & 0x80)

    @property
    def token(self) -> str:
        """Protocol-generic token (``F<fc>`` / ``X<fc>``)."""
        function = self.function
        if function & 0x80:
            return f"X{function & 0x7F}"
        return f"F{function}"

    def encode(self) -> bytes:
        """The wire form (MBAP header + PDU)."""
        return _MBAP.pack(self.transaction, 0, len(self.data) + 2,
                          self.unit) + bytes((self.function,)) \
            + self.data


def scan_mbap(buf: bytes,
              offset: int = 0) -> tuple[list[tuple[int, int]], int,
                                        str | None]:
    """Scan complete MBAP frames; ``(spans, stop, desync)``.

    ``spans`` is ``(start, total)`` per complete ADU; ``stop`` is
    where scanning ended.  ``desync`` is ``None`` when the
    scan stopped cleanly (buffer exhausted or a trailing partial
    frame to buffer) and a message when the octets at ``stop`` cannot
    begin a valid MBAP header (framing lost).
    """
    spans: list[tuple[int, int]] = []
    size = len(buf)
    while True:
        remaining = size - offset
        if remaining == 0:
            return spans, offset, None
        # Header plausibility over however many octets are present:
        # protocol id must be zero, the length field in range.
        if remaining >= 3 and (buf[offset + 2] != 0
                               or (remaining >= 4
                                   and buf[offset + 3] != 0)):
            return spans, offset, "MBAP protocol id is not zero"
        if remaining >= 6:
            length = (buf[offset + 4] << 8) | buf[offset + 5]
            if not 2 <= length <= MAX_ADU_LENGTH:
                return (spans, offset,
                        f"implausible MBAP length {length}")
            total = 6 + length
            if remaining < total:
                return spans, offset, None  # partial frame: buffer it
            spans.append((offset, total))
            offset += total
            continue
        return spans, offset, None  # partial header: buffer it


@dataclass(frozen=True, slots=True)
class ModbusParseResult:
    """Outcome of parsing one ADU (mirrors the IEC ParseResult)."""

    raw: bytes
    apdu: ModbusAdu | None = None
    error: ModbusError | None = None

    @property
    def ok(self) -> bool:
        return self.apdu is not None

    @property
    def compliant(self) -> bool:
        """Modbus/TCP has no legacy profile zoo: decoded ⇒ compliant."""
        return self.apdu is not None


class ModbusParser:
    """Tolerant Modbus/TCP parser (stateless per frame).

    ``link_key`` is accepted for interface parity with the IEC 104
    :class:`~repro.iec104.codec.TolerantParser` — Modbus has no
    per-link field-width profiles to infer, so it is unused.
    """

    #: The framing: MBAP spans up to a partial frame or an
    #: implausible header (see :func:`scan_mbap`).
    scan = staticmethod(scan_mbap)

    @staticmethod
    def resync(buf: bytes, stop: int) -> int:
        """After lost framing: there is no start byte to hunt for, so
        skip one octet and look for a plausible MBAP header there."""
        return stop + 1

    def parse_frame(self, raw: bytes,
                    link_key: Any = None) -> ModbusParseResult:
        """Parse one complete ADU (header + PDU)."""
        if len(raw) < MBAP_HEADER + 1:
            return ModbusParseResult(raw=raw, error=ModbusError(
                f"ADU truncated at {len(raw)} octets"))
        transaction, protocol, length, unit = _MBAP.unpack_from(raw)
        if protocol != 0:
            return ModbusParseResult(raw=raw, error=ModbusError(
                f"MBAP protocol id {protocol} is not zero"))
        if len(raw) != 6 + length:
            return ModbusParseResult(raw=raw, error=ModbusError(
                f"MBAP length {length} disagrees with "
                f"{len(raw)}-octet ADU"))
        function = raw[MBAP_HEADER]
        # Code 0 is no function, with or without the exception bit
        # (0x80 would tokenize as ``X0``, outside the token grammar).
        if not function & 0x7F:
            return ModbusParseResult(raw=raw, error=ModbusError(
                f"invalid function code {function}"))
        return ModbusParseResult(raw=raw, apdu=ModbusAdu(
            transaction=transaction, unit=unit, function=function,
            data=raw[MBAP_HEADER + 1:]))

    def parse_stream(self, payload: bytes,
                     link_key: Any = None) -> list[ModbusParseResult]:
        """Parse every complete ADU found in ``payload``.

        Like the IEC 104 parsers, a trailing desynchronized region is
        reported as one error result; a trailing *partial* frame is
        silently left for the caller (per-packet decode treats each
        payload as complete, so a partial tail there is simply a
        truncated capture)."""
        buf = payload if isinstance(payload, bytes) else bytes(payload)
        spans, stop, desync = scan_mbap(buf)
        results = [self.parse_frame(buf[start:start + total],
                                    link_key)
                   for start, total in spans]
        if desync is not None:
            results.append(ModbusParseResult(
                raw=buf[stop:],
                error=ModbusError(
                    f"stream desynchronized: {desync}")))
        return results


#: The Modbus/TCP spec.
MODBUS_SPEC = register_protocol(ProtocolSpec(
    name="modbus",
    title="Modbus/TCP",
    ports=(MODBUS_PORT,),
    tokens=("F<fc>", "X<fc>"),
    _parser_factory=ModbusParser,
))
