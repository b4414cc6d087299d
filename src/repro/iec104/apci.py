"""APCI framing: the three APDU formats of IEC 104.

The Application Protocol Control Information is 6 octets: the 0x68 start
byte, a length octet, and a 4-octet control field whose two low bits of
the first octet select the format (Fig. 3 of the paper):

* I-format (bit0 = 0): carries an ASDU plus 15-bit send/receive
  sequence numbers.
* S-format (bits = 01): carries only a receive sequence number (ack).
* U-format (bits = 11): carries one of six connection-control function
  bits (STARTDT/STOPDT/TESTFR act/con).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..slots import slot_setters
from .asdu import ASDU
from .constants import (_TYPE_TOKENS, CONTROL_FIELD_LENGTH,
                        MAX_APDU_LENGTH, START_BYTE, APDUFormat, UFunction)
from .errors import (ControlFieldError, FramingError, MalformedASDUError,
                     TruncatedError)
from .profiles import STANDARD_PROFILE, LinkProfile

#: Modulus of the 15-bit sequence-number space.
SEQ_MODULO = 1 << 15


def _check_seq(name: str, value: int) -> None:
    if not 0 <= value < SEQ_MODULO:
        raise ValueError(f"{name} sequence number {value} out of 15-bit "
                         "range")


@dataclass(frozen=True, slots=True)
class IFrame:
    """I-format APDU: numbered information transfer."""

    asdu: ASDU
    send_seq: int = 0
    recv_seq: int = 0

    def __post_init__(self) -> None:
        _check_seq("send", self.send_seq)
        _check_seq("receive", self.recv_seq)

    format = APDUFormat.I

    @property
    def token(self) -> str:
        """Paper Table 4 token (e.g. ``I36``)."""
        return _TYPE_TOKENS[self.asdu.type_id]

    def control_field(self) -> bytes:
        return bytes(((self.send_seq << 1) & 0xFF,
                      (self.send_seq >> 7) & 0xFF,
                      (self.recv_seq << 1) & 0xFF,
                      (self.recv_seq >> 7) & 0xFF))

    def encode(self, profile: LinkProfile = STANDARD_PROFILE) -> bytes:
        body = self.asdu.encode(profile)
        length = CONTROL_FIELD_LENGTH + len(body)
        if length > MAX_APDU_LENGTH:
            raise FramingError(
                f"APDU length {length} exceeds {MAX_APDU_LENGTH}")
        return bytes((START_BYTE, length)) + self.control_field() + body


@dataclass(frozen=True, slots=True)
class SFrame:
    """S-format APDU: numbered supervisory function (acknowledgement)."""

    recv_seq: int = 0

    def __post_init__(self) -> None:
        _check_seq("receive", self.recv_seq)

    format = APDUFormat.S
    token = "S"

    def encode(self, profile: LinkProfile = STANDARD_PROFILE) -> bytes:
        return bytes((START_BYTE, CONTROL_FIELD_LENGTH, 0x01, 0x00,
                      (self.recv_seq << 1) & 0xFF,
                      (self.recv_seq >> 7) & 0xFF))


@dataclass(frozen=True, slots=True)
class UFrame:
    """U-format APDU: unnumbered control function."""

    function: UFunction

    format = APDUFormat.U

    @property
    def token(self) -> str:
        """Paper Table 4 token (e.g. ``U16`` for TESTFR act)."""
        return self.function.token

    def encode(self, profile: LinkProfile = STANDARD_PROFILE) -> bytes:
        return bytes((START_BYTE, CONTROL_FIELD_LENGTH,
                      0x03 | int(self.function), 0x00, 0x00, 0x00))


APDU = IFrame | SFrame | UFrame

#: Ready-made U-frames for the six control functions.
STARTDT_ACT = UFrame(UFunction.STARTDT_ACT)
STARTDT_CON = UFrame(UFunction.STARTDT_CON)
STOPDT_ACT = UFrame(UFunction.STOPDT_ACT)
STOPDT_CON = UFrame(UFunction.STOPDT_CON)
TESTFR_ACT = UFrame(UFunction.TESTFR_ACT)
TESTFR_CON = UFrame(UFunction.TESTFR_CON)

#: Function-bit lookup for the decode fast path: U-frames are pure
#: singletons (frozen, field-determined), so every TESTFR/STARTDT on
#: the wire decodes to a shared instance instead of a fresh enum
#: round-trip plus allocation.
_U_FRAMES = {int(frame.function): frame
             for frame in (STARTDT_ACT, STARTDT_CON, STOPDT_ACT,
                           STOPDT_CON, TESTFR_ACT, TESTFR_CON)}

def scan_apci(buf: bytes, offset: int = 0
              ) -> tuple[list[tuple[int, int]], int, str | None]:
    """One-pass batch frame scan: split without decoding.

    Scans ``buf`` from ``offset`` for consecutive complete APCI frames
    and returns ``(spans, stop, desync)``: each span is ``(start,
    total)`` — frame start offset and total octet count (2 + length);
    ``stop`` is the offset where scanning ended: the start of a
    trailing partial frame, of a non-0x68 byte (lost framing), or
    ``len(buf)``; ``desync`` is ``"no start byte"`` when the octet at
    ``stop`` cannot start a frame, else ``None``.

    This is the vectorized front half of the decode path: the whole
    tail-read buffer is split in one tight loop over index arithmetic,
    and per-frame objects are only built for the frames a caller
    actually decodes. Emitting spans (index pairs) instead of slices
    keeps the scan allocation-free.

    A frame whose declared length is shorter than a control field is
    split like any other (``68 02 00 00`` is the span ``(0, 4)``),
    exactly as the scalar splitter splits it; :func:`decode_apdu`
    then reports it as a :class:`FramingError`.
    """
    spans: list[tuple[int, int]] = []
    size = len(buf)
    start_byte = START_BYTE
    while offset + 2 <= size and buf[offset] == start_byte:
        total = 2 + buf[offset + 1]
        end = offset + total
        if end > size:
            break
        spans.append((offset, total))
        offset = end
    if offset < size and buf[offset] != start_byte:
        return spans, offset, "no start byte"
    return spans, offset, None


def decode_apdu(data: bytes | memoryview, offset: int = 0,
                profile: LinkProfile = STANDARD_PROFILE
                ) -> tuple[APDU, int]:
    """Decode one APDU starting at ``offset``.

    Returns ``(apdu, total_octets_consumed)``. Raises
    :class:`TruncatedError` when more bytes are needed (the stream
    splitter uses this to wait for the rest of a TCP segment),
    :class:`FramingError`/:class:`ControlFieldError`/
    :class:`MalformedASDUError` on invalid content.
    """
    # Hot path: operate on the caller's bytes in place (no per-frame
    # buffer copy); a memoryview argument is materialized once.
    buf = data if isinstance(data, bytes) else bytes(data)
    available = len(buf) - offset
    if available < 2:
        raise TruncatedError("need APCI start+length", needed=2,
                             available=max(available, 0))
    if buf[offset] != START_BYTE:
        raise FramingError(
            f"bad start byte 0x{buf[offset]:02x} (expected 0x68)",
            offset=offset)
    length = buf[offset + 1]
    if length < CONTROL_FIELD_LENGTH:
        raise FramingError(f"APCI length {length} < control field size",
                           offset=offset)
    total = 2 + length
    if available < total:
        raise TruncatedError("APDU extends past buffer", needed=total,
                             available=available)

    # Control octets read by index (no 4-octet slice per frame).
    control0 = buf[offset + 2]
    control1 = buf[offset + 3]
    control2 = buf[offset + 4]
    control3 = buf[offset + 5]

    if control0 & 0x01 == 0:  # I-format
        if length == CONTROL_FIELD_LENGTH:
            raise MalformedASDUError("I-format APDU with empty ASDU")
        # Trusted-wire construction: the bit extraction below cannot
        # exceed 15 bits, which is the whole of ``IFrame.__post_init__``
        # — so skip the dataclass ``__init__`` re-validation.
        send_seq = (control0 >> 1) | (control1 << 7)
        recv_seq = (control2 >> 1) | (control3 << 7)
        asdu = ASDU.decode(buf[offset + 6:offset + total], profile)
        frame = _new(IFrame)
        _set_asdu(frame, asdu)
        _set_send_seq(frame, send_seq)
        _set_recv_seq(frame, recv_seq)
        return frame, total

    if control0 & 0x03 == 0x01:  # S-format
        if length != CONTROL_FIELD_LENGTH:
            raise ControlFieldError("S-format APDU must carry no ASDU")
        if control0 & 0xFC or control1:
            raise ControlFieldError("reserved S-format bits set")
        sframe = _new(SFrame)
        _set_sframe_recv_seq(sframe, (control2 >> 1) | (control3 << 7))
        return sframe, total

    # U-format (bits = 11)
    if length != CONTROL_FIELD_LENGTH:
        raise ControlFieldError("U-format APDU must carry no ASDU")
    function_bits = control0 & 0xFC
    uframe = _U_FRAMES.get(function_bits)
    if uframe is None:
        raise ControlFieldError(
            f"invalid U-format function bits 0x{function_bits:02x}")
    if control1 or control2 or control3:
        raise ControlFieldError("U-format octets 4-6 must be zero")
    return uframe, total


_new = object.__new__
_set_asdu, _set_send_seq, _set_recv_seq = slot_setters(IFrame)
(_set_sframe_recv_seq,) = slot_setters(SFrame)
