"""Application Service Data Unit (ASDU) model and codec.

An ASDU is the payload of an I-format APDU: a Data Unit Identifier
(typeID, variable structure qualifier, cause of transmission, common
address) followed by one or more information objects (Fig. 3 of the
paper). Encoding and decoding are parameterized by a
:class:`~repro.iec104.profiles.LinkProfile` so that the legacy
non-compliant field widths of Section 6.1 can be produced and consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..slots import slot_setters
from .constants import _TYPE_TOKENS, Cause, TypeID
from .errors import InvalidIOAError, MalformedASDUError, UnknownTypeIDError
from .information_elements import (ELEMENT_CODECS, InformationElement,
                                   codec_for)
from .profiles import STANDARD_PROFILE, LinkProfile

#: Maximum number of information objects in one ASDU (7-bit VSQ count).
MAX_OBJECTS = 127

#: Value→member lookup tables for the decode hot path: a dict probe is
#: several times cheaper than the enum ``__call__`` protocol (which
#: runs ``__new__``/missing-handling per conversion).
_TYPE_BY_VALUE = {int(member): member for member in TypeID}
_CAUSE_BY_VALUE = {int(member): member for member in Cause}


@dataclass(frozen=True, slots=True)
class InformationObject:
    """One information object: an address plus its information element."""

    address: int
    element: InformationElement

    def __post_init__(self) -> None:
        if self.address < 0:
            raise InvalidIOAError(f"negative IOA {self.address}")


@dataclass(frozen=True, slots=True)
class ASDU:
    """A decoded (or to-be-encoded) ASDU.

    ``sequential`` is the VSQ SQ bit: when True the information objects
    share a single on-wire IOA and occupy consecutive addresses.
    ``negative`` is the P/N bit and ``test`` the T bit of the COT octet.
    """

    type_id: TypeID
    cause: Cause
    common_address: int
    objects: tuple[InformationObject, ...]
    sequential: bool = False
    negative: bool = False
    test: bool = False
    originator: int = 0

    def __post_init__(self) -> None:
        if not self.objects:
            raise MalformedASDUError("ASDU must carry >= 1 information "
                                     "object", type_id=int(self.type_id))
        if len(self.objects) > MAX_OBJECTS:
            raise MalformedASDUError(
                f"ASDU carries {len(self.objects)} > {MAX_OBJECTS} objects",
                type_id=int(self.type_id))
        if not 0 <= self.originator <= 255:
            raise ValueError("originator address out of range")
        if self.common_address < 0:
            raise ValueError("common address must be >= 0")
        if self.sequential:
            addresses = [obj.address for obj in self.objects]
            expected = list(range(addresses[0],
                                  addresses[0] + len(addresses)))
            if addresses != expected:
                raise MalformedASDUError(
                    "sequential ASDU requires consecutive IOAs",
                    type_id=int(self.type_id))
        codec = ELEMENT_CODECS[self.type_id]
        for obj in self.objects:
            if not isinstance(obj.element, codec.element_type):
                raise MalformedASDUError(
                    f"typeID {self.type_id.name} requires "
                    f"{codec.element_type.__name__}, got "
                    f"{type(obj.element).__name__}",
                    type_id=int(self.type_id))

    @property
    def token(self) -> str:
        """Paper Table 4 token, e.g. ``I36``."""
        # Direct table probe: this sits on the per-event analyzer hot
        # path, where the ``type_id.token`` property hop shows up.
        return _TYPE_TOKENS[self.type_id]

    @property
    def is_command(self) -> bool:
        """True for control-direction typeIDs (C_*, P_* and the file
        transfer family F_*)."""
        return self.type_id.name.startswith(("C_", "P_", "F_"))

    def encode(self, profile: LinkProfile = STANDARD_PROFILE) -> bytes:
        """Serialize the ASDU under ``profile`` field widths."""
        for obj in self.objects:
            if obj.address > profile.max_ioa:
                raise InvalidIOAError(
                    f"IOA {obj.address} exceeds profile maximum "
                    f"{profile.max_ioa}")
        if self.common_address > profile.max_common_address:
            raise ValueError("common address exceeds profile maximum")

        vsq = len(self.objects) | (0x80 if self.sequential else 0)
        cot = (int(self.cause)
               | (0x40 if self.negative else 0)
               | (0x80 if self.test else 0))
        out = bytearray((int(self.type_id), vsq, cot))
        if profile.cot_length == 2:
            out.append(self.originator)
        out += self.common_address.to_bytes(
            profile.common_address_length, "little")

        codec = codec_for(self.type_id)
        if self.sequential:
            out += self.objects[0].address.to_bytes(profile.ioa_length,
                                                    "little")
            for obj in self.objects:
                out += codec.encode(obj.element)
        else:
            for obj in self.objects:
                out += obj.address.to_bytes(profile.ioa_length, "little")
                out += codec.encode(obj.element)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes | memoryview,
               profile: LinkProfile = STANDARD_PROFILE) -> "ASDU":
        """Parse an ASDU under ``profile`` field widths.

        Raises :class:`MalformedASDUError` when the body does not decode
        cleanly — including when octets remain after the declared number
        of objects, the signal the compliance analyzer uses to infer that
        the wrong profile is in use.
        """
        # Hot path: keep bytes input as-is (slice-free header reads);
        # memoryview input is materialized once.
        view = data if isinstance(data, bytes) else bytes(data)
        cot_length = profile.cot_length
        ca_length = profile.common_address_length
        ioa_length = profile.ioa_length
        header = 2 + cot_length + ca_length
        size = len(view)
        if size < header:
            raise MalformedASDUError(
                f"ASDU shorter than DUI: {size} < {header} octets")

        raw_type = view[0]
        type_id = _TYPE_BY_VALUE.get(raw_type)
        if type_id is None:
            raise UnknownTypeIDError(raw_type)

        count = view[1] & 0x7F
        sequential = view[1] > 0x7F
        if count == 0:
            raise MalformedASDUError("VSQ object count is zero",
                                     type_id=raw_type)

        raw_cause = view[2] & 0x3F
        negative = bool(view[2] & 0x40)
        test = view[2] > 0x7F
        cause = _CAUSE_BY_VALUE.get(raw_cause)
        if cause is None:
            raise MalformedASDUError(
                f"invalid cause of transmission {raw_cause}",
                type_id=raw_type)
        originator = view[3] if cot_length == 2 else 0

        offset = 2 + cot_length
        if ca_length == 2:
            common_address = view[offset] | view[offset + 1] << 8
        else:
            common_address = int.from_bytes(
                view[offset:offset + ca_length], "little")
        offset = header

        decode_element = codec_for(type_id).decode
        # Every ``__post_init__`` invariant of InformationObject and
        # ASDU holds by construction here — the IOA is an unsigned
        # little-endian read, the count is 1..127 (7-bit VSQ, zero
        # rejected above), the originator is one raw octet, sequential
        # addresses are built as base+index, and the codec only builds
        # its own element type — so both are built from their slot
        # setters without checking any of it again.
        objects: list[InformationObject] = []
        append = objects.append
        if sequential:
            if size < offset + ioa_length:
                raise MalformedASDUError("truncated sequential IOA",
                                         type_id=raw_type)
            base = int.from_bytes(view[offset:offset + ioa_length],
                                  "little")
            offset += ioa_length
            for index in range(count):
                element, consumed = decode_element(view, offset)
                offset += consumed
                obj = _new(InformationObject)
                _set_address(obj, base + index)
                _set_element(obj, element)
                append(obj)
        else:
            for _ in range(count):
                end = offset + ioa_length
                if size < end:
                    raise MalformedASDUError("truncated IOA",
                                             type_id=raw_type)
                if ioa_length == 3:
                    address = (view[offset] | view[offset + 1] << 8
                               | view[offset + 2] << 16)
                elif ioa_length == 2:
                    address = view[offset] | view[offset + 1] << 8
                else:
                    address = view[offset]
                element, consumed = decode_element(view, end)
                offset = end + consumed
                obj = _new(InformationObject)
                _set_address(obj, address)
                _set_element(obj, element)
                append(obj)

        if offset != size:
            raise MalformedASDUError(
                f"{size - offset} trailing octets after "
                f"{count} information objects",
                type_id=raw_type, trailing=size - offset)

        asdu = _new(cls)
        _set_type_id(asdu, type_id)
        _set_cause(asdu, cause)
        _set_common_address(asdu, common_address)
        _set_objects(asdu, tuple(objects))
        _set_sequential(asdu, sequential)
        _set_negative(asdu, negative)
        _set_test(asdu, test)
        _set_originator(asdu, originator)
        return asdu


_new = object.__new__
_set_address, _set_element = slot_setters(InformationObject)
(_set_type_id, _set_cause, _set_common_address, _set_objects,
 _set_sequential, _set_negative, _set_test,
 _set_originator) = slot_setters(ASDU)


def measurement(type_id: TypeID, address: int,
                element: InformationElement,
                cause: Cause = Cause.SPONTANEOUS,
                common_address: int = 1) -> ASDU:
    """Convenience constructor for a single-object monitor ASDU."""
    return ASDU(type_id=type_id, cause=cause, common_address=common_address,
                objects=(InformationObject(address, element),))
