"""Information elements for every IEC 104 ASDU typeID.

Each of the 54 typeIDs of Table 5 carries a fixed (or, for file
segments, variable) information-element layout after the information
object address. This module defines one value class per element family
and a registry of per-typeID codecs used by :mod:`repro.iec104.asdu`.

Time-tagged typeIDs (e.g. I36 vs I13) reuse the un-tagged value class
with a non-``None`` ``time`` field rather than duplicating classes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Any, Generic, TypeVar

from ..slots import slot_setters
from .constants import TypeID
from .errors import MalformedASDUError
from .time_tag import CP16_SIZE, CP56_SIZE, CP16Time2a, CP56Time2a

_FLOAT = struct.Struct("<f")    # staticcheck: width=4
_INT16 = struct.Struct("<h")    # staticcheck: width=2
_INT32 = struct.Struct("<i")    # staticcheck: width=4
_UINT32 = struct.Struct("<I")   # staticcheck: width=4


@dataclass(frozen=True, slots=True)
class Quality:
    """Quality descriptor (QDS) bits shared by monitor-direction types."""

    overflow: bool = False
    blocked: bool = False
    substituted: bool = False
    not_topical: bool = False
    invalid: bool = False

    def encode(self) -> int:
        return ((0x01 if self.overflow else 0)
                | (0x10 if self.blocked else 0)
                | (0x20 if self.substituted else 0)
                | (0x40 if self.not_topical else 0)
                | (0x80 if self.invalid else 0))

    @classmethod
    def decode(cls, octet: int) -> "Quality":
        # Only 32 distinct QDS bit patterns exist (reserved bits are
        # ignored) and Quality is frozen, so the wire decode returns a
        # shared interned instance instead of allocating per element.
        # Subclasses fall through to a fresh construction.
        if cls is Quality:
            return _QUALITY_INTERNED[octet & 0xF1]
        return cls(overflow=bool(octet & 0x01),
                   blocked=bool(octet & 0x10),
                   substituted=bool(octet & 0x20),
                   not_topical=bool(octet & 0x40),
                   invalid=bool(octet & 0x80))

    @property
    def good(self) -> bool:
        """True when no quality bit marks the value unusable."""
        return not (self.invalid or self.not_topical or self.blocked)


GOOD = Quality()

#: Interned instances for every meaningful QDS bit pattern (the five
#: quality bits; reserved bits 0x0E carry no information).
_QUALITY_INTERNED = {
    bits: Quality(overflow=bool(bits & 0x01),
                  blocked=bool(bits & 0x10),
                  substituted=bool(bits & 0x20),
                  not_topical=bool(bits & 0x40),
                  invalid=bool(bits & 0x80))
    for bits in (low | high for low in (0x00, 0x01)
                 for high in range(0x00, 0x100, 0x10))
}


@dataclass(frozen=True, slots=True)
class SinglePoint:
    """SIQ: single-point information (typeIDs 1 and 30)."""

    value: bool
    quality: Quality = GOOD
    time: CP56Time2a | None = None


@dataclass(frozen=True, slots=True)
class DoublePoint:
    """DIQ: double-point information (typeIDs 3 and 31).

    ``state``: 0 indeterminate/intermediate, 1 OFF, 2 ON, 3 indeterminate.
    The paper's Fig. 20 breaker status uses exactly these states.
    """

    state: int
    quality: Quality = GOOD
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.state <= 3:
            raise ValueError(f"double-point state {self.state} out of range")

    @property
    def value(self) -> int:
        return self.state


@dataclass(frozen=True, slots=True)
class StepPosition:
    """VTI + QDS: step position, -64..63 (typeIDs 5 and 32)."""

    value: int
    transient: bool = False
    quality: Quality = GOOD
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -64 <= self.value <= 63:
            raise ValueError(f"step position {self.value} out of range")


@dataclass(frozen=True, slots=True)
class Bitstring32:
    """BSI + QDS: bitstring of 32 bits (typeIDs 7 and 33)."""

    bits: int
    quality: Quality = GOOD
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= 0xFFFFFFFF:
            raise ValueError("bitstring must fit in 32 bits")

    @property
    def value(self) -> int:
        return self.bits


@dataclass(frozen=True, slots=True)
class NormalizedValue:
    """NVA + QDS: normalized measured value in [-1, 1) (typeIDs 9, 34).

    TypeID 21 (M_ME_ND_1) carries the NVA without a quality descriptor;
    its codec ignores ``quality`` on encode and restores ``GOOD``.
    """

    value: float
    quality: Quality = GOOD
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -1.0 <= self.value < 1.0 + 2 ** -15:
            raise ValueError(f"normalized value {self.value} out of [-1, 1)")

    @property
    def raw(self) -> int:
        return max(-32768, min(32767, int(round(self.value * 32768.0))))

    @classmethod
    def from_raw(cls, raw: int, **kwargs) -> "NormalizedValue":
        return cls(value=raw / 32768.0, **kwargs)


@dataclass(frozen=True, slots=True)
class ScaledValue:
    """SVA + QDS: scaled measured value, 16-bit signed (typeIDs 11, 35)."""

    value: int
    quality: Quality = GOOD
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -32768 <= self.value <= 32767:
            raise ValueError(f"scaled value {self.value} out of int16 range")


@dataclass(frozen=True, slots=True)
class ShortFloat:
    """R32 + QDS: short floating point measured value (typeIDs 13, 36).

    These two typeIDs carry 97% of the ASDUs in the paper's datasets.
    """

    value: float
    quality: Quality = GOOD
    time: CP56Time2a | None = None


@dataclass(frozen=True, slots=True)
class IntegratedTotals:
    """BCR: binary counter reading (typeIDs 15, 37)."""

    counter: int
    sequence: int = 0
    carry: bool = False
    adjusted: bool = False
    invalid: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -(2 ** 31) <= self.counter < 2 ** 31:
            raise ValueError("counter must fit in int32")
        if not 0 <= self.sequence <= 31:
            raise ValueError("BCR sequence out of range")

    @property
    def value(self) -> int:
        return self.counter


@dataclass(frozen=True, slots=True)
class PackedSinglePoints:
    """SCD + QDS: 16 status bits + 16 change-detection bits (typeID 20)."""

    status: int
    change: int
    quality: Quality = GOOD

    def __post_init__(self) -> None:
        if not 0 <= self.status <= 0xFFFF or not 0 <= self.change <= 0xFFFF:
            raise ValueError("SCD fields must fit in 16 bits")

    @property
    def value(self) -> int:
        return self.status


@dataclass(frozen=True, slots=True)
class ProtectionEvent:
    """SEP + CP16 + CP56: event of protection equipment (typeID 38)."""

    event_state: int  # 0..3 (like DoublePoint)
    elapsed: CP16Time2a = field(default_factory=CP16Time2a)
    quality: Quality = GOOD
    time: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.event_state <= 3:
            raise ValueError("protection event state out of range")


@dataclass(frozen=True, slots=True)
class ProtectionStartEvents:
    """SPE + QDP + CP16 + CP56 (typeID 39)."""

    start_events: int  # 6 bits
    quality: Quality = GOOD
    duration: CP16Time2a = field(default_factory=CP16Time2a)
    time: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.start_events <= 0x3F:
            raise ValueError("SPE must fit in 6 bits")


@dataclass(frozen=True, slots=True)
class ProtectionOutputCircuit:
    """OCI + QDP + CP16 + CP56 (typeID 40)."""

    output_circuits: int  # 4 bits
    quality: Quality = GOOD
    operating_time: CP16Time2a = field(default_factory=CP16Time2a)
    time: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.output_circuits <= 0x0F:
            raise ValueError("OCI must fit in 4 bits")


@dataclass(frozen=True, slots=True)
class SingleCommand:
    """SCO: single command (typeIDs 45, 58)."""

    state: bool
    qualifier: int = 0  # QU, 0..31
    select: bool = False  # S/E bit: select (True) vs execute (False)
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.qualifier <= 31:
            raise ValueError("command qualifier out of range")

    @property
    def value(self) -> bool:
        return self.state


@dataclass(frozen=True, slots=True)
class DoubleCommand:
    """DCO: double command (typeIDs 46, 59). state: 1 OFF, 2 ON."""

    state: int
    qualifier: int = 0
    select: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.state <= 3:
            raise ValueError("double command state out of range")
        if not 0 <= self.qualifier <= 31:
            raise ValueError("command qualifier out of range")

    @property
    def value(self) -> int:
        return self.state


@dataclass(frozen=True, slots=True)
class RegulatingStep:
    """RCO: regulating step command (typeIDs 47, 60). 1 LOWER, 2 HIGHER."""

    step: int
    qualifier: int = 0
    select: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.step <= 3:
            raise ValueError("regulating step out of range")
        if not 0 <= self.qualifier <= 31:
            raise ValueError("command qualifier out of range")

    @property
    def value(self) -> int:
        return self.step


@dataclass(frozen=True, slots=True)
class SetpointNormalized:
    """NVA + QOS: set point command, normalized (typeIDs 48, 61)."""

    value: float
    ql: int = 0
    select: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -1.0 <= self.value < 1.0 + 2 ** -15:
            raise ValueError("normalized set point out of [-1, 1)")
        if not 0 <= self.ql <= 127:
            raise ValueError("QOS ql out of range")


@dataclass(frozen=True, slots=True)
class SetpointScaled:
    """SVA + QOS: set point command, scaled (typeIDs 49, 62)."""

    value: int
    ql: int = 0
    select: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not -32768 <= self.value <= 32767:
            raise ValueError("scaled set point out of int16 range")
        if not 0 <= self.ql <= 127:
            raise ValueError("QOS ql out of range")


@dataclass(frozen=True, slots=True)
class SetpointFloat:
    """R32 + QOS: set point command, short float (typeIDs 50, 63).

    TypeID 50 is the AGC set-point command observed in the paper
    (Table 8, symbol AGC-SP).
    """

    value: float
    ql: int = 0
    select: bool = False
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.ql <= 127:
            raise ValueError("QOS ql out of range")


@dataclass(frozen=True, slots=True)
class Bitstring32Command:
    """BSI: bitstring command (typeIDs 51, 64)."""

    bits: int
    time: CP56Time2a | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= 0xFFFFFFFF:
            raise ValueError("bitstring must fit in 32 bits")

    @property
    def value(self) -> int:
        return self.bits


@dataclass(frozen=True, slots=True)
class EndOfInitialization:
    """COI: cause of initialization (typeID 70)."""

    cause: int = 0  # 0 local power on, 1 local manual, 2 remote reset
    after_parameter_change: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.cause <= 127:
            raise ValueError("COI cause out of range")


@dataclass(frozen=True, slots=True)
class InterrogationCommand:
    """QOI: qualifier of interrogation (typeID 100, the paper's I100).

    ``qoi`` 20 requests a (global) station interrogation; 21..36 request
    group interrogations.
    """

    qoi: int = 20

    def __post_init__(self) -> None:
        if not 0 <= self.qoi <= 255:
            raise ValueError("QOI out of range")

    @property
    def is_global(self) -> bool:
        return self.qoi == 20


@dataclass(frozen=True, slots=True)
class CounterInterrogationCommand:
    """QCC: qualifier of counter interrogation (typeID 101)."""

    request: int = 5  # RQT: 5 = general counter request
    freeze: int = 0   # FRZ

    def __post_init__(self) -> None:
        if not 0 <= self.request <= 63:
            raise ValueError("QCC request out of range")
        if not 0 <= self.freeze <= 3:
            raise ValueError("QCC freeze out of range")


@dataclass(frozen=True, slots=True)
class ReadCommand:
    """TypeID 102 carries no information element after the IOA."""


@dataclass(frozen=True, slots=True)
class ClockSyncCommand:
    """CP56Time2a: clock synchronization (typeID 103, the paper's I103)."""

    time: CP56Time2a = field(default_factory=CP56Time2a)


@dataclass(frozen=True, slots=True)
class ResetProcessCommand:
    """QRP: qualifier of reset process (typeID 105)."""

    qrp: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.qrp <= 255:
            raise ValueError("QRP out of range")


@dataclass(frozen=True, slots=True)
class TestCommand:
    """TSC + CP56Time2a: test command with time tag (typeID 107)."""

    __test__ = False  # keep pytest from collecting this dataclass

    counter: int = 0
    time: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.counter <= 0xFFFF:
            raise ValueError("test counter must fit in 16 bits")


@dataclass(frozen=True, slots=True)
class ParameterNormalized:
    """NVA + QPM (typeID 110)."""

    value: float
    qpm: int = 1

    def __post_init__(self) -> None:
        if not -1.0 <= self.value < 1.0 + 2 ** -15:
            raise ValueError("normalized parameter out of [-1, 1)")
        if not 0 <= self.qpm <= 255:
            raise ValueError("QPM out of range")


@dataclass(frozen=True, slots=True)
class ParameterScaled:
    """SVA + QPM (typeID 111)."""

    value: int
    qpm: int = 1

    def __post_init__(self) -> None:
        if not -32768 <= self.value <= 32767:
            raise ValueError("scaled parameter out of int16 range")
        if not 0 <= self.qpm <= 255:
            raise ValueError("QPM out of range")


@dataclass(frozen=True, slots=True)
class ParameterFloat:
    """R32 + QPM (typeID 112)."""

    value: float
    qpm: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.qpm <= 255:
            raise ValueError("QPM out of range")


@dataclass(frozen=True, slots=True)
class ParameterActivation:
    """QPA (typeID 113)."""

    qpa: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.qpa <= 255:
            raise ValueError("QPA out of range")


@dataclass(frozen=True, slots=True)
class FileReady:
    """NOF + LOF + FRQ (typeID 120)."""

    file_name: int
    file_length: int
    qualifier: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.file_length <= 0xFFFFFF:
            raise ValueError("LOF must fit in 24 bits")
        if not 0 <= self.qualifier <= 255:
            raise ValueError("FRQ out of range")


@dataclass(frozen=True, slots=True)
class SectionReady:
    """NOF + NOS + LOF + SRQ (typeID 121)."""

    file_name: int
    section: int
    section_length: int
    qualifier: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.section <= 255:
            raise ValueError("NOS out of range")
        if not 0 <= self.section_length <= 0xFFFFFF:
            raise ValueError("LOF must fit in 24 bits")
        if not 0 <= self.qualifier <= 255:
            raise ValueError("SRQ out of range")


@dataclass(frozen=True, slots=True)
class CallFile:
    """NOF + NOS + SCQ (typeID 122)."""

    file_name: int
    section: int = 0
    qualifier: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.section <= 255:
            raise ValueError("NOS out of range")
        if not 0 <= self.qualifier <= 255:
            raise ValueError("SCQ out of range")


@dataclass(frozen=True, slots=True)
class LastSection:
    """NOF + NOS + LSQ + CHS (typeID 123)."""

    file_name: int
    section: int = 0
    qualifier: int = 0
    checksum: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        for name, value in (("NOS", self.section), ("LSQ", self.qualifier),
                            ("CHS", self.checksum)):
            if not 0 <= value <= 255:
                raise ValueError(f"{name} out of range")


@dataclass(frozen=True, slots=True)
class AckFile:
    """NOF + NOS + AFQ (typeID 124)."""

    file_name: int
    section: int = 0
    qualifier: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.section <= 255 or not 0 <= self.qualifier <= 255:
            raise ValueError("NOS/AFQ out of range")


@dataclass(frozen=True, slots=True)
class Segment:
    """NOF + NOS + LOS + data (typeID 125, variable length)."""

    file_name: int
    section: int
    data: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.section <= 255:
            raise ValueError("NOS out of range")
        if len(self.data) > 255:
            raise ValueError("segment data exceeds 255 octets")


@dataclass(frozen=True, slots=True)
class Directory:
    """NOF + LOF + SOF + CP56 (typeID 126)."""

    file_name: int
    file_length: int
    status: int = 0
    time: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")
        if not 0 <= self.file_length <= 0xFFFFFF:
            raise ValueError("LOF must fit in 24 bits")
        if not 0 <= self.status <= 255:
            raise ValueError("SOF out of range")


@dataclass(frozen=True, slots=True)
class QueryLog:
    """NOF + start CP56 + stop CP56 (typeID 127)."""

    file_name: int
    start: CP56Time2a = field(default_factory=CP56Time2a)
    stop: CP56Time2a = field(default_factory=CP56Time2a)

    def __post_init__(self) -> None:
        if not 0 <= self.file_name <= 0xFFFF:
            raise ValueError("NOF must fit in 16 bits")


#: Union of every information-element value class. ``ASDU`` payloads
#: and ``InformationObject.element`` are typed against this union so
#: mypy can flag codec/typeID mismatches at construction sites.
InformationElement = (
    SinglePoint | DoublePoint | StepPosition | Bitstring32
    | NormalizedValue | ScaledValue | ShortFloat | IntegratedTotals
    | PackedSinglePoints | ProtectionEvent | ProtectionStartEvents
    | ProtectionOutputCircuit | SingleCommand | DoubleCommand
    | RegulatingStep | SetpointNormalized | SetpointScaled
    | SetpointFloat | Bitstring32Command | EndOfInitialization
    | InterrogationCommand | CounterInterrogationCommand | ReadCommand
    | ClockSyncCommand | ResetProcessCommand | TestCommand
    | ParameterNormalized | ParameterScaled | ParameterFloat
    | ParameterActivation | FileReady | SectionReady | CallFile
    | LastSection | AckFile | Segment | Directory | QueryLog
)


# ---------------------------------------------------------------------------
# Wire codecs
# ---------------------------------------------------------------------------

E = TypeVar("E", bound=InformationElement)

_new = object.__new__


def _truncated(need: int, have: int) -> MalformedASDUError:
    return MalformedASDUError(
        f"information element truncated: need {need} octets, "
        f"have {have if have > 0 else 0}")


class ElementCodec(Generic[E]):
    """Encode/decode one information element for a specific typeID.

    Each concrete codec is parameterized by the value class it accepts
    (``ElementCodec[ShortFloat]`` etc.) and writes only the element's
    body, the ``body`` octets before a trailing time tag:
    :meth:`encode_body` packs them and :meth:`decode_body` sets their
    fields (the default body is empty). This class owns the rest: the
    octet count, the bounds check, the trailing CP56Time2a of a timed
    typeID and the one place a decoded element is allocated. ``size``
    is the on-wire size in octets, or ``None`` for the variable-length
    file segment (typeID 125).

    A decoded element skips ``__post_init__``: masks and ``struct``
    formats bound every body field, and the time tags check the fields
    the wire can break, so each field is checked once, in its decoder,
    and set through the class's slot setters. The constructors keep
    validating for every other caller.
    """

    #: Value class accepted by :meth:`encode`.
    element_type: type[E]
    #: Octets before the trailing time tag.
    body: int = 0
    size: int | None = 0
    #: True when the element's ``time`` field is a trailing CP56Time2a.
    timed: bool = False

    def __init__(self, timed: bool = False) -> None:
        self.timed = timed
        self.size = self.body + (CP56_SIZE if timed else 0)
        setters = slot_setters(self.element_type)
        timeless = "time" not in self.element_type.__dataclass_fields__
        #: The body fields' setters, then the ``time`` field's (always
        #: the last field), which an untimed typeID sets to ``None``.
        self._set_body = setters if timeless else setters[:-1]
        self._set_time = None if timeless else setters[-1]

    def encode(self, element: E) -> bytes:
        body = self.encode_body(element)
        time = getattr(element, "time", None)
        if self.timed:
            if time is None:
                raise ValueError("time-tagged typeID requires a time tag")
            return body + time.encode()
        if time is not None:
            raise ValueError("un-tagged typeID must not carry a time tag")
        return body

    def decode(self, data: bytes | memoryview,
               offset: int) -> tuple[E, int]:
        """Return ``(element, octets_consumed)``."""
        # Fixed-size codecs only: the file segment decodes itself.
        size: int = self.size  # type: ignore[assignment]
        have = len(data) - offset
        if have < size:
            raise _truncated(size, have)
        element = _new(self.element_type)
        self.decode_body(element, data, offset)
        set_time = self._set_time
        if set_time is not None:
            # Wire order: a bad body field (a protection event's CP16)
            # names the error before a bad trailing tag.
            set_time(element, CP56Time2a.decode(data, offset + self.body)
                     if self.timed else None)
        return element, size

    def encode_body(self, element: E) -> bytes:
        return b""

    def decode_body(self, element: E,
                    data: bytes | memoryview, offset: int) -> None:
        """Set the body's fields on ``element`` through its slot
        setters (``_set_body``, in declaration order)."""


class _SinglePointCodec(ElementCodec[SinglePoint]):
    element_type = SinglePoint
    body = 1

    def encode_body(self, element: SinglePoint) -> bytes:
        return bytes(((0x01 if element.value else 0)
                      | (element.quality.encode() & 0xF0),))

    def decode_body(self, element: SinglePoint,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_quality = self._set_body
        siq = data[offset]
        set_value(element, bool(siq & 0x01))
        set_quality(element, Quality.decode(siq & 0xF0))


class _DoublePointCodec(ElementCodec[DoublePoint]):
    element_type = DoublePoint
    body = 1

    def encode_body(self, element: DoublePoint) -> bytes:
        return bytes(((element.state & 0x03)
                      | (element.quality.encode() & 0xF0),))

    def decode_body(self, element: DoublePoint,
                    data: bytes | memoryview, offset: int) -> None:
        set_state, set_quality = self._set_body
        diq = data[offset]
        set_state(element, diq & 0x03)
        set_quality(element, Quality.decode(diq & 0xF0))


class _StepPositionCodec(ElementCodec[StepPosition]):
    element_type = StepPosition
    body = 2

    def encode_body(self, element: StepPosition) -> bytes:
        vti = (element.value & 0x7F) | (0x80 if element.transient else 0)
        return bytes((vti, element.quality.encode()))

    def decode_body(self, element: StepPosition,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_transient, set_quality = self._set_body
        vti = data[offset]
        value = vti & 0x7F
        set_value(element, value - 128 if value >= 64 else value)
        set_transient(element, vti > 0x7F)
        set_quality(element, Quality.decode(data[offset + 1]))


class _Bitstring32Codec(ElementCodec[Bitstring32]):
    element_type = Bitstring32
    body = 5

    def encode_body(self, element: Bitstring32) -> bytes:
        return (_UINT32.pack(element.bits)
                + bytes((element.quality.encode(),)))

    def decode_body(self, element: Bitstring32,
                    data: bytes | memoryview, offset: int) -> None:
        set_bits, set_quality = self._set_body
        set_bits(element, _UINT32.unpack_from(data, offset)[0])
        set_quality(element, Quality.decode(data[offset + 4]))


class _NormalizedCodec(ElementCodec[NormalizedValue]):
    element_type = NormalizedValue
    body = 3

    def __init__(self, timed: bool = False, with_quality: bool = True):
        self.with_quality = with_quality
        if not with_quality:
            self.body = 2
        super().__init__(timed)

    def encode_body(self, element: NormalizedValue) -> bytes:
        out = _INT16.pack(element.raw)
        if self.with_quality:
            out += bytes((element.quality.encode(),))
        return out

    def decode_body(self, element: NormalizedValue,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_quality = self._set_body
        # int16 / 32768.0 lands in [-1, 1), the ``__post_init__`` range.
        set_value(element, _INT16.unpack_from(data, offset)[0] / 32768.0)
        set_quality(element, Quality.decode(data[offset + 2])
                    if self.with_quality else GOOD)


class _ScaledCodec(ElementCodec[ScaledValue]):
    element_type = ScaledValue
    body = 3

    def encode_body(self, element: ScaledValue) -> bytes:
        return (_INT16.pack(element.value)
                + bytes((element.quality.encode(),)))

    def decode_body(self, element: ScaledValue,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_quality = self._set_body
        set_value(element, _INT16.unpack_from(data, offset)[0])
        set_quality(element, Quality.decode(data[offset + 2]))


class _ShortFloatCodec(ElementCodec[ShortFloat]):
    element_type = ShortFloat
    body = 5

    def encode_body(self, element: ShortFloat) -> bytes:
        return (_FLOAT.pack(element.value)
                + bytes((element.quality.encode(),)))

    def decode_body(self, element: ShortFloat,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_quality = self._set_body
        set_value(element, _FLOAT.unpack_from(data, offset)[0])
        set_quality(element, Quality.decode(data[offset + 4]))


class _IntegratedTotalsCodec(ElementCodec[IntegratedTotals]):
    element_type = IntegratedTotals
    body = 5

    def encode_body(self, element: IntegratedTotals) -> bytes:
        seq = (element.sequence
               | (0x20 if element.carry else 0)
               | (0x40 if element.adjusted else 0)
               | (0x80 if element.invalid else 0))
        return _INT32.pack(element.counter) + bytes((seq,))

    def decode_body(self, element: IntegratedTotals,
                    data: bytes | memoryview, offset: int) -> None:
        (set_counter, set_sequence, set_carry, set_adjusted,
         set_invalid) = self._set_body
        seq = data[offset + 4]
        set_counter(element, _INT32.unpack_from(data, offset)[0])
        set_sequence(element, seq & 0x1F)
        set_carry(element, bool(seq & 0x20))
        set_adjusted(element, bool(seq & 0x40))
        set_invalid(element, seq > 0x7F)


class _PackedSinglePointsCodec(ElementCodec[PackedSinglePoints]):
    element_type = PackedSinglePoints
    body = 5

    def encode_body(self, element: PackedSinglePoints) -> bytes:
        return (struct.pack("<HH", element.status, element.change)
                + bytes((element.quality.encode(),)))

    def decode_body(self, element: PackedSinglePoints,
                    data: bytes | memoryview, offset: int) -> None:
        set_status, set_change, set_quality = self._set_body
        status, change = struct.unpack_from("<HH", data, offset)
        set_status(element, status)
        set_change(element, change)
        set_quality(element, Quality.decode(data[offset + 4]))


class _ProtectionEventCodec(ElementCodec[ProtectionEvent]):
    element_type = ProtectionEvent
    body = 1 + CP16_SIZE

    def encode_body(self, element: ProtectionEvent) -> bytes:
        sep = (element.event_state & 0x03) | (element.quality.encode() & 0xF0)
        return bytes((sep,)) + element.elapsed.encode()

    def decode_body(self, element: ProtectionEvent,
                    data: bytes | memoryview, offset: int) -> None:
        set_event_state, set_elapsed, set_quality = self._set_body
        sep = data[offset]
        set_event_state(element, sep & 0x03)
        set_elapsed(element, CP16Time2a.decode(data, offset + 1))
        set_quality(element, Quality.decode(sep & 0xF0))


class _ProtectionStartCodec(ElementCodec[ProtectionStartEvents]):
    element_type = ProtectionStartEvents
    body = 2 + CP16_SIZE

    def encode_body(self, element: ProtectionStartEvents) -> bytes:
        return (bytes((element.start_events & 0x3F,
                       element.quality.encode()))
                + element.duration.encode())

    def decode_body(self, element: ProtectionStartEvents,
                    data: bytes | memoryview, offset: int) -> None:
        set_start_events, set_quality, set_duration = self._set_body
        set_start_events(element, data[offset] & 0x3F)
        set_quality(element, Quality.decode(data[offset + 1]))
        set_duration(element, CP16Time2a.decode(data, offset + 2))


class _ProtectionOutputCodec(ElementCodec[ProtectionOutputCircuit]):
    element_type = ProtectionOutputCircuit
    body = 2 + CP16_SIZE

    def encode_body(self, element: ProtectionOutputCircuit) -> bytes:
        return (bytes((element.output_circuits & 0x0F,
                       element.quality.encode()))
                + element.operating_time.encode())

    def decode_body(self, element: ProtectionOutputCircuit,
                    data: bytes | memoryview, offset: int) -> None:
        (set_output_circuits, set_quality,
         set_operating_time) = self._set_body
        set_output_circuits(element, data[offset] & 0x0F)
        set_quality(element, Quality.decode(data[offset + 1]))
        set_operating_time(element, CP16Time2a.decode(data, offset + 2))


def _command(state: int, qualifier: int, select: bool) -> bytes:
    """SCO/DCO/RCO: state bits, 5-bit qualifier (QU), S/E bit."""
    return bytes((state | ((qualifier & 0x1F) << 2)
                  | (0x80 if select else 0),))


class _SingleCommandCodec(ElementCodec[SingleCommand]):
    element_type = SingleCommand
    body = 1

    def encode_body(self, element: SingleCommand) -> bytes:
        return _command(0x01 if element.state else 0, element.qualifier,
                        element.select)

    def decode_body(self, element: SingleCommand,
                    data: bytes | memoryview, offset: int) -> None:
        set_state, set_qualifier, set_select = self._set_body
        sco = data[offset]
        set_state(element, bool(sco & 0x01))
        set_qualifier(element, (sco >> 2) & 0x1F)
        set_select(element, sco > 0x7F)


class _DoubleCommandCodec(ElementCodec[DoubleCommand]):
    element_type = DoubleCommand
    body = 1

    def encode_body(self, element: DoubleCommand) -> bytes:
        return _command(element.state & 0x03, element.qualifier,
                        element.select)

    def decode_body(self, element: DoubleCommand,
                    data: bytes | memoryview, offset: int) -> None:
        set_state, set_qualifier, set_select = self._set_body
        dco = data[offset]
        set_state(element, dco & 0x03)
        set_qualifier(element, (dco >> 2) & 0x1F)
        set_select(element, dco > 0x7F)


class _RegulatingStepCodec(ElementCodec[RegulatingStep]):
    element_type = RegulatingStep
    body = 1

    def encode_body(self, element: RegulatingStep) -> bytes:
        return _command(element.step & 0x03, element.qualifier,
                        element.select)

    def decode_body(self, element: RegulatingStep,
                    data: bytes | memoryview, offset: int) -> None:
        set_step, set_qualifier, set_select = self._set_body
        rco = data[offset]
        set_step(element, rco & 0x03)
        set_qualifier(element, (rco >> 2) & 0x1F)
        set_select(element, rco > 0x7F)


def _qos(ql: int, select: bool) -> bytes:
    return bytes(((ql & 0x7F) | (0x80 if select else 0),))


class _SetpointNormalizedCodec(ElementCodec[SetpointNormalized]):
    element_type = SetpointNormalized
    body = 3

    def encode_body(self, element: SetpointNormalized) -> bytes:
        raw = max(-32768, min(32767, int(round(element.value * 32768.0))))
        return _INT16.pack(raw) + _qos(element.ql, element.select)

    def decode_body(self, element: SetpointNormalized,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_ql, set_select = self._set_body
        qos = data[offset + 2]
        set_value(element, _INT16.unpack_from(data, offset)[0] / 32768.0)
        set_ql(element, qos & 0x7F)
        set_select(element, qos > 0x7F)


class _SetpointScaledCodec(ElementCodec[SetpointScaled]):
    element_type = SetpointScaled
    body = 3

    def encode_body(self, element: SetpointScaled) -> bytes:
        return _INT16.pack(element.value) + _qos(element.ql, element.select)

    def decode_body(self, element: SetpointScaled,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_ql, set_select = self._set_body
        qos = data[offset + 2]
        set_value(element, _INT16.unpack_from(data, offset)[0])
        set_ql(element, qos & 0x7F)
        set_select(element, qos > 0x7F)


class _SetpointFloatCodec(ElementCodec[SetpointFloat]):
    element_type = SetpointFloat
    body = 5

    def encode_body(self, element: SetpointFloat) -> bytes:
        return _FLOAT.pack(element.value) + _qos(element.ql, element.select)

    def decode_body(self, element: SetpointFloat,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_ql, set_select = self._set_body
        qos = data[offset + 4]
        set_value(element, _FLOAT.unpack_from(data, offset)[0])
        set_ql(element, qos & 0x7F)
        set_select(element, qos > 0x7F)


class _Bitstring32CommandCodec(ElementCodec[Bitstring32Command]):
    element_type = Bitstring32Command
    body = 4

    def encode_body(self, element: Bitstring32Command) -> bytes:
        return _UINT32.pack(element.bits)

    def decode_body(self, element: Bitstring32Command,
                    data: bytes | memoryview, offset: int) -> None:
        (set_bits,) = self._set_body
        set_bits(element, _UINT32.unpack_from(data, offset)[0])


class _EndOfInitCodec(ElementCodec[EndOfInitialization]):
    element_type = EndOfInitialization
    body = 1

    def encode_body(self, element: EndOfInitialization) -> bytes:
        return bytes(((element.cause & 0x7F)
                      | (0x80 if element.after_parameter_change else 0),))

    def decode_body(self, element: EndOfInitialization,
                    data: bytes | memoryview, offset: int) -> None:
        set_cause, set_after_parameter_change = self._set_body
        coi = data[offset]
        set_cause(element, coi & 0x7F)
        set_after_parameter_change(element, coi > 0x7F)


class _InterrogationCodec(ElementCodec[InterrogationCommand]):
    element_type = InterrogationCommand
    body = 1

    def encode_body(self, element: InterrogationCommand) -> bytes:
        return bytes((element.qoi,))

    def decode_body(self, element: InterrogationCommand,
                    data: bytes | memoryview, offset: int) -> None:
        (set_qoi,) = self._set_body
        set_qoi(element, data[offset])


class _CounterInterrogationCodec(ElementCodec[CounterInterrogationCommand]):
    element_type = CounterInterrogationCommand
    body = 1

    def encode_body(self, element: CounterInterrogationCommand) -> bytes:
        return bytes(((element.request & 0x3F)
                      | ((element.freeze & 0x03) << 6),))

    def decode_body(self, element: CounterInterrogationCommand,
                    data: bytes | memoryview, offset: int) -> None:
        set_request, set_freeze = self._set_body
        qcc = data[offset]
        set_request(element, qcc & 0x3F)
        set_freeze(element, qcc >> 6)


class _ReadCommandCodec(ElementCodec[ReadCommand]):
    element_type = ReadCommand


class _ClockSyncCodec(ElementCodec[ClockSyncCommand]):
    element_type = ClockSyncCommand


class _ResetProcessCodec(ElementCodec[ResetProcessCommand]):
    element_type = ResetProcessCommand
    body = 1

    def encode_body(self, element: ResetProcessCommand) -> bytes:
        return bytes((element.qrp,))

    def decode_body(self, element: ResetProcessCommand,
                    data: bytes | memoryview, offset: int) -> None:
        (set_qrp,) = self._set_body
        set_qrp(element, data[offset])


class _TestCommandCodec(ElementCodec[TestCommand]):
    element_type = TestCommand
    body = 2

    def encode_body(self, element: TestCommand) -> bytes:
        return struct.pack("<H", element.counter)

    def decode_body(self, element: TestCommand,
                    data: bytes | memoryview, offset: int) -> None:
        (set_counter,) = self._set_body
        set_counter(element, struct.unpack_from("<H", data, offset)[0])


class _ParameterNormalizedCodec(ElementCodec[ParameterNormalized]):
    element_type = ParameterNormalized
    body = 3

    def encode_body(self, element: ParameterNormalized) -> bytes:
        raw = max(-32768, min(32767, int(round(element.value * 32768.0))))
        return _INT16.pack(raw) + bytes((element.qpm,))

    def decode_body(self, element: ParameterNormalized,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_qpm = self._set_body
        set_value(element, _INT16.unpack_from(data, offset)[0] / 32768.0)
        set_qpm(element, data[offset + 2])


class _ParameterScaledCodec(ElementCodec[ParameterScaled]):
    element_type = ParameterScaled
    body = 3

    def encode_body(self, element: ParameterScaled) -> bytes:
        return _INT16.pack(element.value) + bytes((element.qpm,))

    def decode_body(self, element: ParameterScaled,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_qpm = self._set_body
        set_value(element, _INT16.unpack_from(data, offset)[0])
        set_qpm(element, data[offset + 2])


class _ParameterFloatCodec(ElementCodec[ParameterFloat]):
    element_type = ParameterFloat
    body = 5

    def encode_body(self, element: ParameterFloat) -> bytes:
        return _FLOAT.pack(element.value) + bytes((element.qpm,))

    def decode_body(self, element: ParameterFloat,
                    data: bytes | memoryview, offset: int) -> None:
        set_value, set_qpm = self._set_body
        set_value(element, _FLOAT.unpack_from(data, offset)[0])
        set_qpm(element, data[offset + 4])


class _ParameterActivationCodec(ElementCodec[ParameterActivation]):
    element_type = ParameterActivation
    body = 1

    def encode_body(self, element: ParameterActivation) -> bytes:
        return bytes((element.qpa,))

    def decode_body(self, element: ParameterActivation,
                    data: bytes | memoryview, offset: int) -> None:
        (set_qpa,) = self._set_body
        set_qpa(element, data[offset])


def _pack_u24(value: int) -> bytes:
    return bytes((value & 0xFF, (value >> 8) & 0xFF, (value >> 16) & 0xFF))


def _unpack_u24(data: bytes | memoryview, offset: int) -> int:
    return data[offset] | (data[offset + 1] << 8) | (data[offset + 2] << 16)


class _FileReadyCodec(ElementCodec[FileReady]):
    element_type = FileReady
    body = 6

    def encode_body(self, element: FileReady) -> bytes:
        return (struct.pack("<H", element.file_name)
                + _pack_u24(element.file_length)
                + bytes((element.qualifier,)))

    def decode_body(self, element: FileReady,
                    data: bytes | memoryview, offset: int) -> None:
        set_file_name, set_file_length, set_qualifier = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_file_length(element, _unpack_u24(data, offset + 2))
        set_qualifier(element, data[offset + 5])


class _SectionReadyCodec(ElementCodec[SectionReady]):
    element_type = SectionReady
    body = 7

    def encode_body(self, element: SectionReady) -> bytes:
        return (struct.pack("<H", element.file_name)
                + bytes((element.section,))
                + _pack_u24(element.section_length)
                + bytes((element.qualifier,)))

    def decode_body(self, element: SectionReady,
                    data: bytes | memoryview, offset: int) -> None:
        (set_file_name, set_section, set_section_length,
         set_qualifier) = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_section(element, data[offset + 2])
        set_section_length(element, _unpack_u24(data, offset + 3))
        set_qualifier(element, data[offset + 6])


class _CallFileCodec(ElementCodec[CallFile]):
    element_type = CallFile
    body = 4

    def encode_body(self, element: CallFile) -> bytes:
        return (struct.pack("<H", element.file_name)
                + bytes((element.section, element.qualifier)))

    def decode_body(self, element: CallFile,
                    data: bytes | memoryview, offset: int) -> None:
        set_file_name, set_section, set_qualifier = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_section(element, data[offset + 2])
        set_qualifier(element, data[offset + 3])


class _LastSectionCodec(ElementCodec[LastSection]):
    element_type = LastSection
    body = 5

    def encode_body(self, element: LastSection) -> bytes:
        return (struct.pack("<H", element.file_name)
                + bytes((element.section, element.qualifier,
                         element.checksum)))

    def decode_body(self, element: LastSection,
                    data: bytes | memoryview, offset: int) -> None:
        (set_file_name, set_section, set_qualifier,
         set_checksum) = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_section(element, data[offset + 2])
        set_qualifier(element, data[offset + 3])
        set_checksum(element, data[offset + 4])


class _AckFileCodec(ElementCodec[AckFile]):
    element_type = AckFile
    body = 4

    def encode_body(self, element: AckFile) -> bytes:
        return (struct.pack("<H", element.file_name)
                + bytes((element.section, element.qualifier)))

    def decode_body(self, element: AckFile,
                    data: bytes | memoryview, offset: int) -> None:
        set_file_name, set_section, set_qualifier = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_section(element, data[offset + 2])
        set_qualifier(element, data[offset + 3])


class _SegmentCodec(ElementCodec[Segment]):
    """The variable-length file segment: its 4th octet (LOS) sets how
    many data octets follow, so it decodes itself."""

    element_type = Segment

    def __init__(self) -> None:
        super().__init__()
        self.size = None

    def encode_body(self, element: Segment) -> bytes:
        return (struct.pack("<H", element.file_name)
                + bytes((element.section, len(element.data)))
                + element.data)

    def decode(self, data: bytes | memoryview,
               offset: int) -> tuple[Segment, int]:
        have = len(data) - offset
        size = 4 + data[offset + 3] if have >= 4 else 4
        if have < size:
            raise _truncated(size, have)
        element = _new(Segment)
        set_file_name, set_section, set_data = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_section(element, data[offset + 2])
        set_data(element, bytes(data[offset + 4:offset + size]))
        return element, size


class _DirectoryCodec(ElementCodec[Directory]):
    element_type = Directory
    body = 6

    def encode_body(self, element: Directory) -> bytes:
        return (struct.pack("<H", element.file_name)
                + _pack_u24(element.file_length)
                + bytes((element.status,)))

    def decode_body(self, element: Directory,
                    data: bytes | memoryview, offset: int) -> None:
        set_file_name, set_file_length, set_status = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_file_length(element, _unpack_u24(data, offset + 2))
        set_status(element, data[offset + 5])


class _QueryLogCodec(ElementCodec[QueryLog]):
    """NOF and two CP56Time2a, all body: the element has no ``time``."""

    element_type = QueryLog
    body = 2 + 2 * CP56_SIZE

    def encode_body(self, element: QueryLog) -> bytes:
        return (struct.pack("<H", element.file_name)
                + element.start.encode() + element.stop.encode())

    def decode_body(self, element: QueryLog,
                    data: bytes | memoryview, offset: int) -> None:
        set_file_name, set_start, set_stop = self._set_body
        set_file_name(element, struct.unpack_from("<H", data, offset)[0])
        set_start(element, CP56Time2a.decode(data, offset + 2))
        set_stop(element, CP56Time2a.decode(data, offset + 9))


#: Registry mapping each of the 54 typeIDs to its element codec.
#: The registry erases each codec's element parameter: a lookup
#: keyed by a runtime TypeID cannot be statically precise.
ELEMENT_CODECS: dict[TypeID, ElementCodec[Any]] = {
    TypeID.M_SP_NA_1: _SinglePointCodec(),
    TypeID.M_DP_NA_1: _DoublePointCodec(),
    TypeID.M_ST_NA_1: _StepPositionCodec(),
    TypeID.M_BO_NA_1: _Bitstring32Codec(),
    TypeID.M_ME_NA_1: _NormalizedCodec(),
    TypeID.M_ME_NB_1: _ScaledCodec(),
    TypeID.M_ME_NC_1: _ShortFloatCodec(),
    TypeID.M_IT_NA_1: _IntegratedTotalsCodec(),
    TypeID.M_PS_NA_1: _PackedSinglePointsCodec(),
    TypeID.M_ME_ND_1: _NormalizedCodec(with_quality=False),
    TypeID.M_SP_TB_1: _SinglePointCodec(timed=True),
    TypeID.M_DP_TB_1: _DoublePointCodec(timed=True),
    TypeID.M_ST_TB_1: _StepPositionCodec(timed=True),
    TypeID.M_BO_TB_1: _Bitstring32Codec(timed=True),
    TypeID.M_ME_TD_1: _NormalizedCodec(timed=True),
    TypeID.M_ME_TE_1: _ScaledCodec(timed=True),
    TypeID.M_ME_TF_1: _ShortFloatCodec(timed=True),
    TypeID.M_IT_TB_1: _IntegratedTotalsCodec(timed=True),
    TypeID.M_EP_TD_1: _ProtectionEventCodec(timed=True),
    TypeID.M_EP_TE_1: _ProtectionStartCodec(timed=True),
    TypeID.M_EP_TF_1: _ProtectionOutputCodec(timed=True),
    TypeID.C_SC_NA_1: _SingleCommandCodec(),
    TypeID.C_DC_NA_1: _DoubleCommandCodec(),
    TypeID.C_RC_NA_1: _RegulatingStepCodec(),
    TypeID.C_SE_NA_1: _SetpointNormalizedCodec(),
    TypeID.C_SE_NB_1: _SetpointScaledCodec(),
    TypeID.C_SE_NC_1: _SetpointFloatCodec(),
    TypeID.C_BO_NA_1: _Bitstring32CommandCodec(),
    TypeID.C_SC_TA_1: _SingleCommandCodec(timed=True),
    TypeID.C_DC_TA_1: _DoubleCommandCodec(timed=True),
    TypeID.C_RC_TA_1: _RegulatingStepCodec(timed=True),
    TypeID.C_SE_TA_1: _SetpointNormalizedCodec(timed=True),
    TypeID.C_SE_TB_1: _SetpointScaledCodec(timed=True),
    TypeID.C_SE_TC_1: _SetpointFloatCodec(timed=True),
    TypeID.C_BO_TA_1: _Bitstring32CommandCodec(timed=True),
    TypeID.M_EI_NA_1: _EndOfInitCodec(),
    TypeID.C_IC_NA_1: _InterrogationCodec(),
    TypeID.C_CI_NA_1: _CounterInterrogationCodec(),
    TypeID.C_RD_NA_1: _ReadCommandCodec(),
    TypeID.C_CS_NA_1: _ClockSyncCodec(timed=True),
    TypeID.C_RP_NA_1: _ResetProcessCodec(),
    TypeID.C_TS_TA_1: _TestCommandCodec(timed=True),
    TypeID.P_ME_NA_1: _ParameterNormalizedCodec(),
    TypeID.P_ME_NB_1: _ParameterScaledCodec(),
    TypeID.P_ME_NC_1: _ParameterFloatCodec(),
    TypeID.P_AC_NA_1: _ParameterActivationCodec(),
    TypeID.F_FR_NA_1: _FileReadyCodec(),
    TypeID.F_SR_NA_1: _SectionReadyCodec(),
    TypeID.F_SC_NA_1: _CallFileCodec(),
    TypeID.F_LS_NA_1: _LastSectionCodec(),
    TypeID.F_AF_NA_1: _AckFileCodec(),
    TypeID.F_SG_NA_1: _SegmentCodec(),
    TypeID.F_DR_TA_1: _DirectoryCodec(timed=True),
    TypeID.F_SC_NB_1: _QueryLogCodec(),
}


def codec_for(type_id: TypeID) -> ElementCodec[Any]:
    """Return the element codec for ``type_id``."""
    return ELEMENT_CODECS[type_id]


def strip_time(element):
    """Return a copy of ``element`` with its time tag removed (if any)."""
    if getattr(element, "time", None) is None:
        return element
    return replace(element, time=None)


def with_time(element, time: CP56Time2a):
    """Return a copy of ``element`` carrying ``time``."""
    return replace(element, time=time)
