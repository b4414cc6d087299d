"""CP56Time2a / CP16Time2a encoding tests."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.iec104.constants import TypeID
from repro.iec104.errors import MalformedASDUError
from repro.iec104.information_elements import ELEMENT_CODECS
from repro.iec104.time_tag import CP16_SIZE, CP16Time2a, CP56Time2a

from .strategies import CP56, CP56_FIELDS, break_cp56, elements, validated


class TestCP56Roundtrip:
    def test_encode_size(self):
        assert len(CP56Time2a().encode()) == 7

    def test_roundtrip_simple(self):
        tag = CP56Time2a(milliseconds=45123, minute=12, hour=9,
                         day_of_month=17, day_of_week=3, month=6, year=21)
        assert CP56Time2a.decode(tag.encode()) == tag

    def test_roundtrip_flags(self):
        tag = CP56Time2a(invalid=True, summer_time=True)
        decoded = CP56Time2a.decode(tag.encode())
        assert decoded.invalid and decoded.summer_time

    def test_decode_at_offset(self):
        tag = CP56Time2a(minute=5)
        data = b"\xff\xff" + tag.encode()
        assert CP56Time2a.decode(data, offset=2) == tag

    def test_truncated_raises(self):
        with pytest.raises(MalformedASDUError):
            CP56Time2a.decode(b"\x00\x01\x02")

    @given(st.floats(min_value=0.0, max_value=3.0e9,
                     allow_nan=False, allow_infinity=False))
    def test_from_seconds_roundtrip(self, seconds):
        tag = CP56Time2a.from_seconds(seconds)
        # Millisecond quantization is the only loss allowed.
        assert abs(tag.to_seconds() - seconds) < 0.001

    @given(st.floats(min_value=0.0, max_value=3.0e9, allow_nan=False),
           st.floats(min_value=0.0, max_value=3.0e9, allow_nan=False))
    def test_from_seconds_monotonic(self, a, b):
        low, high = min(a, b), max(a, b)
        assert (CP56Time2a.from_seconds(low)
                <= CP56Time2a.from_seconds(high))

    def test_from_seconds_rejects_negative(self):
        with pytest.raises(ValueError):
            CP56Time2a.from_seconds(-1.0)

    def test_from_seconds_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CP56Time2a.from_seconds(4e9)  # year > 99


class TestCP56Validation:
    @pytest.mark.parametrize("field,value", [
        ("milliseconds", 60000), ("milliseconds", -1),
        ("minute", 60), ("hour", 24), ("day_of_month", 0),
        ("day_of_month", 32), ("month", 0), ("month", 13),
        ("year", 100), ("day_of_week", 8),
    ])
    def test_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError):
            CP56Time2a(**{field: value})

    def test_ordering(self):
        early = CP56Time2a(minute=1)
        late = CP56Time2a(minute=2)
        assert early < late

    def test_decode_masks_reserved_bits(self):
        # Octet 6 (month) high nibble is reserved; it must be ignored.
        tag = CP56Time2a(month=5)
        raw = bytearray(tag.encode())
        raw[5] |= 0xF0
        assert CP56Time2a.decode(bytes(raw)).month == 5


class TestCP16:
    def test_roundtrip(self):
        tag = CP16Time2a(milliseconds=31999)
        assert CP16Time2a.decode(tag.encode()) == tag

    def test_bounds(self):
        with pytest.raises(ValueError):
            CP16Time2a(milliseconds=60000)

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(MalformedASDUError):
            CP16Time2a.decode(b"\xff\xff")

    def test_truncated(self):
        with pytest.raises(MalformedASDUError):
            CP16Time2a.decode(b"\x01")


class TestWireChecks:
    """The decoders check each range a wire octet can break, and build
    the tag without the constructor: the constructor is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(tag=CP56, reserved=st.binary(min_size=7, max_size=7))
    def test_valid_tags_decode_to_their_validated_copy(self, tag,
                                                       reserved):
        # Reserved bits set on the wire change nothing.
        raw = bytes(octet | (noise & mask) for octet, noise, mask in
                    zip(tag.encode(), reserved,
                        (0, 0, 0x40, 0x60, 0, 0xF0, 0x80)))
        decoded = CP56Time2a.decode(memoryview(b"\x00" + raw), 1)
        assert decoded == tag == validated(decoded)
        assert hash(decoded) == hash(tag)

    @settings(max_examples=300, deadline=None)
    @given(tag=CP56, data=st.data())
    def test_first_bad_field_names_the_error(self, tag, data):
        broken = data.draw(st.lists(st.sampled_from(CP56_FIELDS),
                                    min_size=1, unique=True))
        raw = bytearray(tag.encode())
        for name in broken:
            break_cp56(data.draw, raw, name)
        first = min(broken, key=CP56_FIELDS.index)
        with pytest.raises(MalformedASDUError) as caught:
            CP56Time2a.decode(bytes(raw))
        assert str(caught.value) == (f"invalid CP56Time2a: CP56Time2a "
                                     f"field {first} out of range")
        assert caught.value.__cause__ is None
        # The constructor names the same field.
        fields = asdict(CP56Time2a.decode(tag.encode()))
        with pytest.raises(ValueError, match=f"field {first} out"):
            CP56Time2a(**{**fields, **_wire_fields(bytes(raw))})

    @given(st.integers(60000, 0xFFFF))
    def test_cp16_out_of_range(self, value):
        with pytest.raises(MalformedASDUError,
                           match=f"^CP16Time2a value {value} out of "
                                 "range$"):
            CP16Time2a.decode(bytes((value & 0xFF, value >> 8)))

    @given(st.integers(0, 59999))
    def test_cp16_valid(self, value):
        tag = CP16Time2a.decode(memoryview(bytes((0, value & 0xFF,
                                                  value >> 8))), 1)
        assert tag == CP16Time2a(value) == validated(tag)

    @pytest.mark.parametrize("type_id", [TypeID.M_EP_TD_1,
                                         TypeID.M_EP_TE_1,
                                         TypeID.M_EP_TF_1],
                             ids=lambda t: t.name)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_protection_cp16_named_before_cp56(self, type_id, data):
        """The body, CP16 included, decodes before the trailing CP56."""
        codec = ELEMENT_CODECS[type_id]
        raw = bytearray(codec.encode(data.draw(elements(type_id))))
        cp16 = codec.body - CP16_SIZE
        value = data.draw(st.integers(60000, 0xFFFF))
        raw[cp16:cp16 + CP16_SIZE] = value.to_bytes(2, "little")
        tag = raw[codec.body:]
        break_cp56(data.draw, tag, data.draw(st.sampled_from(CP56_FIELDS)))
        raw[codec.body:] = tag
        with pytest.raises(MalformedASDUError,
                           match=f"^CP16Time2a value {value} "):
            codec.decode(bytes(raw), 0)


def _wire_fields(raw: bytes) -> dict:
    """The CP56 field values ``raw`` carries, in range or not."""
    return dict(milliseconds=raw[0] | raw[1] << 8, minute=raw[2] & 0x3F,
                hour=raw[3] & 0x1F, day_of_month=raw[4] & 0x1F,
                day_of_week=raw[4] >> 5, month=raw[5] & 0x0F,
                year=raw[6] & 0x7F)
