"""Information element codec tests: every typeID round-trips."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.iec104.constants import TypeID
from repro.iec104.errors import MalformedASDUError
from repro.iec104.information_elements import (
    ELEMENT_CODECS, DoublePoint, NormalizedValue, ParameterFloat,
    ParameterNormalized, Quality, ScaledValue, Segment, SetpointFloat,
    SetpointNormalized, ShortFloat, SingleCommand, StepPosition,
    codec_for, strip_time, with_time)

from .samples import SAMPLES, TAG


def test_sample_catalog_is_complete():
    assert set(SAMPLES) == set(ELEMENT_CODECS)
    assert len(ELEMENT_CODECS) == 54


@pytest.mark.parametrize("type_id", sorted(ELEMENT_CODECS),
                         ids=lambda t: t.name)
def test_roundtrip_every_type_id(type_id):
    codec = codec_for(type_id)
    element = SAMPLES[type_id]
    encoded = codec.encode(element)
    if codec.size is not None:
        assert len(encoded) == codec.size
    decoded, consumed = codec.decode(memoryview(encoded), 0)
    assert consumed == len(encoded)
    if isinstance(element, (ShortFloat, SetpointFloat, ParameterFloat)):
        assert math.isclose(decoded.value, element.value, rel_tol=1e-6)
    elif isinstance(element, (NormalizedValue, SetpointNormalized,
                              ParameterNormalized)):
        assert math.isclose(decoded.value, element.value, abs_tol=2e-5)
    else:
        assert decoded == element


@pytest.mark.parametrize("type_id", sorted(ELEMENT_CODECS),
                         ids=lambda t: t.name)
def test_truncated_decode_raises(type_id):
    codec = codec_for(type_id)
    encoded = codec.encode(SAMPLES[type_id])
    if not encoded:
        pytest.skip("zero-size element cannot be truncated")
    with pytest.raises(MalformedASDUError):
        codec.decode(memoryview(encoded[:-1]), 0)


class TestQuality:
    def test_roundtrip_all_bits(self):
        quality = Quality(overflow=True, blocked=True, substituted=True,
                          not_topical=True, invalid=True)
        assert Quality.decode(quality.encode()) == quality

    def test_good_predicate(self):
        assert Quality().good
        assert not Quality(invalid=True).good
        assert not Quality(blocked=True).good
        assert Quality(overflow=True).good  # overflow alone is usable

    @given(st.booleans(), st.booleans(), st.booleans(), st.booleans(),
           st.booleans())
    def test_roundtrip_property(self, ov, bl, sb, nt, iv):
        quality = Quality(overflow=ov, blocked=bl, substituted=sb,
                          not_topical=nt, invalid=iv)
        assert Quality.decode(quality.encode()) == quality


class TestValidation:
    def test_double_point_range(self):
        with pytest.raises(ValueError):
            DoublePoint(state=4)

    def test_step_position_range(self):
        with pytest.raises(ValueError):
            StepPosition(value=64)
        with pytest.raises(ValueError):
            StepPosition(value=-65)

    def test_normalized_range(self):
        with pytest.raises(ValueError):
            NormalizedValue(value=1.5)

    def test_scaled_range(self):
        with pytest.raises(ValueError):
            ScaledValue(value=40000)

    def test_command_qualifier_range(self):
        with pytest.raises(ValueError):
            SingleCommand(state=True, qualifier=32)

    def test_segment_size_limit(self):
        with pytest.raises(ValueError):
            Segment(file_name=1, section=1, data=b"x" * 256)

    def test_timed_codec_requires_time(self):
        codec = codec_for(TypeID.M_ME_TF_1)
        with pytest.raises(ValueError):
            codec.encode(ShortFloat(value=1.0))  # no time tag

    def test_untimed_codec_rejects_time(self):
        codec = codec_for(TypeID.M_ME_NC_1)
        with pytest.raises(ValueError):
            codec.encode(ShortFloat(value=1.0, time=TAG))


class TestTimeHelpers:
    def test_strip_time(self):
        element = ShortFloat(value=2.0, time=TAG)
        assert strip_time(element).time is None

    def test_strip_time_noop(self):
        element = ShortFloat(value=2.0)
        assert strip_time(element) is element

    def test_with_time(self):
        element = with_time(ShortFloat(value=2.0), TAG)
        assert element.time == TAG


class TestFloatProperties:
    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_short_float_roundtrip(self, value):
        codec = codec_for(TypeID.M_ME_NC_1)
        encoded = codec.encode(ShortFloat(value=value))
        decoded, _ = codec.decode(memoryview(encoded), 0)
        assert decoded.value == pytest.approx(value, rel=1e-6, abs=1e-38)

    @given(st.integers(min_value=-32768, max_value=32767))
    def test_scaled_roundtrip(self, value):
        codec = codec_for(TypeID.M_ME_NB_1)
        encoded = codec.encode(ScaledValue(value=value))
        decoded, _ = codec.decode(memoryview(encoded), 0)
        assert decoded.value == value

    @given(st.integers(min_value=-32768, max_value=32767))
    def test_normalized_raw_roundtrip(self, raw):
        element = NormalizedValue.from_raw(raw)
        assert element.raw == raw
