"""Stream parser tests: strict baseline vs tolerant profile inference."""

import pytest
from hypothesis import given, strategies as st

from repro.iec104.apci import IFrame, SFrame, UFrame
from repro.iec104.asdu import measurement
from repro.iec104.codec import (ParseResult, StreamDecoder, StrictParser,
                                TolerantParser)
from repro.iec104.constants import TypeID, UFunction
from repro.iec104.errors import MalformedASDUError
from repro.iec104.information_elements import ShortFloat
from repro.iec104.profiles import (LEGACY_COT_PROFILE, LEGACY_IOA_PROFILE,
                                   STANDARD_PROFILE)
from repro.iec104.time_tag import CP56Time2a

from .codec_reference import split_frames


def float_frame(value=59.98, ioa=2001, profile=STANDARD_PROFILE,
                send=0, recv=0):
    asdu = measurement(TypeID.M_ME_NC_1, ioa, ShortFloat(value=value))
    return IFrame(asdu=asdu, send_seq=send, recv_seq=recv).encode(profile)


class TestSplitFrames:
    def test_multiple_frames(self):
        payload = float_frame() + SFrame(recv_seq=1).encode() \
            + UFrame(UFunction.TESTFR_ACT).encode()
        frames, remainder = split_frames(payload)
        assert len(frames) == 3
        assert remainder == b""

    def test_partial_trailing_frame(self):
        full = float_frame()
        payload = full + full[:5]
        frames, remainder = split_frames(payload)
        assert len(frames) == 1
        assert remainder == full[:5]

    def test_garbage_stops_splitting(self):
        payload = b"\x00\x01" + float_frame()
        frames, remainder = split_frames(payload)
        assert frames == []
        assert remainder == payload

    def test_empty(self):
        assert split_frames(b"") == ([], b"")


class TestStrictParser:
    def test_valid_frame(self):
        parser = StrictParser()
        result = parser.parse_frame(float_frame())
        assert result.ok and result.compliant

    def test_legacy_frame_flagged(self):
        parser = StrictParser()
        result = parser.parse_frame(float_frame(profile=LEGACY_COT_PROFILE))
        assert not result.ok
        assert parser.stats.malformed == 1

    def test_stats_accumulate(self):
        parser = StrictParser()
        parser.parse_stream(float_frame()
                            + float_frame(profile=LEGACY_IOA_PROFILE))
        assert parser.stats.frames == 2
        assert parser.stats.valid == 1
        assert parser.stats.malformed_fraction == pytest.approx(0.5)

    def test_desync_reported(self):
        parser = StrictParser()
        results = parser.parse_stream(float_frame() + b"\x01\x02")
        assert results[-1].error is not None


class TestTolerantParser:
    def test_standard_preferred(self):
        parser = TolerantParser()
        result = parser.parse_frame(float_frame(), link_key="a")
        assert result.compliant
        assert parser.profile_for("a") == STANDARD_PROFILE

    @pytest.mark.parametrize("profile", [LEGACY_COT_PROFILE,
                                         LEGACY_IOA_PROFILE])
    def test_legacy_inference(self, profile):
        parser = TolerantParser()
        result = parser.parse_frame(float_frame(profile=profile),
                                    link_key="legacy")
        assert result.ok
        assert result.profile == profile
        assert parser.profile_for("legacy") == profile

    def test_profile_cached_per_link(self):
        parser = TolerantParser()
        parser.parse_frame(float_frame(profile=LEGACY_COT_PROFILE),
                           link_key="O53")
        # Subsequent frames decode under the cached profile directly.
        result = parser.parse_frame(
            float_frame(value=1.25, profile=LEGACY_COT_PROFILE),
            link_key="O53")
        assert result.profile == LEGACY_COT_PROFILE
        assert result.apdu.asdu.objects[0].element.value \
            == pytest.approx(1.25)

    def test_links_are_independent(self):
        parser = TolerantParser()
        parser.parse_frame(float_frame(profile=LEGACY_IOA_PROFILE),
                           link_key="O37")
        parser.parse_frame(float_frame(), link_key="O1")
        assert parser.profile_for("O37") == LEGACY_IOA_PROFILE
        assert parser.profile_for("O1") == STANDARD_PROFILE

    def test_u_frames_profile_independent(self):
        parser = TolerantParser()
        result = parser.parse_frame(UFrame(UFunction.TESTFR_ACT).encode(),
                                    link_key="x")
        assert result.ok
        # U frames must not fix a profile for the link.
        assert parser.profile_for("x") is None

    def test_garbage_fails_cleanly(self):
        parser = TolerantParser()
        result = parser.parse_frame(bytes((0x68, 0x04, 0xFF, 0xFF,
                                           0xFF, 0xFF)))
        assert not result.ok
        assert parser.stats.malformed == 1

    def test_reinfers_after_link_change(self):
        parser = TolerantParser()
        parser.parse_frame(float_frame(profile=LEGACY_COT_PROFILE),
                           link_key="rtu")
        # The RTU was replaced by a compliant one mid-capture.
        result = parser.parse_frame(float_frame(), link_key="rtu")
        assert result.ok and result.compliant

    def test_non_compliant_counted(self):
        parser = TolerantParser()
        parser.parse_frame(float_frame(profile=LEGACY_COT_PROFILE))
        parser.parse_frame(float_frame())
        assert parser.stats.non_compliant == 1

    def test_requires_candidates(self):
        with pytest.raises(ValueError):
            TolerantParser(candidates=())


class TestStreamDecoder:
    def test_frame_split_across_segments(self):
        decoder = StreamDecoder(link_key="x")
        frame = float_frame()
        assert decoder.feed(frame[:4]) == []
        assert decoder.pending == 4
        results = decoder.feed(frame[4:])
        assert len(results) == 1 and results[0].ok
        assert decoder.pending == 0

    def test_multiple_frames_one_segment(self):
        decoder = StreamDecoder()
        payload = float_frame() + SFrame(recv_seq=9).encode()
        results = decoder.feed(payload)
        assert [type(r.apdu).__name__ for r in results] \
            == ["IFrame", "SFrame"]

    def test_resync_after_garbage(self):
        decoder = StreamDecoder()
        frame = float_frame()
        results = decoder.feed(b"\x01\x02\x03" + frame)
        assert len(results) == 1 and results[0].ok
        assert decoder.desync_bytes == 3

    def test_garbage_without_start_byte_dropped(self):
        decoder = StreamDecoder()
        assert decoder.feed(b"\x01\x02\x03") == []
        assert decoder.desync_bytes == 3
        assert decoder.pending == 0

    def test_strict_parser_backend(self):
        decoder = StreamDecoder(parser=StrictParser())
        results = decoder.feed(float_frame(profile=LEGACY_COT_PROFILE))
        assert len(results) == 1 and not results[0].ok

    @pytest.mark.parametrize("frames", [1, 2])
    def test_delegating_parser_learns_under_the_link_key(self, frames):
        """A proxy that forwards to a TolerantParser (an instrumented
        parser, say) gets the link key too, so the profile is learned
        for that link and not under ``None``."""

        class Proxy:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

        inner = TolerantParser()
        decoder = StreamDecoder(parser=Proxy(inner), link_key=("O37", "C1"))
        # One frame per segment parses in place; two take the span scan.
        results = decoder.feed(b"".join(
            float_frame(profile=LEGACY_IOA_PROFILE, send=send)
            for send in range(frames)))
        assert len(results) == frames and all(r.ok for r in results)
        assert inner.profile_for(("O37", "C1")) == LEGACY_IOA_PROFILE
        assert inner.profile_for(None) is None


class TestParseResult:
    @pytest.mark.parametrize("parser", [StrictParser, TolerantParser])
    def test_stored_errors_keep_no_call_stack(self, parser):
        """A failed result's error, and every error chained to it,
        carries no traceback: a kept failure pins no frames."""
        element = ShortFloat(value=1.0, time=CP56Time2a())
        raw = bytearray(IFrame(asdu=measurement(
            TypeID.M_ME_TF_1, 2001, element)).encode())
        # Month 0: the time-tag decode chains a ValueError to the
        # MalformedASDUError it raises.
        raw[-2] = 0
        parser = parser()
        # A pinned profile first, so the tolerant parser meets the bad
        # frame on its pinned path and infers inside an except block.
        assert parser.parse_frame(float_frame(), "x").ok
        result = parser.parse_frame(bytes(raw), "x")
        assert isinstance(result.error, MalformedASDUError)
        chained = [result.error]
        while chained:
            error = chained.pop()
            assert error.__traceback__ is None
            chained += [linked for linked in (error.__cause__,
                                              error.__context__)
                        if linked is not None]
        assert isinstance(result.error.__cause__, ValueError)

    def test_compliant_requires_standard_profile(self):
        ok = ParseResult(raw=b"", apdu=SFrame(), profile=STANDARD_PROFILE)
        legacy = ParseResult(raw=b"", apdu=SFrame(),
                             profile=LEGACY_COT_PROFILE)
        assert ok.compliant and not legacy.compliant


@given(st.lists(st.sampled_from([
    lambda: float_frame(value=1.0),
    lambda: SFrame(recv_seq=3).encode(),
    lambda: UFrame(UFunction.TESTFR_CON).encode(),
]), min_size=1, max_size=12), st.integers(min_value=1, max_value=17))
def test_decoder_invariant_any_segmentation(builders, chunk):
    """However a frame stream is segmented, the decoder recovers every
    frame exactly once, in order."""
    stream = b"".join(builder() for builder in builders)
    decoder = StreamDecoder()
    results = []
    for index in range(0, len(stream), chunk):
        results.extend(decoder.feed(stream[index:index + chunk]))
    assert len(results) == len(builders)
    assert all(result.ok for result in results)
