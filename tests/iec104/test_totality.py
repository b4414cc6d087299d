"""Totality of the IEC 104 decoders on untrusted octets.

A capture carries valid I/S/U frames under any link profile mixed with
junk, flipped octets, truncations and time tags with a field out of
range. ``decode_apdu`` returns an APDU or raises an ``IEC104Error``
under every candidate profile; the parsers never raise and explain
every frame they reject; ``StreamDecoder.feed`` never raises under any
chunking, buffers at most one partial frame and accounts for every
octet it was given.

``StrictParser`` is the tolerant parser over the standard profile
alone. The oracle in ``codec_reference`` decodes each frame under the
standard profile with no inference, memo or profile memory; the two
must agree on every result and on their stats. ``StreamDecoder``
drives any parser's own framing; over either IEC 104 parser it must
equal ``codec_reference``'s IEC 104 feed loop after every feed.

``decode_apdu`` builds its frames, ASDUs, objects, elements and time
tags without running their constructors. The validating constructors
are the oracle: they accept every object a decode builds and build an
equal one. No decoded object carries an instance dict.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.iec104.apci import IFrame, decode_apdu
from repro.iec104.asdu import measurement
from repro.iec104.codec import StreamDecoder, StrictParser, TolerantParser
from repro.iec104.constants import TypeID
from repro.iec104.errors import IEC104Error
from repro.iec104.information_elements import ShortFloat
from repro.iec104.profiles import (CANDIDATE_PROFILES, LEGACY_COT_PROFILE,
                                   STANDARD_PROFILE)

from .codec_reference import ReferenceStreamDecoder, StandardParser
from .strategies import PROFILES, VALID_FRAMES, damaged

PROPERTY = settings(max_examples=300, deadline=None)

#: The largest buffered tail: one APDU (2 + 255 octets) less one.
MAX_PENDING = 256

STREAMS = st.lists(damaged(), max_size=10)
LINKS = st.sampled_from(["a", "b", None])


def outcome(result):
    """What a result says: the APDU and profile, or the error (the
    APDU by ``repr``: two decodes of a NaN float are not ``==``)."""
    error = result.error
    return (result.raw, repr(result.apdu), result.profile,
            type(error) if error is not None else None,
            str(error) if error is not None else None)


@PROPERTY
@given(frame=damaged(), profile=PROFILES)
def test_decode_apdu_returns_or_raises_iec104_errors(frame, profile):
    try:
        apdu, consumed = decode_apdu(frame, profile=profile)
    except IEC104Error:
        return
    assert 0 < consumed <= len(frame)
    assert apdu.token


@PROPERTY
@given(frames=STREAMS, links=st.lists(LINKS, min_size=10, max_size=10))
def test_strict_parser_matches_the_standard_oracle(frames, links):
    strict, oracle = StrictParser(), StandardParser()
    for frame, link in zip(frames, links):
        assert (outcome(strict.parse_frame(frame, link))
                == outcome(oracle.parse_frame(frame, link)))
    payload = b"".join(frames)
    assert ([outcome(result) for result in strict.parse_stream(payload,
                                                              "a")]
            == [outcome(result) for result in oracle.parse_stream(payload,
                                                                  "a")])
    assert strict.stats == oracle.stats


@PROPERTY
@given(frames=STREAMS)
def test_parse_stream_never_raises(frames):
    payload = b"".join(frames)
    for parser in (TolerantParser(), StrictParser()):
        for result in parser.parse_stream(payload, "link"):
            if result.apdu is None:
                assert isinstance(result.error, IEC104Error), result
            else:
                assert result.error is None
        assert parser.stats.frames == (parser.stats.valid
                                       + parser.stats.malformed)


@st.composite
def chunked(draw) -> list[bytes]:
    """Damaged frames concatenated and cut into segments."""
    stream = b"".join(draw(STREAMS))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                max_size=8)))
    bounds = [0, *cuts, len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


@PROPERTY
@given(segments=chunked(), strict=st.booleans())
def test_stream_decoder_feed_is_total(segments, strict):
    decoder = StreamDecoder(StrictParser() if strict else TolerantParser(),
                            link_key="link")
    results = []
    for segment in segments:
        results.extend(decoder.feed(segment))
        assert decoder.pending < MAX_PENDING + 1
    for result in results:
        assert result.ok or isinstance(result.error, IEC104Error)
    assert (sum(len(result.raw) for result in results)
            + decoder.desync_bytes + decoder.pending
            == sum(len(segment) for segment in segments))


@PROPERTY
@given(segments=chunked(), strict=st.booleans())
def test_stream_decoder_matches_the_reference(segments, strict):
    parser = StrictParser if strict else TolerantParser
    decoder = StreamDecoder(parser(), link_key="link")
    reference = ReferenceStreamDecoder(parser(), link_key="link")
    for segment in segments:
        assert ([outcome(result) for result in decoder.feed(segment)]
                == [outcome(result) for result in reference.feed(segment)])
        assert decoder.desync_bytes == reference.desync_bytes
        assert decoder.pending == reference.pending
    assert decoder.parser.stats == reference.parser.stats


def built_objects(apdu):
    """The frame and every value under it: its ASDU, information
    objects, elements, their qualities and time tags."""
    stack = [apdu]
    while stack:
        value = stack.pop()
        yield value
        for field in fields(value):
            child = getattr(value, field.name)
            stack.extend(item for item in (
                child if isinstance(child, tuple) else (child,))
                if is_dataclass(item))


def same(a, b) -> bool:
    """``a == b``; a NaN float, unequal to itself once copied, compares
    by ``repr``."""
    return a == b or repr(a) == repr(b)


@PROPERTY
@given(frame=st.one_of(VALID_FRAMES, damaged()))
def test_decoded_objects_are_checked_once(frame):
    """Under every candidate profile that decodes the frame, each
    object built has no ``__dict__``, equals its ``replace`` copy with
    the same hash and survives a pickle round trip."""
    for profile in CANDIDATE_PROFILES:
        try:
            apdu, _ = decode_apdu(frame, profile=profile)
        except IEC104Error:
            continue
        for part in built_objects(apdu):
            name = type(part).__name__
            assert not hasattr(part, "__dict__"), name
            rebuilt = replace(part)
            assert same(rebuilt, part), name
            assert hash(rebuilt) == hash(part), name
            assert same(pickle.loads(pickle.dumps(part)), part), name


class TestInferenceOrder:
    """A pinned link whose profile fails on a frame infers as a fresh
    link would: the pinned failure stands in at its own place in
    candidate order, so the first candidate's error is the one
    reported when no candidate decodes."""

    def test_unparseable_frame_reports_the_first_candidates_error(self):
        asdu = measurement(TypeID.M_ME_NC_1, 2001, ShortFloat(value=59.9))
        pin = IFrame(asdu=asdu).encode(LEGACY_COT_PROFILE)
        bad = bytearray(pin + bytes(7))
        bad[1] += 7
        parser = TolerantParser()
        pinned = parser.parse_frame(pin, "link")
        assert pinned.profile is LEGACY_COT_PROFILE
        result = parser.parse_frame(bytes(bad), "link")
        assert str(result.error) == ("6 trailing octets after 1 "
                                     "information objects")
        with pytest.raises(IEC104Error, match="^7 trailing octets"):
            decode_apdu(bytes(bad), profile=LEGACY_COT_PROFILE)

    @PROPERTY
    @given(frame=damaged(), profile=PROFILES)
    def test_pinned_failure_infers_like_a_fresh_link(self, frame,
                                                     profile):
        try:
            decode_apdu(frame, profile=profile)
            return  # the pinned profile decodes it: no inference
        except IEC104Error:
            pass
        pinned = TolerantParser()
        pinned._link_profiles["link"] = profile
        fresh = TolerantParser()
        assert (outcome(pinned.parse_frame(frame, "link"))
                == outcome(fresh.parse_frame(frame, "link")))


def test_strict_parser_is_the_tolerant_parser_over_one_profile():
    assert isinstance(StrictParser(), TolerantParser)
    assert StrictParser()._candidates == (STANDARD_PROFILE,)
    assert [name for name, value in vars(StrictParser).items()
            if callable(value)] == ["__init__"]
