"""Totality of the stream decoder over Modbus/TCP on untrusted octets.

A live Modbus/TCP stream is untrusted input: well-formed ADUs, some
with an octet flipped or cut short, mixed with junk and cut at
arbitrary segment boundaries. ``feed`` never raises, accounts for
every octet it was given, buffers at most one partial ADU, and every
ADU it decodes tokenizes inside the token grammar the Markov and
whitelist models accept. It also equals the Modbus feed loop in
``modbus_reference`` after every feed.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.ngram import is_valid_token
from repro.iec104.codec import StreamDecoder
from repro.protocols.modbus import MAX_ADU_LENGTH, ModbusAdu, ModbusParser

from .modbus_reference import ReferenceModbusStreamDecoder

#: The largest buffered tail: one MBAP frame (6 octets + the largest
#: length field) less one octet.
MAX_PENDING = 6 + MAX_ADU_LENGTH - 1

#: Every function octet, with the edges of the exception bit drawn
#: more often than a uniform draw would.
FUNCTIONS = st.one_of(st.sampled_from([0x00, 0x01, 0x7F, 0x80, 0x81,
                                       0xFF]),
                      st.integers(0, 255))
ADUS = st.builds(ModbusAdu, transaction=st.integers(0, 0xFFFF),
                 unit=st.integers(0, 255), function=FUNCTIONS,
                 data=st.binary(max_size=MAX_ADU_LENGTH - 2)
                 ).map(ModbusAdu.encode)
JUNK = st.binary(min_size=1, max_size=16)


@st.composite
def damaged_adus(draw) -> bytes:
    """An ADU as sent, or with one octet flipped or cut short."""
    frame = bytearray(draw(ADUS))
    kind = draw(st.sampled_from(["valid", "flip", "cut"]))
    if kind == "flip":
        index = draw(st.integers(0, len(frame) - 1))
        frame[index] ^= draw(st.integers(1, 255))
    elif kind == "cut":
        del frame[draw(st.integers(0, len(frame) - 1)):]
    return bytes(frame)


@st.composite
def chunked_streams(draw) -> list[bytes]:
    """ADUs and junk, concatenated and cut into segments."""
    stream = b"".join(draw(st.lists(st.one_of(damaged_adus(), JUNK),
                                    max_size=8)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                max_size=8)))
    bounds = [0, *cuts, len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(chunked_streams())
def test_feed_is_total(segments):
    decoder = StreamDecoder(ModbusParser())
    results = []
    for segment in segments:
        results.extend(decoder.feed(segment))
        assert decoder.pending <= MAX_PENDING
    assert (sum(len(result.raw) for result in results)
            + decoder.desync_bytes + decoder.pending
            == sum(len(segment) for segment in segments))
    for result in results:
        if result.ok:
            assert is_valid_token(result.apdu.token), result


def outcome(result):
    error = result.error
    return (result.raw, result.apdu,
            type(error) if error is not None else None,
            str(error) if error is not None else None)


@settings(max_examples=300, deadline=None)
@given(chunked_streams())
def test_feed_matches_the_reference(segments):
    decoder = StreamDecoder(ModbusParser(), link_key="link")
    reference = ReferenceModbusStreamDecoder(ModbusParser(), "link")
    for segment in segments:
        assert ([outcome(result) for result in decoder.feed(segment)]
                == [outcome(result) for result in reference.feed(segment)])
        assert decoder.desync_bytes == reference.desync_bytes
        assert decoder.pending == reference.pending
