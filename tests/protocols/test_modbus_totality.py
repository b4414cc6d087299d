"""Totality of :class:`ModbusStreamDecoder` on untrusted octets.

A live Modbus/TCP stream is untrusted input: well-formed ADUs mixed
with junk and cut at arbitrary segment boundaries. ``feed`` never
raises, accounts for every octet it was given, buffers at most one
partial ADU, and every ADU it decodes tokenizes inside the token
grammar the Markov and whitelist models accept.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.ngram import is_valid_token
from repro.protocols.modbus import (MAX_ADU_LENGTH, ModbusAdu,
                                    ModbusStreamDecoder)

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
def chunked_streams(draw) -> list[bytes]:
    """ADUs and junk, concatenated and cut into segments."""
    stream = b"".join(draw(st.lists(st.one_of(ADUS, JUNK), max_size=8)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                max_size=8)))
    bounds = [0, *cuts, len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(chunked_streams())
def test_feed_is_total(segments):
    decoder = ModbusStreamDecoder()
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
