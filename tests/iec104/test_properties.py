"""Cross-cutting property-based tests for the protocol stack."""

import random

from hypothesis import given, settings, strategies as st

from repro.iec104.apci import (SPAN_I, SPAN_S, SPAN_U, IFrame, SFrame,
                               UFrame, decode_apdu, scan_apci)
from repro.iec104.asdu import ASDU, InformationObject
from repro.iec104.codec import TolerantParser
from repro.iec104.constants import Cause, TypeID, UFunction
from repro.iec104.iec101 import (LinkControl, SerialLine,
                                 encode_ack, encode_fixed,
                                 encode_variable)
from repro.iec104.information_elements import (DoublePoint, ShortFloat,
                                               SinglePoint)
from repro.iec104.profiles import CANDIDATE_PROFILES
from repro.iec104.state_machine import ConnectionMachine
from repro.iec104.time_tag import CP56Time2a

from .codec_reference import split_frames

_PROFILES = st.sampled_from(CANDIDATE_PROFILES)

_CAUSES = st.sampled_from([Cause.PERIODIC, Cause.SPONTANEOUS,
                           Cause.REQUEST, Cause.ACTIVATION,
                           Cause.INTERROGATED_BY_STATION])


def _element(type_id, value_float, flag):
    if type_id is TypeID.M_ME_NC_1:
        return ShortFloat(value=value_float)
    if type_id is TypeID.M_ME_TF_1:
        return ShortFloat(value=value_float,
                          time=CP56Time2a.from_seconds(1000.0))
    if type_id is TypeID.M_SP_NA_1:
        return SinglePoint(value=flag)
    return DoublePoint(state=2 if flag else 1)


_ASDUS = st.builds(
    lambda type_id, cause, addresses, value, flag, ca: ASDU(
        type_id=type_id, cause=cause, common_address=ca,
        objects=tuple(InformationObject(a, _element(type_id, value,
                                                    flag))
                      for a in addresses)),
    st.sampled_from([TypeID.M_ME_NC_1, TypeID.M_ME_TF_1,
                     TypeID.M_SP_NA_1, TypeID.M_DP_NA_1]),
    _CAUSES,
    st.lists(st.integers(min_value=1, max_value=250), min_size=1,
             max_size=12, unique=True),
    st.floats(width=32, allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.booleans(),
    st.integers(min_value=1, max_value=255),
)


class TestAsduProfileProperties:
    @settings(max_examples=120)
    @given(asdu=_ASDUS, profile=_PROFILES)
    def test_roundtrip_under_any_profile(self, asdu, profile):
        decoded = ASDU.decode(asdu.encode(profile), profile)
        assert decoded.type_id == asdu.type_id
        assert decoded.cause == asdu.cause
        assert [o.address for o in decoded.objects] \
            == [o.address for o in asdu.objects]

    @settings(max_examples=80)
    @given(asdu=_ASDUS, profile=_PROFILES,
           seq=st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_tolerant_parser_decodes_any_profile(self, asdu, profile,
                                                 seq):
        """Every frame decodes, and the chosen interpretation is
        byte-exact (re-encoding reproduces the input).

        A single frame can be genuinely ambiguous between profiles
        (e.g. zero-filled payloads), so exact address recovery is only
        guaranteed when the parser picked the original profile — which
        it must for multi-object frames, whose length structure is
        discriminating.
        """
        frame = IFrame(asdu=asdu, send_seq=seq).encode(profile)
        parser = TolerantParser()
        result = parser.parse_frame(frame, link_key="x")
        assert result.ok
        recovered = result.apdu
        assert recovered.encode(result.profile) == frame
        if result.profile == profile:
            assert [o.address for o in recovered.asdu.objects] \
                == [o.address for o in asdu.objects]

    @settings(max_examples=60)
    @given(asdu=_ASDUS, profile=_PROFILES,
           seq=st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_multi_object_frames_disambiguate(self, asdu, profile,
                                              seq):
        """With >= 3 information objects the element-size arithmetic
        pins the profile: addresses are recovered exactly."""
        if len(asdu.objects) < 3:
            return
        frame = IFrame(asdu=asdu, send_seq=seq).encode(profile)
        result = TolerantParser().parse_frame(frame, link_key="x")
        assert result.ok
        assert [o.address for o in result.apdu.asdu.objects] \
            == [o.address for o in asdu.objects]


class TestStreamProperties:
    @settings(max_examples=60)
    @given(asdus=st.lists(_ASDUS, min_size=1, max_size=8),
           profile=_PROFILES)
    def test_concatenated_frames_split_exactly(self, asdus, profile):
        stream = b"".join(
            IFrame(asdu=asdu, send_seq=i).encode(profile)
            for i, asdu in enumerate(asdus))
        frames, remainder = split_frames(stream)
        assert len(frames) == len(asdus)
        assert remainder == b""


#: A valid on-the-wire APDU of any format, under any profile.
_WIRE_FRAMES = st.one_of(
    st.builds(lambda asdu, profile, seq:
              IFrame(asdu=asdu, send_seq=seq).encode(profile),
              _ASDUS, _PROFILES,
              st.integers(min_value=0, max_value=(1 << 15) - 1)),
    st.builds(lambda seq: SFrame(recv_seq=seq).encode(),
              st.integers(min_value=0, max_value=(1 << 15) - 1)),
    st.builds(lambda function: UFrame(function).encode(),
              st.sampled_from(list(UFunction))),
)


class TestVectorizedScanProperties:
    """The batch splitter (`scan_apci`) must agree byte-for-byte with
    the scalar `split_frames` on *any* byte stream — including the
    paper's Fig. 7 pathologies: truncated tails, lost framing
    (non-0x68 garbage), and frames sliced mid-APCI."""

    @settings(max_examples=150)
    @given(frames=st.lists(_WIRE_FRAMES, max_size=6),
           garbage=st.binary(max_size=16),
           cut=st.integers(min_value=0, max_value=24))
    def test_scan_matches_scalar_split_on_any_tail(self, frames,
                                                   garbage, cut):
        payload = b"".join(frames) + garbage
        payload = payload[:max(0, len(payload) - cut)]
        expected_frames, remainder = split_frames(payload)
        spans, stop = scan_apci(payload)
        assert [payload[start:start + total]
                for start, total, _kind in spans] == expected_frames
        assert payload[stop:] == remainder
        for start, total, kind in spans:
            low = (payload[start + 2] & 0x03) if total > 2 else 0
            assert kind == (low if low & 0x01 else SPAN_I)

    @settings(max_examples=60)
    @given(kinds=st.lists(st.sampled_from(["i", "s", "u"]),
                          min_size=1, max_size=8),
           seq=st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_span_kinds_classify_without_decoding(self, kinds, seq):
        asdu = ASDU(type_id=TypeID.M_SP_NA_1, cause=Cause.SPONTANEOUS,
                    common_address=1,
                    objects=(InformationObject(
                        1, SinglePoint(value=True)),))
        payload = b""
        expected = []
        for index, kind in enumerate(kinds):
            if kind == "i":
                payload += IFrame(
                    asdu=asdu,
                    send_seq=(seq + index) % (1 << 15)).encode()
                expected.append(SPAN_I)
            elif kind == "s":
                payload += SFrame(recv_seq=seq).encode()
                expected.append(SPAN_S)
            else:
                payload += UFrame(UFunction.TESTFR_ACT).encode()
                expected.append(SPAN_U)
        spans, stop = scan_apci(payload)
        assert stop == len(payload)
        assert [kind for _start, _total, kind in spans] == expected

    @settings(max_examples=60)
    @given(frames=st.lists(_WIRE_FRAMES, min_size=1, max_size=5),
           limit=st.integers(min_value=1, max_value=3),
           offset_frames=st.integers(min_value=0, max_value=2))
    def test_offset_and_limit_window_the_scan(self, frames, limit,
                                              offset_frames):
        payload = b"".join(frames)
        skip = min(offset_frames, len(frames))
        offset = sum(len(frame) for frame in frames[:skip])
        spans, stop = scan_apci(payload, offset, limit)
        expected = frames[skip:skip + limit]
        assert [payload[start:start + total]
                for start, total, _kind in spans] == expected
        assert stop == offset + sum(len(frame) for frame in expected)


class TestFt12Properties:
    @settings(max_examples=80)
    @given(asdu=_ASDUS,
           address=st.integers(min_value=0, max_value=255),
           fcb=st.booleans())
    def test_variable_frame_roundtrip(self, asdu, address, fcb):
        from repro.iec104.iec101 import IEC101_PROFILE, decode_frame
        # Constrain to fields representable in IEC 101 widths.
        if any(o.address > IEC101_PROFILE.max_ioa
               for o in asdu.objects):
            return
        control = LinkControl(function=3, prm=True, fcb=fcb, fcv=True)
        raw = encode_variable(control, address, asdu)
        frame, consumed = decode_frame(raw)
        assert consumed == len(raw)
        assert frame.control == control
        assert frame.address == address
        assert frame.decode_asdu().type_id == asdu.type_id

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from(["ack", "fixed", "var"]),
                    min_size=1, max_size=10),
           st.integers(min_value=1, max_value=9),
           st.binary(max_size=4))
    def test_serial_line_any_segmentation(self, kinds, chunk, noise):
        frames_sent = []
        # Leading line noise must not contain octets that could start
        # (or be mistaken for) a frame — serial resync is inherently
        # heuristic about those.
        noise = bytes(b for b in noise if b not in (0xE5, 0x10, 0x68))
        stream = bytearray(noise)
        for kind in kinds:
            if kind == "ack":
                stream += encode_ack()
            elif kind == "fixed":
                stream += encode_fixed(LinkControl(function=9), 7)
            else:
                asdu = ASDU(type_id=TypeID.M_SP_NA_1,
                            cause=Cause.SPONTANEOUS, common_address=1,
                            objects=(InformationObject(
                                5, SinglePoint(value=True)),))
                stream += encode_variable(LinkControl(function=3), 7,
                                          asdu)
            frames_sent.append(kind)
        line = SerialLine()
        decoded = []
        for index in range(0, len(stream), chunk):
            decoded.extend(line.feed(bytes(stream[index:index + chunk])))
        assert len(decoded) == len(frames_sent)


class TestMachineInterleaving:
    @settings(max_examples=30)
    @given(st.lists(st.sampled_from(["i", "s", "testfr"]), min_size=1,
                    max_size=60),
           st.integers(min_value=0, max_value=(1 << 31) - 1))
    def test_random_outstation_traffic_never_desyncs(self, script,
                                                     seed):
        """An outstation driven by a random send script and a server
        that acknowledges per protocol never violate sequencing."""
        rng = random.Random(seed)
        server = ConnectionMachine(is_controlling=True)
        outstation = ConnectionMachine(is_controlling=False)
        server.connection_opened(0.0)
        outstation.connection_opened(0.0)
        act = server.start_transfer()
        server.on_send(act, 0.0)
        for action in outstation.on_receive(act, 0.0):
            pass
        con = UFrame(UFunction.STARTDT_CON)
        outstation.on_send(con, 0.0)
        server.on_receive(con, 0.0)

        now = 1.0
        for step in script:
            now += rng.random()
            if step == "i":
                if not outstation.can_send_i:
                    continue
                asdu = ASDU(type_id=TypeID.M_SP_NA_1,
                            cause=Cause.SPONTANEOUS, common_address=1,
                            objects=(InformationObject(
                                1, SinglePoint(value=True)),))
                frame = outstation.next_i_frame(asdu)
                outstation.on_send(frame, now)
                for action in server.on_receive(frame, now):
                    if action.kind.name == "SEND_S_ACK":
                        ack = SFrame(recv_seq=action.recv_seq)
                        server.on_send(ack, now)
                        outstation.on_receive(ack, now)
            elif step == "s":
                ack = SFrame(recv_seq=server.recv_seq)
                server.on_send(ack, now)
                outstation.on_receive(ack, now)
            else:
                testfr = UFrame(UFunction.TESTFR_ACT)
                server.on_send(testfr, now)
                for action in outstation.on_receive(testfr, now):
                    reply = UFrame(UFunction.TESTFR_CON)
                    outstation.on_send(reply, now)
                    server.on_receive(reply, now)
        # Invariants: windows respected, counters consistent.
        assert 0 <= outstation.unacked_sent <= outstation.k
        assert server.recv_seq == outstation.send_seq
