"""Each analysis kernel against its whole-sequence reference formula.

The batch analyses fold their input through the same incremental
kernels the streaming analyzers keep, so the batch/stream parity
suite alone would compare a kernel with itself. These properties pin
every kernel to the formula in ``kernel_reference`` on arbitrary
inputs, and on the shared Y1/Y2 captures; ``TestExtractApdus`` pins
the ``extract_apdus`` pipeline drain to the batch loop it replaced.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (ConnectionChains, FlowAnalysis,
                            PacketCapture, extract_apdus, tokenize)
from repro.analysis.markov import ChainBuilder, MarkovChain
from repro.analysis.physical import PointKey
from repro.analysis.whitelist import (CombinedDetector, CyberVerdict,
                                      CyberWhitelist, PhysicalViolation,
                                      PhysicalWhitelist,
                                      VerdictAccumulator, correlate)
from repro.iec104.constants import TypeID
from repro.netstack.addresses import IPv4Address
from repro.netstack.flows import FlowRecord
from repro.netstack.packet import Endpoint, FlowKey
from repro.protocols import get_protocol
from repro.scenarios import build_scenario

from . import kernel_reference as reference

PROPERTY = settings(max_examples=200, deadline=None)

#: A small alphabet, so sequences repeat tokens and transitions.
TOKENS = st.lists(st.sampled_from(
    ["S", "U1", "U2", "U16", "U32", "I13", "I36", "I100"]), max_size=40)

#: Connections come as (server, outstation) tuples or bare labels.
CONNECTIONS = st.sampled_from([("C1", "O1"), ("C2", "O1"), ("C1", "O2"),
                               "O1", "backup"])

THRESHOLDS = st.floats(min_value=-0.5, max_value=1.5)

KEY = FlowKey(src=Endpoint(IPv4Address(0x0A000001), 2404),
              dst=Endpoint(IPv4Address(0x0A000002), 49152))


class TestChainBuilder:
    @PROPERTY
    @given(tokens=TOKENS)
    def test_from_tokens_matches_reference(self, tokens):
        assert (MarkovChain.from_tokens(tokens)
                == reference.chain_from_tokens(tokens))

    @PROPERTY
    @given(tokens=TOKENS)
    def test_size_tracks_the_chain(self, tokens):
        builder = ChainBuilder()
        for token in tokens:
            builder.observe(token)
        assert builder.size == reference.chain_from_tokens(tokens).size

    def test_connection_chains_on_y1(self, y1_extraction):
        chains = ConnectionChains.from_extraction(y1_extraction)
        by_connection = y1_extraction.by_connection()
        assert chains.chains.keys() == by_connection.keys()
        for connection, events in by_connection.items():
            assert (chains.chains[connection]
                    == reference.chain_from_tokens(tokenize(events)))


class TestVerdictAccumulator:
    @PROPERTY
    @given(per_connection=st.booleans(), learned=st.booleans(),
           own=TOKENS, others=st.lists(TOKENS, max_size=3),
           tokens=TOKENS, threshold=THRESHOLDS)
    def test_score_matches_reference(self, per_connection, learned,
                                     own, others, tokens, threshold):
        whitelist = CyberWhitelist(per_connection=per_connection)
        if learned:
            whitelist.fit_sequence(own, ("C1", "O1"))
        if learned or per_connection:
            for sequence in others:
                whitelist.fit_sequence(sequence, ("C1", "O2"))
        assert whitelist.knows_connection(("C1", "O1")) == learned

        verdict = whitelist.score(tokens, ("C1", "O1"))
        assert verdict == reference.score(whitelist, tokens, ("C1", "O1"))

        accumulator = VerdictAccumulator(whitelist, ("C1", "O1"))
        for token in tokens:
            accumulator.observe(token)
        assert accumulator.is_alert(threshold) \
            == verdict.is_alert(threshold)

    def test_score_extraction_on_y2(self, y1_extraction, y2_extraction):
        whitelist = CyberWhitelist().fit(y1_extraction)
        verdicts = whitelist.score_extraction(y2_extraction)
        expected = [reference.score(whitelist, tokenize(events),
                                    connection)
                    for connection, events
                    in sorted(y2_extraction.by_connection().items())]
        assert verdicts == expected
        # Y2 has connections Y1 never saw: both branches are covered.
        assert any(not whitelist.knows_connection(verdict.connection)
                   for verdict in verdicts)
        assert any(whitelist.knows_connection(verdict.connection)
                   for verdict in verdicts)


def flow(syn: bool, fin: bool, rst: bool, start_us: int,
         duration_us: int) -> FlowRecord:
    return FlowRecord(key=KEY, first_time_us=start_us,
                      last_time_us=start_us + duration_us,
                      saw_syn=syn, saw_fin=fin, saw_rst=rst)


#: Durations clustered around the 1 s sub-second boundary.
DURATIONS = st.one_of(st.integers(999_990, 1_000_010),
                      st.integers(0, 10_000_000))

FLOWS = st.lists(st.builds(flow, st.booleans(), st.booleans(),
                           st.booleans(), st.integers(0, 2**40),
                           DURATIONS), max_size=30)


class TestFlowTally:
    @PROPERTY
    @given(flows=FLOWS)
    def test_summary_matches_reference(self, flows):
        assert (FlowAnalysis(label="x", flows=flows).summary()
                == reference.flow_summary("x", flows))

    def test_summary_on_y1(self, y1_capture):
        analysis = FlowAnalysis.from_packets("y1", y1_capture)
        assert analysis.summary() == reference.flow_summary(
            "y1", analysis.flows)


POINTS = st.sampled_from([
    PointKey(station=station, ioa=ioa, type_id=TypeID.M_ME_NC_1)
    for station in ("O1", "O2") for ioa in (1, 2)])


class TestEnvelopeLearning:
    def test_fit_matches_min_max_on_y1(self, y1_extraction):
        whitelist = PhysicalWhitelist().fit(y1_extraction)
        assert whitelist.pending_point_count == 0
        assert whitelist._envelopes == reference.envelopes(
            y1_extraction, whitelist.margin)

    @PROPERTY
    @given(samples=st.lists(st.tuples(
               POINTS, st.floats(min_value=-1e6, max_value=1e6)),
               max_size=50),
           margin=st.floats(min_value=0.0, max_value=2.0))
    def test_learn_sample_matches_min_max(self, samples, margin):
        whitelist = PhysicalWhitelist(margin=margin)
        for key, value in samples:
            whitelist.learn_sample(key, value)
        whitelist.finalize()
        series: dict[PointKey, list[float]] = {}
        for key, value in samples:
            series.setdefault(key, []).append(value)
        assert whitelist._envelopes == {
            key: reference.envelope(min(values), max(values), margin)
            for key, values in series.items()}


def make_verdict(connection, tokens: int, unseen: int,
                 unknown: bool) -> CyberVerdict:
    return CyberVerdict(connection=connection, tokens=tokens,
                        unseen_transitions=(("S", "S"),) * unseen,
                        unknown_tokens=("I45",) if unknown else ())


def make_violation(station: str, ioa: int) -> PhysicalViolation:
    return PhysicalViolation(
        key=PointKey(station=station, ioa=ioa,
                     type_id=TypeID.M_ME_NC_1),
        time=float(ioa), value=0.0, reason="test")


class TestCorrelation:
    @PROPERTY
    @given(verdicts=st.lists(st.builds(
               make_verdict, CONNECTIONS, st.integers(0, 6),
               st.integers(0, 5), st.booleans()),
               unique_by=lambda item: str(item.connection)),
           violations=st.lists(st.builds(
               make_violation, st.sampled_from(["O1", "O2", "O9", "backup"]),
               st.integers(0, 9))),
           threshold=THRESHOLDS)
    def test_correlate_matches_reference(self, verdicts, violations,
                                         threshold):
        assert (correlate(verdicts, violations, threshold)
                == reference.correlate(verdicts, violations, threshold))

    def test_detect_on_y2(self, y1_extraction, y2_extraction):
        detector = CombinedDetector().fit(y1_extraction)
        alerts = detector.detect(y2_extraction)
        assert alerts  # Y2 trips the detector trained on Y1
        assert alerts == reference.correlate(
            detector.cyber.score_extraction(y2_extraction),
            detector.physical.check_extraction(y2_extraction), 0.2)


#: Packets per edited window of the Y1 capture.
WINDOW = 160

#: Edits to one window: packets dropped, payload bytes flipped (the
#: first APDU's 0x68 start byte, its length octet, or any byte) and
#: neighbours swapped, so that timestamps go backwards.
EDITS = st.fixed_dictionaries({
    "start": st.integers(min_value=0, max_value=1 << 20),
    "drops": st.sets(st.integers(0, WINDOW - 1), max_size=24),
    "flips": st.lists(st.tuples(
        st.integers(0, WINDOW - 1),
        st.sampled_from(["start", "length", "any"]),
        st.integers(0, 1 << 12), st.integers(0, 7)), max_size=12),
    "swaps": st.lists(st.integers(0, WINDOW - 2), max_size=12),
})


def edited_window(packets, edits):
    start = edits["start"] % len(packets)
    window = list(packets[start:start + WINDOW])
    for index, where, offset, bit in edits["flips"]:
        if index >= len(window) or not window[index].payload:
            continue
        payload = bytearray(window[index].payload)
        position = {"start": 0, "length": 1}.get(where, offset)
        payload[position % len(payload)] ^= 1 << bit
        window[index] = replace(window[index], tcp=replace(
            window[index].tcp, payload=bytes(payload)))
    for index in edits["swaps"]:
        if index + 1 < len(window):
            window[index], window[index + 1] = (window[index + 1],
                                                window[index])
    return [packet for index, packet in enumerate(window)
            if index not in edits["drops"]]


def failure_fields(extraction):
    return [(time_us, src, dst, result.raw, type(result.error),
             str(result.error))
            for time_us, src, dst, result in extraction.failures]


def assert_same_extraction(capture, per_packet, **kwargs):
    drained = extract_apdus(capture, per_packet=per_packet, **kwargs)
    looped = reference.extract_apdus(capture, per_packet=per_packet,
                                     **kwargs)
    assert drained.events == looped.events
    assert failure_fields(drained) == failure_fields(looped)
    assert drained.retransmissions == looped.retransmissions
    return drained, looped


class TestExtractApdus:
    """The pipeline drain against the batch loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(edits=EDITS, per_packet=st.booleans(), named=st.booleans())
    def test_drain_matches_the_loop(self, y1_capture, edits,
                                    per_packet, named):
        names = y1_capture.host_names() if named else {}
        capture = PacketCapture(
            packets=edited_window(y1_capture.packets, edits),
            names=names)
        drained, looped = assert_same_extraction(capture, per_packet)
        assert (drained.parser.link_profiles
                == looped.parser.link_profiles)

    @pytest.mark.parametrize("per_packet", [True, False])
    def test_whole_y1(self, y1_capture, per_packet):
        drained, _ = assert_same_extraction(y1_capture, per_packet)
        assert drained.events

    @pytest.mark.parametrize("per_packet", [True, False])
    def test_modbus_scenario(self, per_packet):
        run = build_scenario("modbus-value-injection", scale=0.25)
        capture = PacketCapture(packets=run.packets, names=run.names)
        drained, _ = assert_same_extraction(
            capture, per_packet, protocol=get_protocol("modbus"))
        assert drained.events
