"""Whole-sequence formulas of the analysis kernels, kept as oracles.

The batch analyses and the streaming analyzers share one incremental
kernel each (``ChainBuilder``, ``FlowTally``, ``VerdictAccumulator``,
``PhysicalWhitelist.learn_sample`` and ``correlate``). Each function
here computes the same result over a whole sequence at once and
shares no code with the kernel, so ``test_kernel_oracles.py``
compares two implementations instead of one kernel with itself.

:func:`extract_apdus` is the batch decode loop that ``extract_apdus``
was before it became a drain of ``StreamPipeline``: its own port
filter, host naming, reassembler dict and parse.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.apdu_stream import ApduEvent, StreamExtraction
from repro.analysis.sources import resolve_source
from repro.netstack.reassembly import StreamReassembler
from repro.protocols.base import ProtocolSpec, get_protocol
from repro.analysis.flows import FlowSummary
from repro.analysis.markov import MarkovChain, Transition
from repro.analysis.physical import PointKey, extract_series
from repro.analysis.whitelist import (CombinedAlert, CyberVerdict,
                                      CyberWhitelist, Envelope,
                                      PhysicalViolation)
from repro.netstack.flows import FlowKind, FlowRecord


def chain_from_tokens(tokens: Sequence[str]) -> MarkovChain:
    """``MarkovChain.from_tokens``: count the ``zip`` pairs."""
    if not tokens:
        return MarkovChain()
    counts: dict[tuple[str, str], int] = {}
    outgoing: dict[str, int] = {}
    for source, target in zip(tokens, tokens[1:]):
        counts[(source, target)] = counts.get((source, target), 0) + 1
        outgoing[source] = outgoing.get(source, 0) + 1
    nodes = tuple(dict.fromkeys(tokens))
    transitions = tuple(sorted(
        (Transition(source=source, target=target, count=count,
                    probability=count / outgoing[source])
         for (source, target), count in counts.items()),
        key=lambda t: (t.source, t.target)))
    return MarkovChain(nodes=nodes, transitions=transitions)


def score(whitelist: CyberWhitelist, tokens: Sequence[str],
          connection: object) -> CyberVerdict:
    """``CyberWhitelist.score``: filter the ``zip`` pairs."""
    transitions = whitelist._transitions.get(whitelist._key(connection))
    if transitions is None:
        # Unknown connection: everything about it is anomalous.
        return CyberVerdict(
            connection=connection, tokens=len(tokens),
            unseen_transitions=tuple(zip(tokens, tokens[1:])),
            unknown_tokens=tuple(dict.fromkeys(tokens)))
    unseen = tuple(pair for pair in zip(tokens, tokens[1:])
                   if pair not in transitions)
    unknown = tuple(dict.fromkeys(
        token for token in tokens
        if token not in whitelist._vocabulary))
    return CyberVerdict(connection=connection, tokens=len(tokens),
                        unseen_transitions=unseen,
                        unknown_tokens=unknown)


def flow_summary(label: str, flows: Iterable[FlowRecord]) -> FlowSummary:
    """``FlowAnalysis.summary``: classify every flow in one loop."""
    sub = longer = long_lived = 0
    for flow in flows:
        if flow.kind is FlowKind.LONG_LIVED:
            long_lived += 1
        elif flow.duration < 1.0:
            sub += 1
        else:
            longer += 1
    return FlowSummary(label=label, sub_second_short=sub,
                       longer_short=longer, long_lived=long_lived)


def envelope(low: float, high: float, margin: float) -> Envelope:
    span = max(high - low, 0.05 * max(abs(low), abs(high), 1.0))
    pad = margin * span
    return Envelope(low=low - pad, high=high + pad)


def envelopes(extraction: StreamExtraction,
              margin: float) -> dict[PointKey, Envelope]:
    """``PhysicalWhitelist.fit``: min/max over each whole series."""
    return {key: envelope(min(series.values), max(series.values),
                          margin)
            for key, series in extract_series(extraction).items()
            if len(series)}


def correlate(verdicts: Iterable[CyberVerdict],
              violations: Iterable[PhysicalViolation],
              cyber_threshold: float) -> list[CombinedAlert]:
    """``CombinedDetector.detect``'s alert loop."""
    cyber_verdicts = {verdict.connection: verdict
                      for verdict in verdicts}
    violations_by_station: dict[object, list[PhysicalViolation]] = {}
    for violation in violations:
        violations_by_station.setdefault(
            violation.key.station, []).append(violation)
    alerts: list[CombinedAlert] = []
    for connection, verdict in sorted(cyber_verdicts.items(),
                                      key=lambda item: str(item[0])):
        station = connection[1] if isinstance(connection, tuple) \
            else connection
        physical = tuple(violations_by_station.get(station, ()))
        if verdict.is_alert(cyber_threshold) or physical:
            alerts.append(CombinedAlert(connection=connection,
                                        cyber=verdict,
                                        physical=physical))
    return alerts


def extract_apdus(source: object, per_packet: bool = True,
                  parser: Any = None,
                  protocol: ProtocolSpec | None = None
                  ) -> StreamExtraction:
    """``extract_apdus``: one loop over the packets, in file order."""
    packets, names = resolve_source(source)
    spec = protocol if protocol is not None else get_protocol("iec104")
    parser = parser if parser is not None else spec.new_parser()
    extraction = StreamExtraction(events=[], parser=parser)
    reassemblers: dict[object, StreamReassembler] = {}
    ports = spec.ports

    def name_for(address: object, port: int) -> str:
        name = names.get(address)
        return name if name is not None else f"{address}:{port}"

    for packet in packets:
        if (packet.tcp.src_port not in ports
                and packet.tcp.dst_port not in ports):
            continue
        src = name_for(packet.ip.src, packet.tcp.src_port)
        dst = name_for(packet.ip.dst, packet.tcp.dst_port)
        if per_packet:
            data = packet.payload
        else:
            reassembler = reassemblers.setdefault(packet.flow_key,
                                                  StreamReassembler())
            data = reassembler.feed(packet.tcp.seq, packet.payload,
                                    syn=packet.flags.syn,
                                    fin=packet.flags.fin)
        if not data:
            continue
        for result in parser.parse_stream(data, link_key=(src, dst)):
            if result.ok:
                extraction.events.append(ApduEvent(
                    time_us=packet.time_us, src=src, dst=dst,
                    apdu=result.apdu, compliant=result.compliant,
                    wire_bytes=packet.wire_length))
            else:
                extraction.failures.append(
                    (packet.time_us, src, dst, result))
    extraction.retransmissions = sum(
        reassembler.stats.retransmissions
        for reassembler in reassemblers.values())
    return extraction
