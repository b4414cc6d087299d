"""From captured packets to APDU event streams.

This is the front half of the paper's pipeline: take the raw capture,
group packets into directional streams, and decode IEC 104 APDUs with
the tolerant parser. Two modes are exposed:

* ``per_packet=True`` (paper-faithful): each packet's payload is parsed
  independently, so TCP retransmissions produce duplicate APDU events —
  exactly the repeated U16/U32 tokens the authors traced back to the
  transport layer in Section 6.3.1;
* ``per_packet=False``: streams are TCP-reassembled first, removing
  retransmissions (the ablation mode).

:func:`extract_apdus` drains a :class:`~repro.stream.pipeline.
StreamPipeline` over the capture, so batch analysis, ``repro
monitor`` and the detector's offline fit share one port filter, one
host-naming rule, one reassembler and one parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..iec104.apci import APDU, IFrame, UFrame
from ..iec104.codec import ParseResult, TolerantParser
from ..iec104.constants import IEC104_PORT, TypeID
from ..netstack.packet import CapturedPacket
from ..protocols.base import ProtocolSpec
from .sources import PacketSource, resolve_source


@dataclass(frozen=True, slots=True)
class ApduEvent:
    """One decoded APDU with its network context.

    ``time_us`` is the canonical capture time in integer microseconds.
    """

    time_us: int
    src: str
    dst: str
    #: The decoded protocol data unit — an IEC 104 :class:`APDU` or,
    #: under the modbus spec, a :class:`~repro.protocols.modbus.
    #: ModbusAdu` (anything with a ``.token`` property).
    apdu: APDU | Any
    compliant: bool = True
    wire_bytes: int = 0

    @property
    def token(self) -> str:
        """Protocol token (paper Table 4 for IEC 104: S, U1..U32,
        I<typeID>; F<fc>/X<fc> for Modbus)."""
        return self.apdu.token

    @property
    def session(self) -> tuple[str, str]:
        """Directional host pair (the paper's *session*)."""
        return (self.src, self.dst)

    @property
    def connection(self) -> tuple[str, str]:
        """Undirected host pair (the paper's *connection*), with the
        control-server name first when recognizable."""
        a, b = sorted((self.src, self.dst))
        if b.startswith("C") and not a.startswith("C"):
            return (b, a)
        return (a, b)


@dataclass
class StreamExtraction:
    """Everything the analysis stages consume.

    The session/connection groupings are memoized: the sessions, markov
    and classification stages each re-group the same event list, so the
    dicts are built once and reused until ``events`` grows (appends
    invalidate the caches; events are only ever appended, never edited
    in place).
    """

    events: list[ApduEvent]
    #: The spec-built parser (duck-typed; TolerantParser for IEC 104).
    parser: TolerantParser | Any
    #: Parse failures as (time_us, src, dst, result).
    failures: list[tuple[int, str, str, ParseResult]] = (
        field(default_factory=list))
    retransmissions: int = 0
    #: Memoized groupings, tagged with the event count they were built
    #: from so appends invalidate them.
    _sessions: dict[tuple[str, str], list[ApduEvent]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _sessions_size: int = field(default=-1, init=False, repr=False,
                                compare=False)
    _connections: dict[tuple[str, str], list[ApduEvent]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _connections_size: int = field(default=-1, init=False, repr=False,
                                   compare=False)

    def by_session(self) -> dict[tuple[str, str], list[ApduEvent]]:
        if (self._sessions is None
                or self._sessions_size != len(self.events)):
            sessions: dict[tuple[str, str], list[ApduEvent]] = {}
            for event in self.events:
                sessions.setdefault(event.session, []).append(event)
            self._sessions = sessions
            self._sessions_size = len(self.events)
        return self._sessions

    def by_connection(self) -> dict[tuple[str, str], list[ApduEvent]]:
        if (self._connections is None
                or self._connections_size != len(self.events)):
            connections: dict[tuple[str, str], list[ApduEvent]] = {}
            for event in self.events:
                connections.setdefault(event.connection, []).append(event)
            self._connections = connections
            self._connections_size = len(self.events)
        return self._connections


def is_iec104(packet: CapturedPacket) -> bool:
    """IEC 104 traffic filter (port 2404 either side).

    The paper's captures also contained ICCP and C37.118; this is the
    filter that isolates the protocol under study.
    """
    return IEC104_PORT in (packet.tcp.src_port, packet.tcp.dst_port)


class _Collector:
    """The drain's analyzer: keeps every event and failure, in the
    order the pipeline hands them over.

    It has the :class:`~repro.stream.analyzers.StreamAnalyzer` hooks a
    drain calls, without subclassing it: ``repro.stream`` imports this
    module.
    """

    def __init__(self) -> None:
        self.events: list[ApduEvent] = []
        self.failures: list[tuple[int, str, str, ParseResult]] = []
        # The event hook is the list's own append: no Python frame per
        # event on the batch path.
        self.on_event = self.events.append

    def on_packet(self, packet: CapturedPacket) -> None:
        pass

    def on_failure(self, time_us: int, src: str, dst: str,
                   result: ParseResult) -> None:
        self.failures.append((time_us, src, dst, result))


def extract_apdus(source: PacketSource,
                  per_packet: bool = True,
                  parser: TolerantParser | Any | None = None,
                  protocol: ProtocolSpec | None = None
                  ) -> StreamExtraction:
    """Decode every APDU of one protocol in ``source``.

    ``source`` is Capture-first: pass the capture object itself (its
    ``host_names()`` map the addresses to logical names C1, O17, ...),
    a pcap/pcapng reader, or a plain packet iterable. ``protocol``
    picks the :class:`~repro.protocols.base.ProtocolSpec` whose ports
    and parser apply (default IEC 104); packets on other ports are
    ignored, as the paper did with ICCP/C37.118.

    The packets are streamed through a :class:`~repro.stream.pipeline.
    StreamPipeline` with a reorder window of 0, so ``events`` keep
    arrival order, and ``failures`` keeps every frame that failed to
    parse.
    """
    # repro.stream imports this module, so it is imported on use.
    from ..stream.ingest import ListSource
    from ..stream.pipeline import StreamPipeline

    packets, names = resolve_source(source)
    collector = _Collector()
    pipeline = StreamPipeline(ListSource(packets), names=names,
                              analyzers=[collector],
                              reassemble=not per_packet, parser=parser,
                              reorder_window_us=0, protocol=protocol)
    pipeline.run_until_exhausted()
    return StreamExtraction(events=collector.events,
                            parser=pipeline.parser,
                            failures=collector.failures,
                            retransmissions=pipeline.retransmissions)


def tokenize(events: Iterable[ApduEvent]) -> list[str]:
    """Token sequence per paper Table 4 (time-ordered)."""
    ordered = sorted(events, key=lambda event: event.time_us)
    return [event.token for event in ordered]


def has_interrogation(tokens: Iterable[str]) -> bool:
    """True when the sequence contains the I100 interrogation command."""
    return any(token == "I100" for token in tokens)


def u_function_counts(events: Iterable[ApduEvent]) -> dict[str, int]:
    """Count U-format tokens (U1..U32) in a stream."""
    counts: dict[str, int] = {}
    for event in events:
        if isinstance(event.apdu, UFrame):
            token = event.apdu.token
            counts[token] = counts.get(token, 0) + 1
    return counts


def observed_ioas(events: Iterable[ApduEvent],
                  source: str | None = None) -> set[int]:
    """Distinct field-device addresses observed in monitor I-frames.

    ``source`` restricts to frames sent by one host (the Fig. 6 clouds
    count IOAs reported by each outstation). Command ASDUs (C_*, P_*,
    F_*) are excluded: their addresses (e.g. the station-wide IOA 0 of
    an interrogation) are not field devices.
    """
    ioas: set[int] = set()
    for event in events:
        if not isinstance(event.apdu, IFrame):
            continue
        if event.apdu.asdu.is_command:
            continue
        if source is not None and event.src != source:
            continue
        for obj in event.apdu.asdu.objects:
            ioas.add(obj.address)
    return ioas


def cause_distribution(events) -> dict["Cause", int]:
    """ASDU counts per cause of transmission.

    The COT is the "why" of each message (§4): periodic reporting,
    spontaneous threshold crossings, interrogation responses,
    command activations. Its distribution separates reporting styles —
    the paper's cluster 1 is characterized by spontaneous COTs.
    """
    from ..iec104.constants import Cause  # local to avoid cycle noise
    if isinstance(events, StreamExtraction):
        events = events.events
    counts: dict[Cause, int] = {}
    for event in events:
        if isinstance(event.apdu, IFrame):
            cause = event.apdu.asdu.cause
            counts[cause] = counts.get(cause, 0) + 1
    return counts


def observed_type_ids(events) -> dict[TypeID, int]:
    """ASDU counts per typeID (the basis of paper Table 7).

    Accepts an iterable of :class:`ApduEvent` or a whole
    :class:`StreamExtraction`.
    """
    if isinstance(events, StreamExtraction):
        events = events.events
    counts: dict[TypeID, int] = {}
    for event in events:
        if isinstance(event.apdu, IFrame):
            type_id = event.apdu.asdu.type_id
            counts[type_id] = counts.get(type_id, 0) + 1
    return counts
