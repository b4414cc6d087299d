"""Connection lifecycle timelines.

Reconstructs, per (server, outstation) connection, the sequence of
operationally meaningful events — TCP establishment and teardown,
STARTDT, general interrogations, switchover promotions, backup
rejections — with timestamps. This is the narrative form of the
paper's Figs. 9 and 16: instead of a Markov chain that abstracts time
away, a timeline shows *when* the backup was refused or the standby
took over.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..iec104.apci import IFrame, UFrame
from ..iec104.constants import Cause, TypeID, UFunction
from .apdu_stream import StreamExtraction, is_iec104
from .sources import PacketSource, resolve_source


class TimelineEvent(enum.Enum):
    TCP_SYN = "TCP connection attempt"
    TCP_FIN = "TCP graceful close"
    TCP_RST = "TCP reset"
    STARTDT = "data transfer started"
    STOPDT = "data transfer stopped"
    INTERROGATION = "general interrogation"
    FIRST_DATA = "first measurement report"
    KEEPALIVE_UNANSWERED = "TESTFR act without con"
    SWITCHOVER = "secondary promoted to primary"


@dataclass(frozen=True)
class TimelineEntry:
    """One lifecycle event; ``time_us`` is canonical integer
    microseconds."""

    time_us: int
    event: TimelineEvent
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        seconds = self.time_us / 1_000_000
        return f"t={seconds:10.3f}s  {self.event.value}{suffix}"


@dataclass
class ConnectionTimeline:
    """All lifecycle events of one (server, outstation) connection."""

    connection: tuple[str, str]
    entries: list[TimelineEntry] = field(default_factory=list)

    def add(self, time_us: int, event: TimelineEvent,
            detail: str = "") -> None:
        self.entries.append(TimelineEntry(time_us=time_us, event=event,
                                          detail=detail))

    def sort(self) -> None:
        self.entries.sort(key=lambda entry: entry.time_us)

    def events(self, kind: TimelineEvent) -> list[TimelineEntry]:
        return [entry for entry in self.entries if entry.event is kind]

    @property
    def reject_count(self) -> int:
        """Backup-rejection pattern: teardowns (RST *or* FIN — the
        paper saw both) racing the connection attempts."""
        return (len(self.events(TimelineEvent.TCP_RST))
                + len(self.events(TimelineEvent.TCP_FIN)))

    @property
    def has_switchover(self) -> bool:
        return bool(self.events(TimelineEvent.SWITCHOVER))

    def render(self, limit: int = 20) -> str:
        lines = [f"{self.connection[0]}-{self.connection[1]}:"]
        lines.extend(f"  {entry}" for entry in self.entries[:limit])
        if len(self.entries) > limit:
            lines.append(f"  ... {len(self.entries) - limit} more "
                         "events")
        return "\n".join(lines)


def _host_pair(src: str, dst: str) -> tuple[str, str]:
    if src.startswith("C") and not dst.startswith("C"):
        return (src, dst)
    if dst.startswith("C") and not src.startswith("C"):
        return (dst, src)
    first, second = sorted((src, dst))
    return (first, second)


def build_timelines(source: PacketSource,
                    extraction: StreamExtraction
                    ) -> dict[tuple[str, str], ConnectionTimeline]:
    """Reconstruct lifecycle timelines from packets + decoded APDUs.

    Capture-first: ``source`` may be a capture object, a pcap reader
    or a plain packet iterable.
    """
    packets, names = resolve_source(source)
    timelines: dict[tuple[str, str], ConnectionTimeline] = {}

    def timeline_for(pair: tuple[str, str]) -> ConnectionTimeline:
        timeline = timelines.get(pair)
        if timeline is None:
            timeline = ConnectionTimeline(connection=pair)
            timelines[pair] = timeline
        return timeline

    # TCP-level events straight from the packets.
    for packet in packets:
        if not is_iec104(packet):
            continue
        flags = packet.flags
        if not (flags.syn or flags.fin or flags.rst):
            continue
        src = names.get(packet.ip.src, str(packet.ip.src))
        dst = names.get(packet.ip.dst, str(packet.ip.dst))
        pair = _host_pair(src, dst)
        timeline = timeline_for(pair)
        if flags.syn and not flags.ack:
            timeline.add(packet.time_us, TimelineEvent.TCP_SYN,
                         detail=f"from {src}")
        elif flags.rst:
            timeline.add(packet.time_us, TimelineEvent.TCP_RST,
                         detail=f"by {src}")
        elif flags.fin:
            timeline.add(packet.time_us, TimelineEvent.TCP_FIN,
                         detail=f"by {src}")

    # Application-level events from decoded APDUs.
    saw_keepalive: dict[tuple[str, str], bool] = {}
    saw_data: dict[tuple[str, str], bool] = {}
    pending_testfr: dict[tuple[str, str], int | None] = {}
    for event in sorted(extraction.events,
                        key=lambda event: event.time_us):
        pair = _host_pair(event.src, event.dst)
        timeline = timeline_for(pair)
        apdu = event.apdu
        if isinstance(apdu, UFrame):
            if apdu.function is UFunction.STARTDT_ACT:
                detail = ""
                if saw_keepalive.get(pair):
                    timeline.add(event.time_us,
                                 TimelineEvent.SWITCHOVER,
                                 detail="keep-alives preceded STARTDT")
                timeline.add(event.time_us, TimelineEvent.STARTDT,
                             detail)
            elif apdu.function is UFunction.STOPDT_ACT:
                timeline.add(event.time_us, TimelineEvent.STOPDT)
            elif apdu.function is UFunction.TESTFR_ACT:
                saw_keepalive[pair] = True
                pending_testfr[pair] = event.time_us
            elif apdu.function is UFunction.TESTFR_CON:
                pending_testfr[pair] = None
        elif isinstance(apdu, IFrame):
            asdu = apdu.asdu
            if asdu.type_id is TypeID.C_IC_NA_1 \
                    and asdu.cause is Cause.ACTIVATION:
                timeline.add(event.time_us,
                             TimelineEvent.INTERROGATION,
                             detail=f"by {event.src}")
            elif not asdu.is_command and not saw_data.get(pair):
                saw_data[pair] = True
                timeline.add(event.time_us, TimelineEvent.FIRST_DATA,
                             detail=asdu.token)

    # Unanswered keep-alives (the Fig. 9 probe the RTU killed).
    for pair, pending in pending_testfr.items():
        if pending is not None:
            timelines[pair].add(pending,
                                TimelineEvent.KEEPALIVE_UNANSWERED)

    for timeline in timelines.values():
        timeline.sort()
    return timelines


def rejected_backup_timelines(
        timelines: dict[tuple[str, str], ConnectionTimeline],
        min_rejects: int = 3) -> list[ConnectionTimeline]:
    """Timelines showing the Fig. 9 reject pattern."""
    return sorted((timeline for timeline in timelines.values()
                   if timeline.reject_count >= min_rejects
                   and not timeline.events(TimelineEvent.FIRST_DATA)),
                  key=lambda timeline: -timeline.reject_count)


def switchover_timelines(
        timelines: dict[tuple[str, str], ConnectionTimeline]
        ) -> list[ConnectionTimeline]:
    """Timelines showing the Fig. 16 promotion pattern."""
    return [timeline for timeline in timelines.values()
            if timeline.has_switchover]
