"""TCP flow analysis (paper Section 6.2, Table 3, Figs. 8-9).

Splits connections into short-lived (SYN and FIN/RST both observed)
versus long-lived, builds the log-scale duration histogram of Fig. 8,
and identifies the hosts that reject backup connections (Fig. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..netstack.addresses import IPv4Address
from ..netstack.flows import FlowKind, FlowRecord, FlowTable
from ..netstack.packet import Endpoint
from .sources import PacketSource, resolve_source


@dataclass(frozen=True)
class FlowSummary:
    """The four rows of paper Table 3 for one dataset."""

    label: str
    sub_second_short: int
    longer_short: int
    long_lived: int

    @property
    def short_lived(self) -> int:
        return self.sub_second_short + self.longer_short

    @property
    def total(self) -> int:
        return self.short_lived + self.long_lived

    @property
    def short_fraction(self) -> float:
        return self.short_lived / self.total if self.total else 0.0

    @property
    def sub_second_fraction_of_short(self) -> float:
        if not self.short_lived:
            return 0.0
        return self.sub_second_short / self.short_lived

    def rows(self) -> list[tuple[str, str]]:
        """Render the Table 3 rows (count and proportion)."""
        def pct(value: float) -> str:
            return f"{100.0 * value:.1f}%"
        short = self.short_lived
        return [
            ("Less-than-one-second short-lived flows",
             f"{self.sub_second_short} "
             f"({pct(self.sub_second_short / short if short else 0.0)})"),
            ("Longer-than-one-second short-lived flows",
             f"{self.longer_short} "
             f"({pct(self.longer_short / short if short else 0.0)})"),
            ("Short-lived flows",
             f"{short} ({pct(self.short_fraction)})"),
            ("Long-lived flows",
             f"{self.long_lived} ({pct(1.0 - self.short_fraction)})"),
        ]


@dataclass
class FlowTally:
    """Table 3 classification folded one flow record at a time.

    The one classification kernel: :meth:`FlowAnalysis.summary` folds
    a finished capture's flows through it, and the streaming
    ``LiveFlowTable`` folds each flow as it is evicted.
    """

    sub_second_short: int = 0
    longer_short: int = 0
    long_lived: int = 0

    def add(self, record: FlowRecord) -> None:
        if record.kind is FlowKind.LONG_LIVED:
            self.long_lived += 1
        elif record.duration < 1.0:
            self.sub_second_short += 1
        else:
            self.longer_short += 1

    def summary(self, label: str) -> FlowSummary:
        return FlowSummary(label=label,
                           sub_second_short=self.sub_second_short,
                           longer_short=self.longer_short,
                           long_lived=self.long_lived)


@dataclass
class RejectingPair:
    """A (server, outstation) pair whose backup connections die young."""

    server: str
    outstation: str
    attempts: int = 0
    rst_count: int = 0
    fin_count: int = 0
    #: Median interval between attempts (the "interval between U
    #: messages" of the paper's cluster-0 analysis; 430 s for C2-O30).
    #: The median is robust to the large gaps between capture days.
    median_interval: float = 0.0


@dataclass
class FlowAnalysis:
    """Full Section 6.2 analysis over one capture."""

    label: str
    flows: list[FlowRecord]
    names: dict[IPv4Address, str] = field(default_factory=dict)

    @classmethod
    def from_packets(cls, label: str,
                     source: PacketSource,
                     iec104_only: bool = True) -> "FlowAnalysis":
        """Build flow records from a capture.

        Capture-first: ``source`` may be the capture object itself, a
        pcap reader, or a plain packet iterable. ``iec104_only`` keeps
        only port-2404 traffic — the paper's captures also carried
        ICCP and C37.118, which its analysis set aside.
        """
        from .apdu_stream import is_iec104
        packets, names = resolve_source(source)
        table = FlowTable()
        for packet in packets:
            if iec104_only and not is_iec104(packet):
                continue
            table.add(packet)
        return cls(label=label, flows=table.flows, names=names)

    def _name(self, endpoint: Endpoint) -> str:
        return self.names.get(endpoint.address,
                              f"{endpoint.address}:{endpoint.port}")

    def summary(self) -> FlowSummary:
        """Paper Table 3 for this capture."""
        tally = FlowTally()
        for flow in self.flows:
            tally.add(flow)
        return tally.summary(self.label)

    def short_lived_durations(self) -> list[float]:
        return [flow.duration for flow in self.flows
                if flow.kind is FlowKind.SHORT_LIVED]

    def duration_histogram(self, bins_per_decade: int = 3,
                           floor: float = 1e-3
                           ) -> list[tuple[float, float, int]]:
        """Log-scale histogram of short-lived durations (Fig. 8).

        Returns (low, high, count) per bin; durations below ``floor``
        are clamped into the first bin.
        """
        durations = self.short_lived_durations()
        if not durations:
            return []
        low_exp = math.floor(math.log10(
            max(floor, min(durations))) * bins_per_decade)
        high_exp = math.ceil(math.log10(
            max(floor, max(durations))) * bins_per_decade)
        edges = [10 ** (exp / bins_per_decade)
                 for exp in range(low_exp, high_exp + 1)]
        if len(edges) < 2:
            edges = [floor, max(durations) + floor]
        counts = [0] * (len(edges) - 1)
        for duration in durations:
            clamped = max(duration, edges[0])
            for index in range(len(counts)):
                if edges[index] <= clamped < edges[index + 1]:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
        return [(edges[i], edges[i + 1], counts[i])
                for i in range(len(counts))]

    def rejecting_pairs(self, min_attempts: int = 3
                        ) -> list[RejectingPair]:
        """The Fig. 9 pathology: hosts refusing backup connections.

        Groups rejected flows (SYN then RST/FIN, no payload exchanged —
        or a lone TESTFR probe) by host pair and reports attempt rates.
        """
        grouped: dict[tuple[str, str], list[FlowRecord]] = {}
        for flow in self.flows:
            if flow.kind is not FlowKind.SHORT_LIVED:
                continue
            payload = (flow.forward.payload_bytes
                       + flow.reverse.payload_bytes)
            # A rejected attempt carries at most one 6-octet U frame.
            if payload > 12:
                continue
            initiator = flow.initiator or flow.key
            server = self._name(initiator.src)
            outstation = self._name(initiator.dst)
            grouped.setdefault((server, outstation), []).append(flow)

        pairs: list[RejectingPair] = []
        for (server, outstation), flows in sorted(grouped.items()):
            if len(flows) < min_attempts:
                continue
            starts = sorted(flow.first_time for flow in flows)
            gaps = sorted(b - a for a, b in zip(starts, starts[1:]))
            median = gaps[len(gaps) // 2] if gaps else 0.0
            pairs.append(RejectingPair(
                server=server, outstation=outstation,
                attempts=len(flows),
                rst_count=sum(1 for flow in flows if flow.saw_rst),
                fin_count=sum(1 for flow in flows
                              if flow.saw_fin and not flow.saw_rst),
                median_interval=median))
        pairs.sort(key=lambda pair: -pair.attempts)
        return pairs
