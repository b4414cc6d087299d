"""Incremental analyzers: the batch analyses, fed one item at a time.

Each analyzer consumes the pipeline's dispatch stream and keeps, per
key, the same incremental state the batch analysis in
``repro.analysis`` folds a finished capture through. The kernels are
defined once, there:

* :class:`LiveFlowTable` — §6.2 flow tracking; evicted flows fold
  into a :class:`~repro.analysis.flows.FlowTally`, the Table 3
  classifier ``FlowAnalysis.summary`` uses;
* :class:`OnlineChains` — one
  :class:`~repro.analysis.markov.ChainBuilder` per connection, the
  builder ``MarkovChain.from_tokens`` folds tokens through, tracking
  the Fig. 13 (nodes, edges) plane;
* :class:`RollingSessionWindows` — the §6.3 session features over a
  sliding time window. This one keeps its own arithmetic: the batch
  ``session_features`` averages gaps with numpy over whole events.

Evicted state folds into cumulative tallies, so totals remain exact
even after the per-key state is reclaimed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any

from ..analysis.apdu_stream import ApduEvent
from ..analysis.flows import FlowSummary, FlowTally
from ..analysis.markov import ChainBuilder, MarkovChain
from ..iec104.apci import IFrame, SFrame
from ..netstack.flows import FlowTable
from ..netstack.packet import CapturedPacket
from ..simnet.clock import Ticks
from .eviction import EvictionStats


class StreamAnalyzer:
    """Base class: analyzers override the hooks they care about."""

    name = "analyzer"

    def on_packet(self, packet: CapturedPacket) -> None:
        """One IEC 104 packet (pre-decode; flow-level analyzers)."""

    def on_event(self, event: ApduEvent) -> None:
        """One decoded APDU event (post-decode analyzers)."""

    def on_failure(self, time_us: Ticks, src: str, dst: str,
                   result: Any) -> None:
        """One frame that failed to parse: the parser's result, with
        ``apdu`` None and ``error`` set. Called at decode time, in
        arrival order; the pipeline itself keeps no failure record."""

    def evict(self, horizon_us: Ticks, stats: EvictionStats) -> None:
        """Reclaim state last touched before ``horizon_us``."""

    def snapshot(self) -> dict:
        """Monitor-friendly summary of the current state."""
        return {}


class LiveFlowTable(StreamAnalyzer):
    """Online §6.2 flow table.

    Packets accumulate into live flow records; the eviction sweep
    closes idle flows and folds them into a cumulative tally. The
    :meth:`summary` therefore always covers every flow ever seen —
    closed and live — matching the batch ``FlowAnalysis.summary`` when
    no 4-tuple is reused across an eviction boundary.
    """

    name = "flows"

    def __init__(self) -> None:
        self._table = FlowTable()
        self._tally = FlowTally()
        self.closed_count = 0

    def on_packet(self, packet: CapturedPacket) -> None:
        self._table.add(packet)

    @property
    def live_flows(self) -> int:
        return len(self._table)

    def evict(self, horizon_us: Ticks, stats: EvictionStats) -> None:
        for record in self._table.pop_idle(horizon_us):
            self._tally.add(record)
            self.closed_count += 1
            stats.flows_evicted += 1

    def summary(self, label: str = "stream") -> FlowSummary:
        """Table 3 over everything seen so far (closed + live)."""
        tally = replace(self._tally)
        for record in self._table.flows:
            tally.add(record)
        return tally.summary(label)

    def snapshot(self) -> dict:
        summary = self.summary()
        return {
            "live": self.live_flows,
            "closed": self.closed_count,
            "sub_second_short": summary.sub_second_short,
            "longer_short": summary.longer_short,
            "long_lived": summary.long_lived,
        }


class OnlineChains(StreamAnalyzer):
    """Per-connection Markov-chain growth (§6.3.1, Fig. 13)."""

    name = "chains"

    def __init__(self) -> None:
        self._states: dict[tuple[str, str], ChainBuilder] = {}
        #: Directional (src, dst) → undirected connection, so the
        #: sort/startswith normalization runs once per host pair
        #: instead of once per event.
        self._connections: dict[tuple[str, str], tuple[str, str]] = {}
        self.evicted_count = 0

    def on_event(self, event: ApduEvent) -> None:
        pair = (event.src, event.dst)
        connection = self._connections.get(pair)
        if connection is None:
            connection = event.connection
            self._connections[pair] = connection
        state = self._states.get(connection)
        if state is None:
            state = ChainBuilder()
            self._states[connection] = state
        state.observe(event.token, event.time_us)

    @property
    def connection_count(self) -> int:
        return len(self._states)

    def sizes(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Fig. 13 plane: connection -> (nodes, edges)."""
        return {connection: state.size
                for connection, state in sorted(self._states.items())}

    def chain(self, connection: tuple[str, str]) -> MarkovChain | None:
        state = self._states.get(connection)
        return state.chain() if state is not None else None

    def evict(self, horizon_us: Ticks, stats: EvictionStats) -> None:
        dead = [connection for connection, state in self._states.items()
                if state.last_time_us < horizon_us]
        for connection in dead:
            del self._states[connection]
            self.evicted_count += 1
            stats.chains_evicted += 1

    def snapshot(self) -> dict:
        sizes = sorted(
            ((nodes, edges, f"{a}-{b}") for (a, b), (nodes, edges)
             in self.sizes().items()), reverse=True)
        return {
            "connections": self.connection_count,
            "evicted": self.evicted_count,
            "largest": [
                {"connection": name, "nodes": nodes, "edges": edges}
                for nodes, edges, name in sizes[:5]],
        }


@dataclass
class RollingFeatures:
    """The paper's five selected features over one rolling window."""

    session: tuple[str, str]
    dt: float
    num: int
    pct_i: float
    pct_s: float
    pct_u: float


@dataclass
class _SessionWindow:
    #: (time_us, kind, wire_bytes); kind is "I", "S" or "U".
    entries: deque = field(default_factory=deque)
    last_time_us: Ticks = 0

    def trim(self, horizon_us: Ticks) -> None:
        entries = self.entries
        while entries and entries[0][0] < horizon_us:
            entries.popleft()


class RollingSessionWindows(StreamAnalyzer):
    """§6.3 session features over a sliding stream-time window."""

    name = "sessions"

    def __init__(self, window_us: Ticks = 300 * 1_000_000,
                 max_entries_per_session: int = 10_000):
        self.window_us = window_us
        self.max_entries = max_entries_per_session
        self._windows: dict[tuple[str, str], _SessionWindow] = {}
        self.evicted_count = 0
        #: Entries discarded because a session exceeded ``max_entries``
        #: inside one window (bounded-memory guard).
        self.overflow_drops = 0

    def on_event(self, event: ApduEvent) -> None:
        window = self._windows.get(event.session)
        if window is None:
            window = _SessionWindow()
            self._windows[event.session] = window
        if isinstance(event.apdu, IFrame):
            kind = "I"
        elif isinstance(event.apdu, SFrame):
            kind = "S"
        else:
            kind = "U"
        window.entries.append((event.time_us, kind, event.wire_bytes))
        window.last_time_us = event.time_us
        window.trim(event.time_us - self.window_us)
        while len(window.entries) > self.max_entries:
            window.entries.popleft()
            self.overflow_drops += 1

    @property
    def session_count(self) -> int:
        return len(self._windows)

    def features(self, session: tuple[str, str]
                 ) -> RollingFeatures | None:
        window = self._windows.get(session)
        if window is None or not window.entries:
            return None
        entries = list(window.entries)
        times = [entry[0] for entry in entries]
        gaps = [b - a for a, b in zip(times, times[1:])]
        dt = (sum(gaps) / len(gaps)) / 1_000_000 if gaps else 0.0
        total = len(entries)
        i_count = sum(1 for entry in entries if entry[1] == "I")
        s_count = sum(1 for entry in entries if entry[1] == "S")
        return RollingFeatures(
            session=session, dt=dt, num=total,
            pct_i=i_count / total, pct_s=s_count / total,
            pct_u=(total - i_count - s_count) / total)

    def evict(self, horizon_us: Ticks, stats: EvictionStats) -> None:
        dead = []
        for session, window in self._windows.items():
            window.trim(horizon_us)
            if not window.entries and window.last_time_us < horizon_us:
                dead.append(session)
        for session in dead:
            del self._windows[session]
            self.evicted_count += 1
            stats.sessions_evicted += 1

    def snapshot(self) -> dict:
        return {
            "sessions": self.session_count,
            "evicted": self.evicted_count,
            "overflow_drops": self.overflow_drops,
        }
