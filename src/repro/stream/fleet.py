"""Fleet monitoring: N per-link pipelines under one supervisor.

The paper's vantage is a control center watching ~27 substations at
once; one :class:`~repro.stream.pipeline.StreamPipeline` models one
link. :class:`FleetSupervisor` runs many of them — polled round-robin,
each on its own capture clock — and aggregates the per-link state into
a :class:`~repro.stream.snapshots.FleetSnapshot`: summed totals,
per-analyzer rollups, per-link health and the top-K anomaly links.

Two feeding shapes:

* **one file per link** — ``supervisor.add_link(pipeline)`` with each
  pipeline owning its own tail source (``repro monitor --link
  NAME=PATH ...``);
* **one merged file for the whole fleet** — :class:`LinkDemux` splits
  a single capture into per-link substreams by (src, dst) endpoint
  pair, discovering links as their first packet arrives
  (``repro monitor capture.pcapng --demux``). The demux routes the
  *original* records, so a demuxed link's pipeline sees byte-for-byte
  what a standalone run over a pre-split file would see — the parity
  the ``tests/stream/test_fleet.py`` suite pins.

:func:`open_fleet` builds either shape from capture files, for the CLI
and every shard worker; :func:`fleet_view` is the one fleet view, in
process and sharded alike.

Health is judged by the T3-scaled eviction signal against the *fleet*
clock (the max of the member clocks): a healthy IEC 104 link is never
silent longer than t3 (a TESTFR keep-alive is due then), so a link
lagging more than t3 behind the fleet is ``idle`` and one lagging more
than the eviction timeout (3 x t3) is ``dead``. Health lives only in
the fleet view — a :class:`~repro.stream.snapshots.LinkSnapshot` is
fleet-relative-free by design.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping, Sequence

from ..iec104.constants import ProtocolTimers
from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket
from ..netstack.pcap import PcapRecord
from ..protocols.base import detect_protocol
from ..simnet.clock import Ticks, seconds_to_ticks
from .eviction import default_idle_timeout_us
from .ingest import (PcapngTailSource, PcapTailSource, Source, SourceItem,
                     open_capture)
from .pipeline import StreamPipeline
from .snapshots import FleetSnapshot, FleetTally, LinkHealth, LinkSnapshot

#: Builds the pipeline for one fleet link, fed by a demuxed substream
#: or by the link's own capture: ``factory(link_name, source)``.
PipelineFactory = Callable[[str, Source], StreamPipeline]


#: Fleet-clock lag at which a link is ``idle``: one t3 period (20 s —
#: a keep-alive was due and has not been seen).
IDLE_AFTER_US: Ticks = seconds_to_ticks(ProtocolTimers().t3)

#: Lag at which a link is ``dead``: the eviction timeout (3 x t3 — the
#: point at which the pipeline reclaims the link's state as dead).
DEAD_AFTER_US: Ticks = default_idle_timeout_us()


def link_health(lag_us: Ticks) -> LinkHealth:
    """A link's health from its lag behind the fleet clock."""
    if lag_us >= DEAD_AFTER_US:
        return LinkHealth.DEAD
    if lag_us >= IDLE_AFTER_US:
        return LinkHealth.IDLE
    return LinkHealth.LIVE


def fleet_view(tally: FleetTally, links: tuple[LinkSnapshot, ...],
               now_us: Ticks, unrouted: int) -> FleetSnapshot:
    """The fleet snapshot over ``links``: each link's health against
    the fleet clock ``now_us``, the members folded into ``tally`` (a
    fresh one when the links are new objects each time)."""
    for link in links:
        tally.apply(link)
    health = {link.link: link_health(now_us - link.time_us).value
              for link in links}
    return tally.snapshot(links, now_us, health, unrouted)


def check_feed(path: str | None,
               links: Sequence[tuple[str, str]]) -> None:
    """A fleet reads one merged capture or one capture per link."""
    if (path is None) == (not links):
        raise ValueError("a fleet needs exactly one of path / links")


class DemuxLinkSource:
    """One link's substream of a demuxed capture (a Source).

    Items are queued by the owning :class:`LinkDemux` as it pumps the
    merged parent source; the per-link pipeline drains them here. The
    substream is exhausted once the parent is exhausted and the queue
    has drained.

    ``protocol_hint`` is the port-based auto-detect result from the
    link's first routed packet (a registered spec name, or ``None``
    when no spec claims the ports). Pipeline factories consult it
    when no explicit per-link protocol was configured; it is a plain
    string so the hint survives pickling and every sharded worker —
    each demuxing the whole capture — derives the identical hint.

    Only :class:`LinkDemux` builds one, from its parent source and
    host-name map. The substream holds those, not the demux, so a
    dropped fleet is no reference cycle and is freed without the
    cyclic collector.
    """

    def __init__(self, parent: Source, names: dict[IPv4Address, str],
                 name: str):
        self._parent = parent
        self._names = names
        self.name = name
        self.protocol_hint: str | None = None
        self._queue: deque = deque()

    def _push(self, item: SourceItem) -> None:
        self._queue.append(item)

    def host_names(self) -> dict[IPv4Address, str]:
        return dict(self._names)

    def poll(self, max_items: int) -> list[SourceItem]:
        queue = self._queue
        batch = [queue.popleft()
                 for _ in range(min(max_items, len(queue)))]
        return batch

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def exhausted(self) -> bool:
        return self._parent.exhausted and not self._queue


class LinkDemux:
    """Split one merged capture into per-link substreams.

    A *link* is the unordered (src, dst) endpoint pair of a packet's
    IPv4 addresses, named through the host-name map when available
    (``"C1-O12"``) and by dotted quads otherwise. :meth:`pump` pulls a
    batch from the parent source, decodes each record just far enough
    to route it, and queues the **original item** on the link's
    substream — the per-link pipeline re-frames it itself, so its
    stage counters match a standalone run over a pre-split file
    exactly. Frames that do not decode to TCP/IPv4 — other traffic
    and malformed frames alike — match no link and count as
    ``unrouted``.

    ``accept`` restricts the demux to a subset of links: a predicate
    over the link *name*, consulted before any substream is created.
    Rejected frames count as ``foreign`` — they belong to a link some
    other demux owns (the sharded fleet runs one whole-file demux per
    worker, each accepting only its own shard), which is a different
    condition from ``unrouted`` (no link at all). The name is derived
    before the predicate runs, so every demux over the same capture
    agrees frame-for-frame on the routed/foreign/unrouted partition.
    """

    def __init__(self, source: Source,
                 names: dict[IPv4Address, str] | None = None,
                 accept: Callable[[str], bool] | None = None):
        self.source = source
        if names is None:
            host_names = getattr(source, "host_names", None)
            names = dict(host_names()) if callable(host_names) else {}
        self.names = names
        #: ``names`` keyed by address value, as the pipeline keeps it.
        self._names_by_value = {address.value: name
                                for address, name in names.items()}
        self.accept = accept
        self._links: dict[str, DemuxLinkSource] = {}
        self._new: list[str] = []
        self.routed = 0
        self.unrouted = 0
        self.foreign = 0

    def link_name(self, packet: CapturedPacket) -> str:
        names = self._names_by_value
        ip = packet.ip
        src = names.get(ip.src.value)
        if src is None:
            src = str(ip.src)
        dst = names.get(ip.dst.value)
        if dst is None:
            dst = str(ip.dst)
        return f"{src}-{dst}" if src <= dst else f"{dst}-{src}"

    def _route(self, item: SourceItem) -> None:
        if isinstance(item, CapturedPacket):
            packet: CapturedPacket | None = item
        elif isinstance(item, PcapRecord):
            packet = CapturedPacket.decode(item.time_us, item.data)
        else:
            packet = None
        if packet is None:
            self.unrouted += 1
            return
        name = self.link_name(packet)
        if self.accept is not None and not self.accept(name):
            self.foreign += 1
            return
        link = self._links.get(name)
        if link is None:
            link = DemuxLinkSource(self.source, self.names, name)
            # Port-based protocol auto-detect, decided once by the
            # link's first routed packet (deterministic: every demux
            # over the same capture sees the same first packet).
            spec = detect_protocol(packet.tcp.src_port,
                                   packet.tcp.dst_port)
            link.protocol_hint = spec.name if spec is not None \
                else None
            self._links[name] = link
            self._new.append(name)
        link._push(item)
        self.routed += 1

    def pump(self, max_items: int = 512) -> int:
        """Pull one batch from the parent and route it; return its
        size (0 when the parent had nothing new)."""
        batch = self.source.poll(max_items)
        for item in batch:
            self._route(item)
        return len(batch)

    def new_links(self) -> list[str]:
        """Names discovered since the last call (discovery order)."""
        new = self._new
        self._new = []
        return new

    def link_source(self, name: str) -> DemuxLinkSource:
        return self._links[name]

    @property
    def link_names(self) -> list[str]:
        return sorted(self._links)

    @property
    def exhausted(self) -> bool:
        """Parent drained and every substream fully consumed."""
        return (self.source.exhausted
                and not any(link.pending
                            for link in self._links.values()))


class FleetSupervisor:
    """Run N per-link pipelines round-robin and aggregate their state.

    Links are either registered up front (:meth:`add_link`, one
    pipeline per capture file) or discovered by a :class:`LinkDemux`
    (``demux=`` plus a ``pipeline_factory`` that builds the pipeline
    for each newly seen endpoint pair). :meth:`step` performs one
    supervision round: pump the demux (if any), instantiate pipelines
    for newly discovered links, then give every pipeline one bounded
    batch. All analysis stays on stream time; the supervisor adds no
    clock of its own — ``now_us`` is the max of the member clocks.

    The supervisor has no LEARN→DETECT switch of its own: each link's
    detector flips itself at the boundary its pipeline factory gave
    it, so a link discovered late learns nothing past the boundary.
    """

    def __init__(self, demux: LinkDemux | None = None,
                 pipeline_factory: PipelineFactory | None = None,
                 demux_batch: int = 512):
        if demux is not None and pipeline_factory is None:
            raise ValueError(
                "a demux-fed fleet needs a pipeline_factory")
        self._pipelines: dict[str, StreamPipeline] = {}
        self._order: list[str] = []
        self._demux = demux
        self._factory = pipeline_factory
        self.demux_batch = demux_batch
        #: The running rollup: each snapshot applies only the links
        #: whose snapshot object changed since the last one.
        self._tally = FleetTally()
        #: Captures :func:`open_fleet` opened for this fleet.
        self._captures: list[PcapTailSource | PcapngTailSource] = []

    # -- membership ---------------------------------------------------

    def add_link(self, pipeline: StreamPipeline,
                 name: str | None = None) -> StreamPipeline:
        """Register a pipeline as one fleet link (returns it).

        ``name`` overrides the pipeline's own ``link`` label; one of
        the two must be non-empty and fleet-unique.
        """
        if name is not None:
            pipeline.link = name
        if not pipeline.link:
            raise ValueError("a fleet link needs a name")
        if pipeline.link in self._pipelines:
            raise ValueError(f"duplicate link {pipeline.link!r}")
        self._pipelines[pipeline.link] = pipeline
        self._order.append(pipeline.link)
        return pipeline

    @property
    def links(self) -> list[str]:
        """Link names, sorted (the snapshot order)."""
        return sorted(self._pipelines)

    @property
    def link_count(self) -> int:
        return len(self._pipelines)

    def pipeline(self, name: str) -> StreamPipeline:
        return self._pipelines[name]

    # -- driving ------------------------------------------------------

    def _absorb_new_links(self) -> None:
        assert self._demux is not None and self._factory is not None
        for name in self._demux.new_links():
            source = self._demux.link_source(name)
            self.add_link(self._factory(name, source), name=name)

    def step(self) -> int:
        """One supervision round; returns items moved anywhere."""
        moved = 0
        if self._demux is not None:
            moved += self._demux.pump(self.demux_batch)
            self._absorb_new_links()
        for name in self._order:
            moved += self._pipelines[name].step()
        return moved

    def run_until_exhausted(self) -> int:
        """Drain finite sources completely; return items moved."""
        total = 0
        while True:
            moved = self.step()
            total += moved
            if not moved:
                break
        self.flush()
        return total

    def flush(self) -> None:
        for pipeline in self._pipelines.values():
            pipeline.flush()

    @property
    def now_us(self) -> Ticks:
        """The fleet clock: the furthest member stream clock."""
        return max((pipeline.now_us
                    for pipeline in self._pipelines.values()),
                   default=0)

    @property
    def exhausted(self) -> bool:
        """True once no member source can yield another item."""
        if self._demux is not None and not self._demux.exhausted:
            return False
        return all(pipeline.exhausted
                   for pipeline in self._pipelines.values())

    def close(self) -> None:
        """Close the captures :func:`open_fleet` opened, if any."""
        for capture in self._captures:
            capture.close()

    # -- reporting ----------------------------------------------------

    @property
    def unrouted(self) -> int:
        """Frames the demux routed to no link (0 without a demux)."""
        return self._demux.unrouted if self._demux is not None else 0

    def health(self) -> dict[str, str]:
        """Per-link health against the current fleet clock."""
        return self.snapshot().health

    def link_snapshots(self) -> tuple[LinkSnapshot, ...]:
        return tuple(self._pipelines[name].link_snapshot()
                     for name in self.links)

    def snapshot(self) -> FleetSnapshot:
        """The aggregate fleet view at this instant."""
        return fleet_view(self._tally, self.link_snapshots(),
                          self.now_us, self.unrouted)


def open_fleet(factory: PipelineFactory, *, path: str | None = None,
               links: Sequence[tuple[str, str]] = (),
               names: Mapping[IPv4Address, str] | None = None,
               follow: bool = False,
               accept: Callable[[str], bool] | None = None
               ) -> FleetSupervisor:
    """The fleet over one merged capture ``path``, demuxed by endpoint
    pair, or one ``(name, path)`` capture per link in ``links``,
    keeping only the links ``accept`` names. The fleet owns what is
    opened here (:meth:`FleetSupervisor.close`); when a capture fails
    to open, those opened before it are closed."""
    check_feed(path, links)
    if path is not None:
        source = open_capture(path, follow)
        fleet = FleetSupervisor(
            LinkDemux(source, dict(names or {}), accept), factory)
        fleet._captures.append(source)
        return fleet
    fleet = FleetSupervisor()
    try:
        for name, link_path in links:
            if accept is None or accept(name):
                source = open_capture(link_path, follow)
                fleet._captures.append(source)
                fleet.add_link(factory(name, source), name=name)
    except BaseException:
        fleet.close()
        raise
    return fleet
