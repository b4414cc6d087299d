"""The streaming event bus: frame -> reassemble -> decode -> dispatch.

:class:`StreamPipeline` pulls bounded batches from a
:class:`~repro.stream.ingest.Source` and pushes every item through
four explicit stages:

* **frame** — raw :class:`~repro.netstack.pcap.PcapRecord` bytes are
  decoded to :class:`~repro.netstack.packet.CapturedPacket` (already
  decoded packets from a simnet tap pass through); a record that is
  not a well-formed TCP/IPv4 frame counts in ``errors``;
* **reassemble** — protocol port filtering (the bound
  :class:`~repro.protocols.base.ProtocolSpec`'s ports), per-packet or
  per-direction TCP reassembly (reusing :class:`~repro.netstack.
  reassembly.StreamReassembler` incrementally), flow-level dispatch;
* **decode** — frame parsing with the bound protocol's parser (IEC
  104's shared :class:`~repro.iec104.codec.TolerantParser` by
  default); live socket :class:`~repro.stream.ingest.ByteChunk`
  items enter here directly through a per-link
  :class:`~repro.iec104.codec.StreamDecoder` over that parser, whose
  framing it follows. A frame that fails to parse counts in
  ``errors`` and goes to each analyzer's ``on_failure``; the pipeline
  keeps no failure record of its own;
* **dispatch** — delivery to the registered
  :class:`~repro.stream.analyzers.StreamAnalyzer` instances.

This is the one path from a captured packet to an APDU event: the
batch :func:`~repro.analysis.apdu_stream.extract_apdus` drains a
pipeline over the whole capture and collects what it dispatches.

Every stage keeps received/emitted/filtered/error/drop counters, and
delivery is deterministic. Two orders matter, and they are different:

* *decode* runs in **arrival order** (the capture file order),
  because the tolerant parser learns per-link profiles from the
  frames it has seen;
* *dispatch* delivers APDU events in **time_us order** through a
  bounded reordering buffer, because the analyses consume events
  time-sorted (``tokenize``'s stable sort). The buffer holds an
  event until the stream clock passes ``reorder_window_us``; ties
  release in arrival order, matching the stable sort exactly. Events
  that arrive too late to reorder (beyond the window) are still
  delivered, and counted in ``order_violations``. With a window of 0
  every event is already at or behind the clock when it is decoded,
  so dispatch is arrival order: that is how ``extract_apdus`` drains.

Eviction sweeps run on stream time, never the wall clock — replaying
the same capture reproduces the same state, byte for byte.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from ..analysis.apdu_stream import ApduEvent
from ..iec104.codec import StreamDecoder, TolerantParser
from ..netstack.addresses import IPv4Address
from ..netstack.packet import CapturedPacket, FlowKey
from ..netstack.pcap import PcapRecord
from ..netstack.reassembly import StreamReassembler
from ..protocols.base import ProtocolSpec, get_protocol
from ..simnet.clock import Ticks
from ..slots import slot_setters
from .analyzers import StreamAnalyzer
from .eviction import EvictionPolicy, EvictionStats
from .ingest import ByteChunk, Source
from .snapshots import LinkSnapshot, StageCounters

#: Stage names, in pipeline order.
STAGES = ("ingest", "frame", "reassemble", "decode", "dispatch")


class StageTally:
    """Mutable per-stage accounting (the event bus accumulator).

    Snapshots expose the immutable :class:`~repro.stream.snapshots.
    StageCounters` form via :meth:`freeze`.
    """

    __slots__ = ("received", "emitted", "filtered", "errors",
                 "dropped")

    def __init__(self) -> None:
        self.received = 0
        self.emitted = 0
        self.filtered = 0
        self.errors = 0
        self.dropped = 0

    def as_dict(self) -> dict[str, int]:
        return {"received": self.received, "emitted": self.emitted,
                "filtered": self.filtered, "errors": self.errors,
                "dropped": self.dropped}

    def freeze(self) -> StageCounters:
        """The immutable snapshot form of the current counts."""
        counters = _new(StageCounters)
        _set_received(counters, self.received)
        _set_emitted(counters, self.emitted)
        _set_filtered(counters, self.filtered)
        _set_errors(counters, self.errors)
        _set_dropped(counters, self.dropped)
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StageTally({self.as_dict()})"


class StreamPipeline:
    """Push packets through the staged bus into online analyzers.

    ``reassemble=False`` (default) is the paper-faithful per-packet
    decode; ``True`` routes payloads through per-direction
    :class:`StreamReassembler` state first (the ablation mode).
    ``queue_capacity`` bounds the dispatch-stage reordering buffer:
    when it fills, the oldest buffered event is released early (still
    deterministic — early releases are a pure function of the arrival
    sequence). ``reorder_window_us`` is how far behind the stream
    clock an event may arrive and still be delivered in time order.

    ``protocol`` binds the pipeline to one
    :class:`~repro.protocols.base.ProtocolSpec` (default IEC 104):
    the spec's ports drive the reassemble-stage filter and its
    factories build the parser and the per-link live-tap decoders.
    A heterogeneous fleet mixes protocols by giving each link's
    pipeline its own spec. ``parser`` overrides the spec's parser
    (e.g. a shared or instrumented one).
    """

    def __init__(self, source: Source,
                 names: Mapping[IPv4Address, str] | None = None,
                 analyzers: list[StreamAnalyzer] | None = None,
                 reassemble: bool = False,
                 parser: TolerantParser | None = None,
                 batch_size: int = 512,
                 queue_capacity: int = 4096,
                 reorder_window_us: Ticks = 5_000_000,
                 eviction: EvictionPolicy | None = None,
                 link: str = "",
                 protocol: ProtocolSpec | None = None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        self.source = source
        if names is None:
            host_names = getattr(source, "host_names", None)
            names = dict(host_names()) if callable(host_names) else {}
        self.names = names
        #: ``names`` keyed by address value, built once here: an int
        #: hashes cheaper than an address on the per-packet lookups.
        self._names_by_value = {address.value: name
                                for address, name in names.items()}
        self.analyzers: list[StreamAnalyzer] = list(analyzers or [])
        self.reassemble = reassemble
        self.protocol = protocol if protocol is not None \
            else get_protocol("iec104")
        self._ports = self.protocol.ports
        self.parser = parser if parser is not None \
            else self.protocol.new_parser()
        self.batch_size = batch_size
        self.queue_capacity = queue_capacity
        self.reorder_window_us = reorder_window_us
        self.eviction = eviction
        self.eviction_stats = EvictionStats()
        #: Display name when the pipeline runs as one fleet member.
        self.link = link
        self.counters = {stage: StageTally() for stage in STAGES}
        # Hot-path aliases: the StageTally objects are created once and
        # never replaced, so the per-item stages skip the dict probe.
        self._tally_ingest = self.counters["ingest"]
        self._tally_frame = self.counters["frame"]
        self._tally_reassemble = self.counters["reassemble"]
        self._tally_decode = self.counters["decode"]
        self._tally_dispatch = self.counters["dispatch"]
        #: Stream clock: the largest time_us seen (never moves back).
        self.now_us: Ticks = 0
        #: Items that arrived with time_us behind the stream clock.
        self.late_items = 0
        #: Events delivered behind an already-released timestamp
        #: (arrived later than ``reorder_window_us`` allows).
        self.order_violations = 0
        self.events_dispatched = 0
        #: Frames that failed to decode (each also went to the
        #: analyzers' ``on_failure``).
        self.failure_count = 0
        #: Dispatch reorder buffer: (time_us, arrival_seq, event).
        self._reorder: list[tuple[Ticks, int, ApduEvent]] = []
        self._reorder_seq = 0
        self._watermark: Ticks = -1
        self._reassemblers: dict[FlowKey, StreamReassembler] = {}
        self._reassembler_touch: dict[FlowKey, Ticks] = {}
        #: Per-link incremental decoders over ``self.parser``.
        self._decoders: dict[tuple[str, str], StreamDecoder] = {}
        self._decoder_touch: dict[tuple[str, str], Ticks] = {}
        self._last_sweep_us: Ticks = 0
        #: Bumped by every call that can move the snapshot (a step
        #: that ingested, a flush that delivered, a sweep, a new
        #: analyzer); :meth:`link_snapshot` is memoized on it.
        self._version = 0
        self._memo: tuple[tuple[int, str], LinkSnapshot] | None = None

    # -- driving ------------------------------------------------------

    def add_analyzer(self, analyzer: StreamAnalyzer) -> None:
        self._version += 1
        self.analyzers.append(analyzer)

    @property
    def exhausted(self) -> bool:
        """True once the source can never yield another item."""
        return self.source.exhausted

    def step(self, max_items: int | None = None) -> int:
        """Pull one bounded batch from the source and process it.

        Returns the number of items ingested (0 when the source had
        nothing new)."""
        batch = self.source.poll(max_items or self.batch_size)
        if not batch:
            return 0
        self._version += 1
        # Batch fast path: the loop below is the hottest few lines of
        # the streaming engine, so the per-item helpers are bound to
        # locals and the release/evict calls are guarded inline (a
        # guard is ~10x cheaper than a no-op method call).
        ingest = self._ingest
        reorder = self._reorder
        window = self.reorder_window_us
        eviction = self.eviction
        for item in batch:
            ingest(item)
            # Release and sweep per item, not per batch: both become
            # pure functions of the item sequence, so a link produces
            # byte-identical state however its feed is batched (own
            # pcap, demuxed substream, live tap).
            if reorder and reorder[0][0] <= self.now_us - window:
                self._release(self.now_us - window)
            if eviction is not None \
                    and eviction.due(self.now_us, self._last_sweep_us):
                self.sweep()
        return len(batch)

    def run_until_exhausted(self, max_items: int | None = None) -> int:
        """Drain a finite source completely; return items processed.

        A tail-mode (``follow``) source is never exhausted — use
        :meth:`step` from the monitor loop instead."""
        total = 0
        while True:
            moved = self.step()
            total += moved
            if max_items is not None and total >= max_items:
                break
            if not moved:
                # Exhausted, or not exhausted but nothing deliverable
                # (e.g. a truncated record at a non-growing tail):
                # stop rather than spin.
                break
        self.flush()
        return total

    # -- stage: ingest / frame ---------------------------------------

    def _ingest(self, item) -> None:
        counters = self._tally_ingest
        counters.received += 1
        try:
            time_us = item.time_us
        except AttributeError:
            time_us = self.now_us
        if time_us < self.now_us:
            self.late_items += 1
        else:
            self.now_us = time_us
        if isinstance(item, CapturedPacket):
            packet = item
        elif isinstance(item, PcapRecord):
            frame = self._tally_frame
            frame.received += 1
            packet = CapturedPacket.decode(time_us, item.data)
            if packet is None:
                frame.errors += 1
                return
            frame.emitted += 1
        elif isinstance(item, ByteChunk):
            counters.emitted += 1
            self._decode_chunk(item)
            return
        else:
            counters.errors += 1
            return
        counters.emitted += 1
        self._reassemble(packet)

    # -- stages: reassemble, decode -----------------------------------

    def _reassemble(self, packet: CapturedPacket) -> None:
        """Filter, reassemble (in ablation mode), then decode."""
        counters = self._tally_reassemble
        counters.received += 1
        tcp = packet.tcp
        ports = self._ports
        if tcp.src_port not in ports and tcp.dst_port not in ports:
            counters.filtered += 1
            return
        for analyzer in self.analyzers:
            analyzer.on_packet(packet)
        if self.reassemble:
            key = packet.flow_key
            reassembler = self._reassemblers.get(key)
            if reassembler is None:
                reassembler = StreamReassembler()
                self._reassemblers[key] = reassembler
            self._reassembler_touch[key] = packet.time_us
            flags = tcp.flags
            data = reassembler.feed(tcp.seq, tcp.payload,
                                    syn=flags.syn, fin=flags.fin)
        else:
            data = tcp.payload
        if not data:
            return
        counters.emitted += 1
        self._tally_decode.received += 1
        names = self._names_by_value
        ip = packet.ip
        src = names.get(ip.src.value)
        if src is None:
            src = f"{ip.src}:{tcp.src_port}"
        dst = names.get(ip.dst.value)
        if dst is None:
            dst = f"{ip.dst}:{tcp.dst_port}"
        self._emit_results(self.parser.parse_stream(data,
                                                    link_key=(src, dst)),
                           packet.time_us, src, dst, packet.wire_length)

    @property
    def retransmissions(self) -> int:
        """Total retransmitted segments seen (reassemble mode only)."""
        return sum(reassembler.stats.retransmissions
                   for reassembler in self._reassemblers.values())

    def _decode_chunk(self, chunk: ByteChunk) -> None:
        """Live socket path: no packet framing, so a per-link
        StreamDecoder buffers partial APDUs across chunks."""
        self._tally_decode.received += 1
        link = (chunk.src, chunk.dst)
        decoder = self._decoders.get(link)
        if decoder is None:
            decoder = StreamDecoder(self.parser, link)
            self._decoders[link] = decoder
        self._decoder_touch[link] = chunk.time_us
        results = decoder.feed(chunk.data)
        self._emit_results(results, chunk.time_us, chunk.src,
                           chunk.dst, len(chunk.data))

    def _emit_results(self, results, time_us: Ticks, src: str,
                      dst: str, wire_bytes: int) -> None:
        counters = self._tally_decode
        dispatch_tally = self._tally_dispatch
        horizon = self.now_us - self.reorder_window_us
        for result in results:
            if result.apdu is None:
                counters.errors += 1
                self.failure_count += 1
                for analyzer in self.analyzers:
                    analyzer.on_failure(time_us, src, dst, result)
                continue
            counters.emitted += 1
            dispatch_tally.received += 1
            event = ApduEvent(time_us=time_us, src=src, dst=dst,
                              apdu=result.apdu,
                              compliant=result.compliant,
                              wire_bytes=wire_bytes)
            # Heap bypass: with nothing buffered and the event already
            # at or behind the release horizon, push-then-pop would be
            # a round trip for the identical outcome (there is no other
            # event it could be ordered against). With a window of 0
            # every event takes this branch.
            if not self._reorder and time_us <= horizon:
                self._dispatch(event)
            else:
                self._enqueue(event)

    # -- stage: dispatch ----------------------------------------------

    def _enqueue(self, event: ApduEvent) -> None:
        """Buffer an event for time-ordered release."""
        heapq.heappush(self._reorder,
                       (event.time_us, self._reorder_seq, event))
        self._reorder_seq += 1
        # Bounded queue: over capacity, release the oldest early.
        while len(self._reorder) > self.queue_capacity:
            self._dispatch(heapq.heappop(self._reorder)[2])

    def _release(self, horizon_us: Ticks) -> None:
        """Deliver every buffered event at or before the horizon."""
        while self._reorder and self._reorder[0][0] <= horizon_us:
            self._dispatch(heapq.heappop(self._reorder)[2])

    def flush(self) -> None:
        """Deliver everything still buffered (source exhausted or a
        final snapshot is about to be taken)."""
        if self._reorder:
            self._version += 1
        while self._reorder:
            self._dispatch(heapq.heappop(self._reorder)[2])

    def _dispatch(self, event: ApduEvent) -> None:
        time_us = event.time_us
        if time_us < self._watermark:
            self.order_violations += 1
        else:
            self._watermark = time_us
        counters = self._tally_dispatch
        for analyzer in self.analyzers:
            analyzer.on_event(event)
            counters.emitted += 1
        self.events_dispatched += 1

    @property
    def reorder_pending(self) -> int:
        return len(self._reorder)

    # -- eviction -----------------------------------------------------

    def sweep(self) -> None:
        """Run one eviction sweep now (normally driven by the policy).

        Reclaims idle reassemblers and stream decoders, then lets each
        analyzer reclaim its own idle state."""
        if self.eviction is None:
            return
        self._version += 1
        horizon = self.eviction.horizon(self.now_us)
        self.eviction_stats.sweeps += 1
        for key in [key for key, touched
                    in self._reassembler_touch.items()
                    if touched < horizon]:
            del self._reassemblers[key]
            del self._reassembler_touch[key]
            self.eviction_stats.reassemblers_evicted += 1
        for link in [link for link, touched
                     in self._decoder_touch.items()
                     if touched < horizon]:
            del self._decoders[link]
            del self._decoder_touch[link]
            self.eviction_stats.reassemblers_evicted += 1
        for analyzer in self.analyzers:
            analyzer.evict(horizon, self.eviction_stats)
        self._last_sweep_us = self.now_us

    @property
    def live_reassemblers(self) -> int:
        return len(self._reassemblers)

    # -- reporting ----------------------------------------------------

    def link_snapshot(self) -> LinkSnapshot:
        """The typed snapshot: clock, stage counters, analyzers.

        This is the contract the renderers and the fleet supervisor
        consume; ``link_snapshot().to_json()`` is its wire form.

        While nothing moved it returns the same object: the snapshot
        is memoized on the version counter and the link name (a fleet
        may rename the pipeline), so the fleet rollup skips an
        unchanged link by identity, and the history store and the
        hub share the document it encoded once.
        The counter sees only this pipeline's own calls: state changed
        behind its back (an analyzer flipped by hand) shows from the
        next step, flush, sweep or :meth:`add_analyzer` on.
        """
        key = (self._version, self.link)
        memo = self._memo
        if memo is not None and memo[0] == key:
            return memo[1]
        snapshot = _new(LinkSnapshot)
        _set_link(snapshot, self.link)
        _set_time_us(snapshot, self.now_us)
        _set_packets(snapshot, self.counters["reassemble"].received)
        _set_events(snapshot, self.events_dispatched)
        _set_failures(snapshot, self.failure_count)
        _set_late_items(snapshot, self.late_items)
        _set_order_violations(snapshot, self.order_violations)
        _set_reorder_pending(snapshot, self.reorder_pending)
        _set_reassemblers(snapshot, self.live_reassemblers)
        _set_protocol(snapshot, self.protocol.name)
        _set_stages(snapshot, {stage: tally.freeze()
                               for stage, tally in self.counters.items()})
        _set_eviction(snapshot, self.eviction_stats.as_dict())
        _set_analyzers(snapshot, {analyzer.name: analyzer.snapshot()
                                  for analyzer in self.analyzers})
        _set_document(snapshot, None)
        self._memo = (key, snapshot)
        return snapshot


# Snapshots are built as the decoders build what they checked (see
# :mod:`repro.slots`): neither class has a ``__post_init__``, and an
# unset slot raises on read, so every field is set, ``_document`` too.
_new = object.__new__
(_set_received, _set_emitted, _set_filtered, _set_errors,
 _set_dropped) = slot_setters(StageCounters)
(_set_link, _set_time_us, _set_packets, _set_events, _set_failures,
 _set_late_items, _set_order_violations, _set_reorder_pending,
 _set_reassemblers, _set_protocol, _set_stages, _set_eviction,
 _set_analyzers, _set_document) = slot_setters(LinkSnapshot)
