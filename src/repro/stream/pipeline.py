"""The streaming event bus: frame -> reassemble -> decode -> dispatch.

:class:`StreamPipeline` pulls bounded batches from a
:class:`~repro.stream.ingest.Source` and pushes every item through
four explicit stages:

* **frame** — raw :class:`~repro.netstack.pcap.PcapRecord` bytes are
  decoded to :class:`~repro.netstack.packet.CapturedPacket` (already
  decoded packets from a simnet tap pass through);
* **reassemble** — protocol port filtering (the bound
  :class:`~repro.protocols.base.ProtocolSpec`'s ports), per-packet or
  per-direction TCP reassembly (reusing :class:`~repro.netstack.
  reassembly.StreamReassembler` incrementally), flow-level dispatch;
* **decode** — frame parsing with the bound protocol's parser (IEC
  104's shared :class:`~repro.iec104.codec.TolerantParser` by
  default); live socket :class:`~repro.stream.ingest.ByteChunk`
  items enter here directly through a per-link stream decoder built
  by the spec;
* **dispatch** — delivery to the registered
  :class:`~repro.stream.analyzers.StreamAnalyzer` instances.

Every stage keeps received/emitted/filtered/error/drop counters, and
delivery is deterministic. Two orders matter, and they are different —
exactly as in the batch pipeline:

* *decode* runs in **arrival order** (the pcap file order), because the
  tolerant parser learns per-link profiles from the frames it has seen
  — the same order the batch :func:`~repro.analysis.apdu_stream.
  extract_apdus` uses;
* *dispatch* delivers APDU events in **time_us order** through a
  bounded reordering buffer, because the batch analyses time-sort
  events (``tokenize``'s stable sort) before consuming them. The
  buffer holds an event until the stream clock passes
  ``reorder_window_us``; ties release in arrival order, matching the
  stable sort exactly. Events that arrive too late to reorder (beyond
  the window) are still delivered, and counted in
  ``order_violations``.

Eviction sweeps run on stream time, never the wall clock — replaying
the same capture reproduces the same state, byte for byte.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..analysis.apdu_stream import ApduEvent
from ..iec104.codec import TolerantParser
from ..netstack.addresses import IPv4Address
from ..protocols.base import ProtocolSpec, get_protocol
from ..netstack.packet import CapturedPacket, FlowKey
from ..netstack.pcap import PcapRecord
from ..netstack.reassembly import StreamReassembler
from ..simnet.clock import Ticks
from .analyzers import StreamAnalyzer
from .eviction import EvictionPolicy, EvictionStats
from .ingest import ByteChunk, Source
from .snapshots import LinkSnapshot, StageCounters

#: Stage names, in pipeline order.
STAGES = ("ingest", "frame", "reassemble", "decode", "dispatch")

#: Most recent decode failures a pipeline keeps (all are counted).
MAX_FAILURES_KEPT = 256


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
        return StageCounters(received=self.received,
                             emitted=self.emitted,
                             filtered=self.filtered,
                             errors=self.errors,
                             dropped=self.dropped)

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
                 names: dict[IPv4Address, str] | None = None,
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
        self.failures: deque = deque(maxlen=MAX_FAILURES_KEPT)
        self.failure_count = 0
        #: Dispatch reorder buffer: (time_us, arrival_seq, event).
        self._reorder: list[tuple[Ticks, int, ApduEvent]] = []
        self._reorder_seq = 0
        self._watermark: Ticks = -1
        self._reassemblers: dict[FlowKey, StreamReassembler] = {}
        self._reassembler_touch: dict[FlowKey, Ticks] = {}
        #: Per-link incremental decoders built by the protocol spec.
        self._decoders: dict[tuple[str, str], object] = {}
        self._decoder_touch: dict[tuple[str, str], Ticks] = {}
        self._last_sweep_us: Ticks = 0

    # -- driving ------------------------------------------------------

    def add_analyzer(self, analyzer: StreamAnalyzer) -> None:
        self.analyzers.append(analyzer)

    @property
    def exhausted(self) -> bool:
        """True once the source can never yield another item."""
        return self.source.exhausted

    def switch_to_detect(self) -> None:
        """Flip every learn/detect analyzer to DETECT (idempotent).

        The monitor loop calls this at ``--detect-after``; keeping it
        on the pipeline lets a fleet supervisor apply the same switch
        uniformly to every member (including late-discovered links).
        """
        from .detector import OnlineCombinedDetector
        for analyzer in self.analyzers:
            if isinstance(analyzer, OnlineCombinedDetector):
                analyzer.switch_to_detect()

    def step(self, max_items: int | None = None) -> int:
        """Pull one bounded batch from the source and process it.

        Returns the number of items ingested (0 when the source had
        nothing new)."""
        batch = self.source.poll(max_items or self.batch_size)
        if not batch:
            return 0
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
        if isinstance(item, ByteChunk):
            counters.emitted += 1
            self._decode_chunk(item)
            return
        if isinstance(item, PcapRecord):
            packet = self._frame(item)
            if packet is None:
                return
        elif isinstance(item, CapturedPacket):
            packet = item
        else:
            counters.errors += 1
            return
        counters.emitted += 1
        self._reassemble(packet)

    def _frame(self, record: PcapRecord) -> CapturedPacket | None:
        counters = self.counters["frame"]
        counters.received += 1
        packet = CapturedPacket.decode(record.time_us, record.data)
        if packet is None:
            counters.errors += 1
            return None
        counters.emitted += 1
        return packet

    # -- stage: reassemble -------------------------------------------

    def _name_for(self, address: IPv4Address, port: int) -> str:
        name = self.names.get(address)
        if name is not None:
            return name
        return f"{address}:{port}"

    def _reassemble(self, packet: CapturedPacket) -> None:
        counters = self.counters["reassemble"]
        counters.received += 1
        ports = self._ports
        if packet.tcp.src_port not in ports \
                and packet.tcp.dst_port not in ports:
            counters.filtered += 1
            return
        for analyzer in self.analyzers:
            analyzer.on_packet(packet)
        src = self._name_for(packet.ip.src, packet.tcp.src_port)
        dst = self._name_for(packet.ip.dst, packet.tcp.dst_port)
        if not self.reassemble:
            if not packet.payload:
                return
            counters.emitted += 1
            self._decode(packet.time_us, src, dst, packet.payload,
                         packet.wire_length)
            return
        key = packet.flow_key
        reassembler = self._reassemblers.get(key)
        if reassembler is None:
            reassembler = StreamReassembler()
            self._reassemblers[key] = reassembler
        self._reassembler_touch[key] = packet.time_us
        data = reassembler.feed(packet.tcp.seq, packet.payload,
                                syn=packet.flags.syn,
                                fin=packet.flags.fin)
        if not data:
            return
        counters.emitted += 1
        self._decode(packet.time_us, src, dst, data,
                     packet.wire_length)

    @property
    def retransmissions(self) -> int:
        """Total retransmitted segments seen (reassemble mode only)."""
        return sum(reassembler.stats.retransmissions
                   for reassembler in self._reassemblers.values())

    # -- stage: decode ------------------------------------------------

    def _decode(self, time_us: Ticks, src: str, dst: str,
                payload: bytes, wire_bytes: int) -> None:
        self._tally_decode.received += 1
        results = self.parser.parse_stream(payload,
                                           link_key=(src, dst))
        self._emit_results(results, time_us, src, dst, wire_bytes)

    def _decode_chunk(self, chunk: ByteChunk) -> None:
        """Live socket path: no packet framing, so a per-link
        StreamDecoder buffers partial APDUs across chunks."""
        self._tally_decode.received += 1
        link = (chunk.src, chunk.dst)
        decoder = self._decoders.get(link)
        if decoder is None:
            decoder = self.protocol.new_stream_decoder(self.parser,
                                                       link)
            self._decoders[link] = decoder
        self._decoder_touch[link] = chunk.time_us
        results = decoder.feed(chunk.data)
        self._emit_results(results, chunk.time_us, chunk.src,
                           chunk.dst, len(chunk.data))

    def _emit_results(self, results, time_us: Ticks, src: str,
                      dst: str, wire_bytes: int) -> None:
        counters = self._tally_decode
        enqueue = self._enqueue
        for result in results:
            if result.apdu is not None:
                counters.emitted += 1
                enqueue(ApduEvent(
                    time_us=time_us, src=src, dst=dst,
                    apdu=result.apdu, compliant=result.compliant,
                    wire_bytes=wire_bytes))
            else:
                counters.errors += 1
                self.failure_count += 1
                self.failures.append((time_us, src, dst, result))

    # -- stage: dispatch ----------------------------------------------

    def _enqueue(self, event: ApduEvent) -> None:
        """Buffer an event for time-ordered release."""
        self._tally_dispatch.received += 1
        # Heap bypass: with nothing buffered and the event already at
        # or behind the release horizon, push-then-immediately-pop is
        # a round trip through the heap for the identical outcome —
        # dispatch directly. (With the buffer empty there is no other
        # event it could be ordered against.)
        if (not self._reorder
                and event.time_us <= self.now_us - self.reorder_window_us):
            self._dispatch(event)
            return
        heapq.heappush(self._reorder,
                       (event.time_us, self._reorder_seq, event))
        self._reorder_seq += 1
        # Bounded queue: over capacity, release the oldest early.
        while len(self._reorder) > self.queue_capacity:
            self._pop_dispatch()

    def _release(self, horizon_us: Ticks) -> None:
        """Deliver every buffered event at or before the horizon."""
        while self._reorder and self._reorder[0][0] <= horizon_us:
            self._pop_dispatch()

    def flush(self) -> None:
        """Deliver everything still buffered (source exhausted or a
        final snapshot is about to be taken)."""
        while self._reorder:
            self._pop_dispatch()

    def _pop_dispatch(self) -> None:
        _time_us, _seq, event = heapq.heappop(self._reorder)
        self._dispatch(event)

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
        consume; :meth:`snapshot` is its legacy dict projection.
        """
        return LinkSnapshot(
            link=self.link,
            time_us=self.now_us,
            packets=self.counters["reassemble"].received,
            events=self.events_dispatched,
            failures=self.failure_count,
            late_items=self.late_items,
            order_violations=self.order_violations,
            reorder_pending=self.reorder_pending,
            reassemblers=self.live_reassemblers,
            protocol=self.protocol.name,
            stages={stage: tally.freeze()
                    for stage, tally in self.counters.items()},
            eviction=self.eviction_stats.as_dict(),
            analyzers={analyzer.name: analyzer.snapshot()
                       for analyzer in self.analyzers},
        )

    def snapshot(self) -> dict:
        """The snapshot as a plain dict (the pre-schema shape plus
        the ``schema``/``link`` keys of the versioned contract)."""
        return self.link_snapshot().to_json()
