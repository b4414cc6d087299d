"""The three workloads: set-up, one replay, output checks.

Every workload generates a seeded Y1 capture, writes it to a file and
replays it through the system's public functions:

* ``fleet-replay`` -- ``repro monitor capture.pcapng --demux --once``:
  one process, demux plus per-link pipelines, four analyzers. After
  the timed replays the same loop runs over ``ShardedFleetSupervisor``
  with two worker processes, untimed: its merged snapshot is checked,
  and the traced run takes the ``stream.shard`` layer from it;
* ``batch-analysis`` -- the paper-table path over a classic pcap:
  read, decode once, ``extract_apdus``, ``ConnectionChains``,
  ``FlowAnalysis``;
* ``serve-polls`` -- a closed loop of polls (snapshot, history
  record, hub publish, two WebSocket clients) and HTTP reads through
  ``ServeApp.respond``.

A replay returns a :class:`Replay`; its ``failed`` count is the number
of output checks that did not hold. Every replay and set-up is timed
by a :class:`LapTimer`, whose laps end at the system's own round
boundaries (``run_monitor``'s ``should_stop`` hook, one poll, one
batch phase).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from harness import REPLAY, LapTimer, Tracer, children_cpu_s, min_samples
from probes import TimedParser, TracedFactory, wrap_method
from repro.analysis import ConnectionChains, FlowAnalysis, extract_apdus
from repro.analysis.sources import PacketCapture
from repro.datasets import CaptureConfig, generate_capture
from repro.netstack.packet import CapturedPacket
from repro.netstack.pcap import PcapReader, PcapRecord, write_pcap
from repro.netstack.pcapng import write_pcapng
from repro.protocols.base import get_protocol
from repro.serve import HistoryStore, Retention, ServeApp, SnapshotHub
from repro.serve.wire import (OP_CLOSE, TEST_MASK_KEY, client_handshake,
                              close_frame, dump_document, read_frame,
                              read_request)
from repro.stream import (FleetSupervisor, LinkDemux,
                          MonitorPipelineFactory, PcapngTailSource,
                          PcapTailSource, ShardedFleetSupervisor,
                          run_monitor)

#: Paper year the captures reproduce (the 8-hour Y1 capture).
YEAR = 1
#: Capture time scale: Y1 at 0.02 is about 13k packets, enough to
#: amortise worker spawn.
SCALE = 0.02
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Worker processes of the sharded replays (sized for a two-core host).
SHARD_WORKERS = 2
#: Sharded replays after the traced in-process ones (an untraced run
#: makes one, as an output check).
SHARDED_TRACED = 3
#: ``batch-analysis``: records decoded per lap.
DECODE_LAP = 512
#: ``serve-polls``: records per demux batch, hence per poll.
SERVE_DEMUX_BATCH = 72
#: ``serve-polls``: history retention. Compaction runs every 64 polls
#: and, keeping 32, deletes polls twice per replay.
SERVE_RETAIN_POLLS = 32
#: ``serve-polls``: polls and queries a run needs so its p99 has ten
#: samples beyond it.
SERVE_MIN_SAMPLES = min_samples(99)


@dataclass
class Setup:
    """Wall seconds of one set-up's phases, and its scaled total."""

    generate_s: float
    write_s: float
    construct_s: float
    scaled_s: float


@dataclass
class Replay:
    """One replay of the capture through the system."""

    packets: int
    #: Wall seconds from the first item to the final result.
    seconds: float = 0.0
    #: The same time scaled to the reference host speed.
    scaled_s: float = 0.0
    attempted: int = 1
    failed: int = 0
    #: Per-replay layer counts (see ``run.py`` for their metrics).
    counts: dict[str, float] = field(default_factory=dict)
    poll_ms: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)

    def timed(self, timer: LapTimer) -> "Replay":
        self.seconds = timer.wall_s
        self.scaled_s = timer.scaled_s
        return self

    @property
    def throughput_pps(self) -> float:
        """Packets per wall second."""
        return self.packets / self.seconds

    @property
    def scaled_pps(self) -> float:
        """Packets per second at the reference host speed."""
        return self.packets / self.scaled_s


def _timed(tracer: Tracer | None, name: str, func: Callable) -> Callable:
    return func if tracer is None else tracer.wrap(name, func)


def _span(tracer: Tracer | None, name: str = REPLAY):
    return nullcontext() if tracer is None else tracer.span(name)


def monitor_fleet(path: str, names: dict, tracer: Tracer | None,
                  counts: dict[str, float], demux_batch: int = 512,
                  source_type: type = PcapngTailSource
                  ) -> tuple[FleetSupervisor, Any, LinkDemux]:
    """The fleet ``repro monitor PATH --demux`` builds.

    With a tracer, the source, demux, fleet and every pipeline the
    factory builds carry span hooks, and ``counts`` collects the
    deepest demux queue and reorder buffer seen.
    """
    source = source_type(path)
    factory: Any = MonitorPipelineFactory(names=names)
    if tracer is not None:
        factory = TracedFactory(factory, tracer, counts)
        wrap_method(tracer, source, "poll", "stream.ingest.poll")
    demux = LinkDemux(source, names=names)
    fleet = FleetSupervisor(demux=demux, pipeline_factory=factory,
                            demux_batch=demux_batch)
    if tracer is not None:
        pump = tracer.wrap("stream.fleet.route", demux.pump)

        def pump_and_measure(max_items: int = 512) -> int:
            moved = pump(max_items)
            depth = max((demux.link_source(name).pending
                         for name in demux.link_names), default=0)
            counts["queue_max"] = max(counts.get("queue_max", 0), depth)
            return moved

        demux.pump = pump_and_measure  # type: ignore[method-assign]
        wrap_method(tracer, fleet, "step", "stream.fleet.round")
        wrap_method(tracer, fleet, "snapshot", "stream.snapshots.snapshot")
    return fleet, source, demux


def fleet_counts(counts: dict[str, float], demux: LinkDemux,
                 source: Any, document: dict) -> None:
    """Layer counts read from a drained fleet and its last snapshot."""
    stages = document["stages"]
    reassemble = stages["reassemble"]
    decode = stages["decode"]
    counts["records"] = source.records_read
    counts["routed"] = demux.routed
    counts["unrouted"] = demux.unrouted
    counts["links"] = len(demux.link_names)
    counts["filtered_share"] = (reassemble["filtered"]
                                / max(1, reassemble["received"]))
    counts["apdus"] = decode["emitted"]
    counts["error_share"] = (decode["errors"]
                             / max(1, decode["emitted"] + decode["errors"]))


class Workload:
    """Shared set-up: generate the capture and write it to a file."""

    name = ""
    #: Capture file format and the writer that produces it.
    suffix = ".pcapng"

    def __init__(self, seed: int, scale: float, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.path = str(work_dir / f"capture{self.suffix}")
        self.names: dict = {}
        self.packets = 0

    def write(self, records: list[PcapRecord]) -> None:
        write_pcapng(self.path, records)

    def construct(self) -> None:
        """Build (and drop) the system up to its first item."""
        fleet, source, _demux = monitor_fleet(self.path, self.names,
                                              None, {})
        source.close()

    def setup_once(self) -> tuple[Setup, Any]:
        timer = LapTimer()
        timer.mark()
        capture = generate_capture(
            YEAR, CaptureConfig(seed=self.seed, time_scale=self.scale))
        timer.mark()
        self.write([PcapRecord(time_us=packet.time_us,
                               data=packet.encode())
                    for packet in capture.packets])
        timer.mark()
        self.names = capture.host_names()
        self.packets = len(capture.packets)
        self.construct()
        timer.mark()
        (generate, _), (write, _), (construct, _) = timer.laps
        return Setup(generate, write, construct, timer.scaled_s), capture

    def prepare(self) -> list[Setup]:
        """Set up :data:`SETUP_REPEATS` times; keep the last inputs."""
        setups = []
        for _ in range(SETUP_REPEATS):
            setup, capture = self.setup_once()
            setups.append(setup)
        self.reference(capture)
        return setups

    def reference(self, capture: Any) -> None:
        """Compute what the replays' outputs are checked against."""

    def replay(self, tracer: Tracer | None) -> Replay:
        """One checked replay; scaled laps only when ``tracer`` is None."""
        raise NotImplementedError

    def after(self, tracer: Tracer | None) -> list[Replay]:
        """Checked, untimed replays of another path, once the timed
        replays are done (none by default)."""
        return []

    def enough(self, replays: list[Replay], percentiles: bool) -> bool:
        return len(replays) >= 1

    def close(self) -> None:
        """Release what :meth:`prepare` built."""

    # -- shared by the fleet workloads --------------------------------

    def replay_fleet(self, tracer: Tracer | None,
                     source_type: type = PcapngTailSource
                     ) -> tuple[Replay, dict]:
        counts: dict[str, float] = {}
        fleet, source, demux = monitor_fleet(
            self.path, self.names, tracer, counts,
            source_type=source_type)
        snapshots: list = []
        timer = LapTimer(scaled=tracer is None)
        try:
            with _span(tracer):
                timer.mark()
                run_monitor(fleet, out=None, once=True,
                            on_snapshot=snapshots.append,
                            should_stop=timer.mark)
                timer.mark()
        finally:
            source.close()
        document = snapshots[-1].to_json()
        fleet_counts(counts, demux, source, document)
        return Replay(self.packets, counts=counts).timed(timer), document


class FleetReplay(Workload):
    name = "fleet-replay"

    def reference(self, capture: Any) -> None:
        self.events = len(extract_apdus(capture).events)
        self.document: bytes | None = None

    def replay(self, tracer: Tracer | None) -> Replay:
        replay, document = self.replay_fleet(tracer)
        encoded = dump_document(document)
        if self.document is None:
            self.document = encoded
        replay.failed = int(document["events"] != self.events
                            or encoded != self.document)
        return replay

    def after(self, tracer: Tracer | None) -> list[Replay]:
        """The same capture over two shard workers: its merged snapshot
        must be byte-identical to the in-process one."""
        return [self.sharded(tracer)
                for _ in range(1 if tracer is None else SHARDED_TRACED)]

    def sharded(self, tracer: Tracer | None) -> Replay:
        counts: dict[str, float] = {}
        cpu = children_cpu_s()
        began = time.perf_counter()
        with _span(tracer, "stream.shard.spawn"):
            sharded = ShardedFleetSupervisor(
                MonitorPipelineFactory(names=self.names),
                workers=SHARD_WORKERS, path=self.path, names=self.names)
        snapshots: list = []
        try:
            if tracer is not None:
                wrap_method(tracer, sharded, "step", "stream.shard.status")
                wrap_method(tracer, sharded, "flush", "stream.shard.status")
                wrap_method(tracer, sharded, "snapshot",
                            "stream.shard.gather")
            start = time.perf_counter()
            with _span(tracer, "stream.shard.replay"):
                run_monitor(sharded, out=None, once=True,
                            on_snapshot=snapshots.append)
            seconds = time.perf_counter() - start
        finally:
            sharded.close()
        elapsed = time.perf_counter() - began
        counts["worker_cpu_s"] = children_cpu_s() - cpu
        counts["parallelism"] = counts["worker_cpu_s"] / elapsed
        failed = int(dump_document(snapshots[-1].to_json()) != self.document)
        return Replay(self.packets, seconds, seconds, failed=failed,
                      counts=counts)


class BatchAnalysis(Workload):
    name = "batch-analysis"
    suffix = ".pcap"

    def write(self, records: list[PcapRecord]) -> None:
        write_pcap(self.path, records)

    def construct(self) -> None:
        with open(self.path, "rb") as stream:
            PcapReader(stream)

    def reference(self, capture: Any) -> None:
        _replay, document = self.replay_fleet(None, PcapTailSource)
        self.events = document["events"]
        self.digest: tuple | None = None

    def replay(self, tracer: Tracer | None) -> Replay:
        parser = (None if tracer is None else
                  TimedParser(get_protocol("iec104").new_parser(), tracer))
        timer = LapTimer(scaled=tracer is None)
        with _span(tracer):
            timer.mark()
            with open(self.path, "rb") as stream:
                records = _timed(tracer, "netstack.pcap.read",
                                 lambda: list(PcapReader(stream)))()
            timer.mark()
            packets = []
            for index, record in enumerate(records, 1):
                packet = CapturedPacket.decode(record.time_us, record.data)
                if packet is not None:
                    packets.append(packet)
                if index % DECODE_LAP == 0:
                    timer.mark()
            timer.mark()
            capture = PacketCapture(packets=packets, names=self.names)
            extraction = _timed(tracer, "analysis.extract",
                                extract_apdus)(capture, parser=parser)
            timer.mark()
            chains = _timed(tracer, "analysis.chains",
                            ConnectionChains.from_extraction)(extraction)
            timer.mark()
            flows = _timed(tracer, "analysis.flows",
                           FlowAnalysis.from_packets)("y1", capture)
            timer.mark()
        digest = (len(extraction.events), len(extraction.failures),
                  chains.sizes(), flows.summary())
        if self.digest is None:
            self.digest = digest
        failed = int(len(extraction.events) != self.events
                     or digest != self.digest)
        events = len(extraction.events)
        counts = {"apdus": events,
                  "error_share": len(extraction.failures)
                  / max(1, events + len(extraction.failures))}
        return Replay(self.packets, failed=failed,
                      counts=counts).timed(timer)


# -- serve-polls -------------------------------------------------------------

class ServeStack:
    """Hub, app and server on one loop, with two WebSocket clients."""

    def __init__(self) -> None:
        self.hub = SnapshotHub()
        self.app = ServeApp(self.hub)
        self.server: Any = None
        self.clients: list[tuple[asyncio.StreamReader,
                                 asyncio.StreamWriter]] = []
        #: ``seq`` of the last poll both clients read.
        self.last_seq = 0
        self.skipped = 0

    async def open(self) -> None:
        self.hub.bind(asyncio.get_running_loop())
        self.server = await asyncio.start_server(
            self.app.handle_connection, host="127.0.0.1", port=0)
        port = self.server.sockets[0].getsockname()[1]
        for _ in range(2):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(client_handshake("127.0.0.1", port))
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            if b" 101 " not in head.split(b"\r\n", 1)[0]:
                raise RuntimeError(f"websocket upgrade refused: {head!r}")
            self.clients.append((reader, writer))

    async def read_seq(self, index: int) -> int:
        """The ``seq`` of the next envelope client ``index`` reads."""
        reader = self.clients[index][0]
        while True:
            frame = await read_frame(reader)
            if frame is None:
                raise RuntimeError("server closed the websocket")
            payload = frame[1]
            if payload.startswith(b'{"skipped":'):
                self.skipped += json.loads(payload)["skipped"]
                continue
            if not payload.startswith(b'{"seq":'):
                raise RuntimeError(f"unexpected frame {payload[:40]!r}")
            return int(payload[7:payload.index(b",", 7)])

    async def close(self) -> None:
        for reader, writer in self.clients:
            writer.write(close_frame(mask_key=TEST_MASK_KEY))
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if frame is None or frame[0] == OP_CLOSE:
                    break
            writer.close()
            await writer.wait_closed()
        self.hub.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()


async def parse_request(target: str):
    """An ``HttpRequest`` parsed from a GET head for ``target``."""
    reader = asyncio.StreamReader()
    reader.feed_data(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"
                     .encode("latin-1"))
    reader.feed_eof()
    return await read_request(reader)


class ServePolls(Workload):
    name = "serve-polls"

    def __init__(self, seed: int, scale: float, work_dir: Path):
        super().__init__(seed, scale, work_dir)
        self.loop = asyncio.new_event_loop()
        self.stack: ServeStack | None = None
        self.rng = random.Random(seed)
        self.polls = 0

    def setup_once(self) -> tuple[Setup, Any]:
        if self.stack is not None:  # the previous set-up's stack
            self.loop.run_until_complete(self.stack.close())
            self.stack = None
        return super().setup_once()

    def construct(self) -> None:
        fleet, source, _demux = monitor_fleet(
            self.path, self.names, None, {},
            demux_batch=SERVE_DEMUX_BATCH)
        source.close()
        HistoryStore(retention=Retention(
            max_polls=SERVE_RETAIN_POLLS)).close()
        self.stack = ServeStack()
        self.loop.run_until_complete(self.stack.open())

    def enough(self, replays: list[Replay], percentiles: bool) -> bool:
        if not percentiles:
            return len(replays) >= 1
        return (sum(len(replay.poll_ms) for replay in replays)
                >= SERVE_MIN_SAMPLES
                and sum(len(replay.query_ms) for replay in replays)
                >= SERVE_MIN_SAMPLES)

    def replay(self, tracer: Tracer | None) -> Replay:
        return self.loop.run_until_complete(self._replay(tracer))

    def _store(self, tracer: Tracer | None) -> HistoryStore:
        store = HistoryStore(retention=Retention(
            max_polls=SERVE_RETAIN_POLLS))
        if tracer is not None:
            wrap_method(tracer, store, "record", "serve.history.record")
            wrap_method(tracer, store, "compact", "serve.history.compact")
            wrap_method(tracer, store, "fleet_at", "serve.history.query")
            wrap_method(tracer, store, "link_history",
                        "serve.history.query")
        return store

    def _target(self, times: list[int], links: list[str]) -> str:
        """The next read: ``/fleet/at`` and link history alternate."""
        oldest = times[-min(len(times), SERVE_RETAIN_POLLS)]
        time_us = self.rng.randint(oldest, times[-1])
        if self.polls % 2:
            return f"/fleet/at?time_us={time_us}"
        link = links[self.rng.randrange(len(links))]
        return f"/links/{link}/history?since_us={time_us}"

    async def _replay(self, tracer: Tracer | None) -> Replay:
        assert self.stack is not None
        stack = self.stack
        counts: dict[str, float] = {}
        fleet, source, demux = monitor_fleet(
            self.path, self.names, tracer, counts,
            demux_batch=SERVE_DEMUX_BATCH)
        store = self._store(tracer)
        stack.app.history = store
        record = store.record
        publish = _timed(tracer, "serve.broadcast.publish",
                         stack.hub.publish)
        respond = _timed(tracer, "serve.app.respond", stack.app.respond)
        clock = time.perf_counter
        replay = Replay(self.packets, attempted=0, counts=counts)
        timer = LapTimer(scaled=tracer is None)
        times: list[int] = []
        sent = 0
        skipped = stack.skipped
        try:
            with _span(tracer):
                timer.mark()
                idle = 0
                while True:
                    moved = fleet.step()
                    idle = 0 if moved else idle + 1
                    final = not moved and (fleet.exhausted or idle > 3)
                    if not moved and not final:
                        continue
                    if final:
                        fleet.flush()
                    began = clock()
                    snapshot = fleet.snapshot()
                    record(snapshot)
                    payload = publish(snapshot)
                    with _span(tracer, "serve.wire.read"):
                        seqs = [await stack.read_seq(0),
                                await stack.read_seq(1)]
                    replay.poll_ms.append((clock() - began) * 1e3)
                    self.polls += 1
                    replay.attempted += 1
                    replay.failed += int(
                        seqs != [payload.seq, payload.seq]
                        or payload.seq <= stack.last_seq)
                    stack.last_seq = payload.seq
                    sent += len(payload.document)
                    times.append(snapshot.time_us)
                    with _span(tracer, "serve.wire.read"):
                        request = await parse_request(self._target(
                            times, [link.link for link in snapshot.links]))
                    began = clock()
                    response = respond(request)
                    replay.query_ms.append((clock() - began) * 1e3)
                    replay.attempted += 1
                    replay.failed += int(
                        not response.startswith(b"HTTP/1.1 200 "))
                    timer.mark()
                    if final:
                        break
            replay.timed(timer)
            replay.attempted += 1
            replay.failed += int(not await self._last_poll_rebuilds(
                times[-1]))
        finally:
            source.close()
            store.close()
        replay.attempted += 1
        replay.failed += int(stack.hub.serializations != self.polls)
        polls = len(replay.poll_ms)
        counts["bytes_per_poll"] = sent / polls
        counts["serializations_per_poll"] = (stack.hub.serializations
                                             / self.polls)
        counts["skipped_polls"] = stack.skipped - skipped
        counts["polls"] = polls
        document = stack.hub.latest.snapshot.to_json()
        fleet_counts(counts, demux, source, document)
        return replay

    async def _last_poll_rebuilds(self, time_us: int) -> bool:
        """``/fleet/at`` at the last poll's clock gives its document."""
        assert self.stack is not None
        response = self.stack.app.respond(
            await parse_request(f"/fleet/at?time_us={time_us}"))
        if not response.startswith(b"HTTP/1.1 200 "):
            return False
        document = json.loads(response.split(b"\r\n\r\n", 1)[1])
        del document["poll_seq"]
        latest = self.stack.hub.latest
        return (latest is not None and dump_document(document)
                == dump_document(latest.snapshot.to_json()))

    def close(self) -> None:
        if self.stack is not None:
            self.loop.run_until_complete(self.stack.close())
            self.stack = None
        self.loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (FleetReplay, BatchAnalysis, ServePolls)}
