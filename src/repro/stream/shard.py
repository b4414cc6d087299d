"""Sharded fleet monitoring: N worker processes, one merged view.

A single :class:`~repro.stream.fleet.FleetSupervisor` runs every link
in one Python process, so a fleet the size of the paper's (~27
substations) is bounded by one core no matter how many the host has.
This module partitions the links across worker *processes*:

* :func:`shard_of` maps a link name to a shard with ``crc32`` — a
  process-stable hash (``hash()`` is salted per interpreter), so every
  worker independently agrees which links it owns;
* each worker runs :func:`run_shard_worker` over the fleet
  :func:`~repro.stream.fleet.open_fleet` builds, the recipe ``repro
  monitor`` uses in-process, with an :class:`ShardAccept` predicate:
  its own :class:`~repro.stream.fleet.LinkDemux` over the *whole*
  capture, so demux discovery lands deterministically — frames for
  other shards count as ``foreign`` and are dropped without building
  any per-link state;
* workers ship their per-link state to the parent as the
  :class:`~repro.stream.snapshots.LinkSnapshot` objects themselves,
  pickled by the duplex pipe (workers run the parent's own code, so
  no other shape can arrive); the parent
  (:class:`ShardedFleetSupervisor`) merges them through the same
  :func:`~repro.stream.fleet.fleet_view` an in-process fleet uses.

Because a :class:`~repro.stream.snapshots.LinkSnapshot` is free of
fleet-relative state by design, the merged
:class:`~repro.stream.snapshots.FleetSnapshot` is field-for-field
identical to a single-process run over the same capture: the fleet
clock is the max of the shard clocks, totals are sums over the same
link set, health is classified in the parent against the merged clock,
and ``unrouted`` agrees because every worker scans the same file (the
routed/foreign/unrouted partition is decided before shard filtering).
``tests/stream/test_shard.py`` pins that equality for 1, 2 and 4
workers.

The pipeline factory crosses a process boundary, so it must be
picklable — a module-level callable or a frozen dataclass like
:class:`MonitorPipelineFactory`, never a lambda or closure (the
staticcheck shard-safety rule flags those at the call site;
:class:`ShardedFleetSupervisor` also fails fast at construction).
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..netstack.addresses import IPv4Address
from ..netstack.pcap import PcapError
from ..netstack.pcapng import PcapngError
from ..protocols.base import get_protocol
from ..simnet.clock import Ticks
from .analyzers import LiveFlowTable, OnlineChains, RollingSessionWindows
from .detector import OnlineCombinedDetector
from .eviction import EvictionPolicy
from .fleet import (FleetSupervisor, PipelineFactory, check_feed,
                    fleet_view, open_fleet)
from .ingest import Source
from .pipeline import StreamPipeline
from .snapshots import FleetSnapshot, FleetTally, LinkSnapshot

#: How long an idle worker blocks on its command pipe per round (s).
_IDLE_POLL_S = 0.05


def shard_of(name: str, shards: int) -> int:
    """The shard owning link ``name`` among ``shards`` workers.

    ``crc32`` rather than ``hash()``: the builtin string hash is
    salted per interpreter (PYTHONHASHSEED), so it cannot be used to
    make independent processes agree on a partition.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    return zlib.crc32(name.encode("utf-8")) % shards


@dataclass(frozen=True)
class ShardAccept:
    """Accept predicate for one shard's demux (picklable)."""

    shard: int
    shards: int

    def __post_init__(self) -> None:
        if not 0 <= self.shard < self.shards:
            raise ValueError(
                f"shard {self.shard} outside 0..{self.shards - 1}")

    def __call__(self, name: str) -> bool:
        return shard_of(name, self.shards) == self.shard


@dataclass(frozen=True)
class MonitorPipelineFactory:
    """The ``repro monitor`` pipeline recipe as a picklable value.

    ``repro monitor`` used to build pipelines through a closure over
    its argparse namespace; a closure cannot cross a process boundary,
    so the recipe is now this frozen dataclass — the same factory
    object serves the in-process fleet, the sharded workers, and any
    test that wants monitor-equivalent pipelines.

    Protocol binding is per link, resolved in priority order: an
    explicit ``link_protocols`` entry (the CLI's ``@proto`` suffix),
    then the source's port-based ``protocol_hint`` (set by
    :class:`~repro.stream.fleet.LinkDemux` from the link's first
    packet), then the factory-wide ``protocol`` default. Both are
    plain spec *names*, not spec objects, so the factory pickles
    across the shard process boundary and every worker resolves the
    identical spec from its own registry.

    ``detect_after_us`` is the LEARN→DETECT boundary handed to every
    link's :class:`~repro.stream.detector.OnlineCombinedDetector`,
    which flips itself there; shard workers receive it inside the
    pickled factory.
    """

    names: Mapping[IPv4Address, str] = field(default_factory=dict)
    reassemble: bool = False
    evict: bool = True
    protocol: str = "iec104"
    link_protocols: tuple[tuple[str, str], ...] = ()
    detect_after_us: Ticks | None = None

    def protocol_for(self, link: str, source: Source) -> str:
        """The spec name ``link`` binds (override > hint > default)."""
        for name, wanted in self.link_protocols:
            if name == link:
                return wanted
        hint = getattr(source, "protocol_hint", None)
        return hint if hint is not None else self.protocol

    def __call__(self, link: str, source: Source) -> StreamPipeline:
        analyzers = [LiveFlowTable(), OnlineChains(),
                     RollingSessionWindows(),
                     OnlineCombinedDetector(
                         detect_after_us=self.detect_after_us)]
        eviction = EvictionPolicy() if self.evict else None
        spec = get_protocol(self.protocol_for(link, source))
        return StreamPipeline(source, names=self.names,
                              analyzers=analyzers,
                              reassemble=self.reassemble,
                              eviction=eviction, link=link,
                              protocol=spec)


@dataclass(frozen=True)
class WorkerConfig:
    """One shard worker's :func:`~repro.stream.fleet.open_fleet`
    arguments, ``accept`` its :class:`ShardAccept`. Captures are
    opened *inside* the worker: open file objects do not survive
    pickling, and independent readers keep the workers free of
    shared read state.
    """

    accept: ShardAccept
    factory: PipelineFactory
    path: str | None = None
    links: tuple[tuple[str, str], ...] = ()
    names: Mapping[IPv4Address, str] = field(default_factory=dict)
    follow: bool = False


def _worker_loop(fleet: FleetSupervisor, conn: Any) -> None:
    """Step the shard's fleet, answering parent commands in between.

    The worker makes progress on its own (one ``fleet.step()`` per
    round) and services the command pipe between steps, so the parent
    never has to pump data — it only ever asks questions.
    """
    moved_total = 0
    while True:
        moved = fleet.step()
        moved_total += moved
        # Busy rounds only peek at the pipe; idle rounds block briefly
        # so a drained worker does not spin.
        timeout = 0 if moved else _IDLE_POLL_S
        while conn.poll(timeout):
            message = conn.recv()
            command = message[0]
            if command == "status":
                conn.send(("status", {
                    "moved": moved_total,
                    "now_us": fleet.now_us,
                    "exhausted": fleet.exhausted,
                    "links": fleet.link_count,
                }))
            elif command == "snapshot":
                conn.send(("snapshot", (fleet.link_snapshots(),
                                        fleet.now_us, fleet.unrouted)))
            elif command == "flush":
                fleet.flush()
                conn.send(("ok",))
            elif command == "stop":
                conn.send(("ok",))
                return
            else:
                conn.send(("error",
                           f"unknown shard command {command!r}"))
                return
            timeout = 0


def run_shard_worker(config: WorkerConfig, conn: Any) -> None:
    """Shard worker entrypoint (one process; talks over ``conn``).

    Builds the shard's fleet from ``config``, then serves the command
    loop until ``stop``. Any crash is shipped to the parent as an
    ``("error", traceback)`` message instead of dying silently; a
    capture's format error crosses as the exception itself, so the
    parent raises exactly what a single-process fleet would.
    """
    fleet: FleetSupervisor | None = None
    try:
        fleet = open_fleet(config.factory, path=config.path,
                           links=config.links, names=config.names,
                           follow=config.follow, accept=config.accept)
        _worker_loop(fleet, conn)
    except BaseException as exc:
        reply = (("capture-error", exc)
                 if isinstance(exc, (PcapError, PcapngError))
                 else ("error", traceback.format_exc()))
        try:
            conn.send(reply)
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        if fleet is not None:
            fleet.close()
        conn.close()


class ShardWorkerError(RuntimeError):
    """A shard worker died or reported a failure."""


class ShardedFleetSupervisor:
    """Drive N shard workers and merge their state into one fleet view.

    Presents the same driving/reporting surface as
    :class:`~repro.stream.fleet.FleetSupervisor` (``step`` /
    ``flush`` / ``now_us`` / ``exhausted`` / ``snapshot``), so
    :func:`~repro.stream.monitor.run_monitor` drives either
    interchangeably. The parent holds **no** packet state: it
    asks workers for status (cheap counters) while they pump their
    captures, and only pulls full snapshots when one is rendered.

    ``factory`` must be picklable (checked eagerly, so a lambda fails
    here with a clear message instead of deep inside
    ``multiprocessing``). Call :meth:`close` (or use the instance as a
    context manager) to stop the workers.
    """

    def __init__(self, factory: PipelineFactory, *, workers: int,
                 path: str | None = None,
                 links: Sequence[tuple[str, str]] = (),
                 names: Mapping[IPv4Address, str] | None = None,
                 follow: bool = False):
        if workers < 1:
            raise ValueError(
                f"worker count must be >= 1, got {workers}")
        check_feed(path, links)
        try:
            pickle.dumps(factory)
        except Exception as exc:
            raise ValueError(
                "a sharded fleet's pipeline factory must be picklable "
                "(a module-level callable or frozen dataclass such as "
                "MonitorPipelineFactory, not a lambda or closure): "
                f"{exc}") from exc
        self.worker_count = workers
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._moved = [0] * workers
        self._status: list[dict[str, Any]] = [
            {"moved": 0, "now_us": 0, "exhausted": False, "links": 0}
            for _ in range(workers)]
        self._closed = False
        for shard in range(workers):
            parent_conn, child_conn = multiprocessing.Pipe()
            config = WorkerConfig(
                accept=ShardAccept(shard, workers), factory=factory,
                path=path, links=tuple(links),
                names=dict(names or {}), follow=follow)
            process = multiprocessing.Process(
                target=run_shard_worker, args=(config, child_conn),
                name=f"repro-shard-{shard}", daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    # -- wire helpers -------------------------------------------------

    def _recv(self, index: int, expect: str) -> Any:
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                f"shard worker {index} died mid-command") from exc
        if reply[0] == "capture-error":
            raise reply[1]
        if reply[0] == "error":
            raise ShardWorkerError(
                f"shard worker {index} failed:\n{reply[1]}")
        if reply[0] != expect:
            raise ShardWorkerError(
                f"shard worker {index} replied {reply[0]!r} "
                f"to a {expect!r} request")
        return reply[1] if len(reply) > 1 else None

    def _broadcast(self, message: tuple, expect: str) -> list[Any]:
        """Send ``message`` to every worker, then collect replies.

        Sends are pipelined before any receive, so the N round trips
        overlap instead of serializing.
        """
        if self._closed:
            raise ShardWorkerError("sharded fleet is closed")
        for conn in self._conns:
            try:
                conn.send(message)
            except OSError:
                # The worker has exited; its last report (or EOF)
                # is read by the receive below.
                pass
        return [self._recv(index, expect)
                for index in range(self.worker_count)]

    # -- driving ------------------------------------------------------

    def step(self) -> int:
        """One supervision round; returns items the workers moved
        since the previous round (the workers pump continuously —
        this only samples their progress counters)."""
        statuses = self._broadcast(("status",), "status")
        moved = 0
        for index, status in enumerate(statuses):
            moved += status["moved"] - self._moved[index]
            self._moved[index] = status["moved"]
            self._status[index] = status
        return moved

    def flush(self) -> None:
        """Flush every shard's reorder buffers."""
        self._broadcast(("flush",), "ok")

    @property
    def now_us(self) -> Ticks:
        """The fleet clock as of the last :meth:`step` sample."""
        return max((status["now_us"] for status in self._status),
                   default=0)

    @property
    def exhausted(self) -> bool:
        """True once every shard reported itself exhausted."""
        return all(status["exhausted"] for status in self._status)

    @property
    def link_count(self) -> int:
        return sum(status["links"] for status in self._status)

    # -- reporting ----------------------------------------------------

    def _gather(self) -> tuple[tuple[LinkSnapshot, ...], Ticks, int]:
        shard_links, clocks, unrouted = zip(
            *self._broadcast(("snapshot",), "snapshot"))
        links = tuple(sorted(
            (snapshot for part in shard_links for snapshot in part),
            key=lambda snapshot: snapshot.link))
        # Every worker scans the whole capture, so each counts the
        # same unrouted frames; max (not sum) tolerates workers being
        # at different read offsets mid-stream and equals the
        # single-process count once drained.
        return links, max(clocks), max(unrouted)

    @property
    def links(self) -> list[str]:
        """Link names, sorted (the snapshot order)."""
        links, _now, _unrouted = self._gather()
        return [snapshot.link for snapshot in links]

    def link_snapshots(self) -> tuple[LinkSnapshot, ...]:
        links, _now, _unrouted = self._gather()
        return links

    def snapshot(self) -> FleetSnapshot:
        """The merged fleet view — the in-process fleet's own view.

        Health is judged in the parent against the merged fleet
        clock: a worker cannot judge lag, because its local clock may
        itself be the laggard. The gathered links are new objects on
        every gather, so each view folds them into a fresh tally.
        """
        links, now_us, unrouted = self._gather()
        return fleet_view(FleetTally(), links, now_us, unrouted)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Stop the workers and reap their processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for conn in self._conns:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)

    def __enter__(self) -> "ShardedFleetSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
