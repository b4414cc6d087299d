"""The ``repro monitor`` loop: periodic snapshots of live pipelines.

Drives a :class:`~repro.stream.pipeline.StreamPipeline` (one link) or
a :class:`~repro.stream.fleet.FleetSupervisor` (many) against
(possibly still-growing) captures and renders snapshots either as
human text or as JSON lines (one document per snapshot, for piping
into ``jq`` or a dashboard).

The renderers take the typed snapshot contract
(:class:`~repro.stream.snapshots.LinkSnapshot` /
:class:`~repro.stream.snapshots.FleetSnapshot`); the legacy plain-dict
shape was removed in 1.1.0 — build typed snapshots (e.g. via
:meth:`~repro.stream.pipeline.StreamPipeline.link_snapshot`).

Two timing domains meet here, deliberately kept apart: *analysis* is
driven purely by stream time (capture timestamps — deterministic on
replay), while snapshot *pacing* uses the wall clock, injected so tests
can run the loop without sleeping.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Mapping, TextIO, Union

from .fleet import FleetSupervisor
from .pipeline import StreamPipeline
from .shard import ShardedFleetSupervisor
from .snapshots import FleetSnapshot, LinkSnapshot

#: What the renderers accept.
Snapshot = Union[LinkSnapshot, FleetSnapshot]

#: What the monitor loop drives.
MonitorTarget = Union[StreamPipeline, FleetSupervisor,
                      ShardedFleetSupervisor]


def _document(snapshot: Snapshot, caller: str) -> Mapping[str, Any]:
    """The wire-form dict of a snapshot."""
    if isinstance(snapshot, (LinkSnapshot, FleetSnapshot)):
        return snapshot.to_json()
    raise TypeError(
        f"{caller}() takes a LinkSnapshot or FleetSnapshot, "
        f"not {type(snapshot).__name__}")


def render_json(snapshot: Snapshot) -> str:
    """One snapshot as a single JSON line."""
    return json.dumps(_document(snapshot, "render_json"),
                      sort_keys=True)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_link_text(document: Mapping[str, Any]) -> str:
    seconds = document["time_us"] / 1_000_000
    lines = [f"t={seconds:.3f}s packets={document['packets']} "
             f"events={document['events']} "
             f"failures={document['failures']}"]
    for name, data in document.get("analyzers", {}).items():
        parts = " ".join(
            f"{key}={_fmt(value)}" for key, value in data.items()
            if not isinstance(value, (list, dict)))
        lines.append(f"  {name}: {parts}")
    eviction = document.get("eviction", {})
    if eviction.get("sweeps"):
        parts = " ".join(f"{key}={value}"
                         for key, value in eviction.items() if value)
        lines.append(f"  eviction: {parts}")
    return "\n".join(lines)


def _render_fleet_text(snapshot: FleetSnapshot) -> str:
    seconds = snapshot.time_us / 1_000_000
    counts = snapshot.health_counts
    lines = [f"fleet t={seconds:.3f}s links={len(snapshot.links)} "
             f"live={counts['live']} idle={counts['idle']} "
             f"dead={counts['dead']} packets={snapshot.packets} "
             f"events={snapshot.events} "
             f"failures={snapshot.failures}"]
    for link in snapshot.links:
        seconds = link.time_us / 1_000_000
        status = snapshot.health.get(link.link, "?")
        line = (f"  [{status:>4}] {link.link}: t={seconds:.3f}s "
                f"packets={link.packets} events={link.events} "
                f"failures={link.failures}")
        if link.alerts:
            line += f" alerts={link.alerts}"
        lines.append(line)
    if snapshot.unrouted:
        lines.append(f"  unrouted frames: {snapshot.unrouted}")
    if snapshot.top_anomalies:
        parts = " ".join(
            f"{entry.link}={entry.alerts}"
            for entry in snapshot.top_anomalies)
        lines.append(f"  top anomalies: {parts}")
    return "\n".join(lines)


def render_text(snapshot: Snapshot) -> str:
    """One snapshot as an indented human-readable block.

    A :class:`FleetSnapshot` renders as the multi-link dashboard (one
    status line per link); a :class:`LinkSnapshot` (or the deprecated
    dict form) renders as the single-link block.
    """
    if isinstance(snapshot, FleetSnapshot):
        return _render_fleet_text(snapshot)
    return _render_link_text(_document(snapshot, "render_text"))


def _snapshot_of(target: MonitorTarget) -> Snapshot:
    if isinstance(target, StreamPipeline):
        return target.link_snapshot()
    return target.snapshot()


def run_monitor(target: MonitorTarget, out: TextIO | None,
                json_lines: bool = False,
                follow: bool = False,
                once: bool = False,
                interval_s: float = 2.0,
                idle_grace: int = 3,
                poll_sleep_s: float = 0.2,
                max_snapshots: int | None = None,
                sleep: Callable[[float], None] = time.sleep,
                clock: Callable[[], float] = time.monotonic,
                on_snapshot: Callable[[Snapshot], None] | None = None,
                should_stop: Callable[[], bool] | None = None) -> int:
    """Drive a pipeline or fleet and emit snapshots; return the count.

    ``once`` suppresses periodic snapshots: the sources are drained
    (or, with ``follow``, polled until they stay idle for
    ``idle_grace`` rounds) and exactly one final snapshot is written.
    Without ``once``, a snapshot is written every ``interval_s`` wall
    seconds plus one final snapshot when every source is exhausted.

    The loop does not drive the LEARN→DETECT flip: every
    :class:`~repro.stream.detector.OnlineCombinedDetector` flips itself
    at the ``detect_after_us`` it was built with (see
    :class:`~repro.stream.shard.MonitorPipelineFactory`).

    Each emitted snapshot is also handed to ``on_snapshot`` (the
    subscriber hook the serving stack attaches); ``out=None`` skips
    rendering entirely for programmatic consumers.  ``should_stop``
    is polled each round — when it returns true the loop winds down
    early with the usual final flushed snapshot, which is how
    ``repro serve`` stops a ``--follow`` monitor cleanly.
    """
    emitted = 0
    idle_rounds = 0
    next_emit = clock() + interval_s

    def emit() -> None:
        nonlocal emitted
        snapshot = _snapshot_of(target)
        if out is not None:
            line = (render_json(snapshot) if json_lines
                    else render_text(snapshot))
            print(line, file=out, flush=True)
        if on_snapshot is not None:
            on_snapshot(snapshot)
        emitted += 1

    while True:
        if should_stop is not None and should_stop():
            break
        moved = target.step()
        if moved:
            idle_rounds = 0
        else:
            if target.exhausted and not follow:
                break
            idle_rounds += 1
            if once and idle_rounds >= idle_grace:
                break
            sleep(poll_sleep_s)
        if not once and clock() >= next_emit:
            emit()
            next_emit = clock() + interval_s
            if max_snapshots is not None and emitted >= max_snapshots:
                return emitted
    # Final snapshot covers everything, including events still held
    # in the reordering buffers.
    target.flush()
    emit()
    return emitted
