"""Layer-attributed benchmark of the capture -> monitor -> serve path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-replay --seed 104 \
        --seconds 20 --trace 0

The run generates a seeded Y1 capture, sets the system up several
times (``setup_s`` is the median), replays the capture once to warm
up, then replays it for ``--seconds`` and checks every replay's
outputs. Times are scaled to a reference host speed lap by lap (see
``harness.LapTimer``); the wall-clock throughput is printed too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends
half the time untraced and half with span hooks on every layer
boundary, and reports the per-layer metrics (self time per replay,
counts, the tracing overhead and how much of the wall time the layers
cover).

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, seeds and the layer map are explained in
``perfbench/RATIONALE.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The seed a run uses when none is given (``CaptureConfig``'s own).
DEFAULT_SEED = 104

#: End-to-end metrics, reported by every workload with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_pps", "packets/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics, reported by every workload with ``--trace 1``
#: (0 where the workload does not run, or cannot see, the layer).
PER_LAYER = (
    ("datasets.generate_s", "s"),
    ("netstack.pcapng.write_s", "s"),
    ("netstack.pcap.write_s", "s"),
    ("stream.ingest.poll_s", "s"),
    ("stream.ingest.records", "count"),
    ("netstack.pcap.read_s", "s"),
    ("netstack.packet.decode_s", "s"),
    ("netstack.packet.decodes_per_packet", "ratio"),
    ("netstack.checksum.calls_per_packet", "ratio"),
    ("stream.fleet.route_s", "s"),
    ("stream.fleet.round_s", "s"),
    ("stream.fleet.routed", "count"),
    ("stream.fleet.unrouted", "count"),
    ("stream.fleet.links", "count"),
    ("stream.fleet.queue_max", "count"),
    ("stream.pipeline.step_s", "s"),
    ("stream.pipeline.filtered_share", "ratio"),
    ("stream.pipeline.reorder_max", "count"),
    ("iec104.parse_s", "s"),
    ("iec104.apdus", "count"),
    ("iec104.error_share", "ratio"),
    ("stream.analyzers.flows_s", "s"),
    ("stream.analyzers.chains_s", "s"),
    ("stream.analyzers.sessions_s", "s"),
    ("stream.detector.detector_s", "s"),
    ("stream.snapshots.snapshot_s", "s"),
    ("stream.snapshots.bytes_per_poll", "bytes"),
    ("stream.shard.spawn_s", "s"),
    ("stream.shard.status_s", "s"),
    ("stream.shard.gather_s", "s"),
    ("stream.shard.worker_cpu_s", "s"),
    ("stream.shard.parallelism", "ratio"),
    ("serve.history.record_s", "s"),
    ("serve.history.compact_s", "s"),
    ("serve.history.compactions", "count"),
    ("serve.history.query_s", "s"),
    ("serve.broadcast.publish_s", "s"),
    ("serve.broadcast.serializations_per_poll", "ratio"),
    ("serve.broadcast.skipped_polls", "count"),
    ("serve.wire.read_s", "s"),
    ("serve.app.respond_s", "s"),
    ("analysis.extract_s", "s"),
    ("analysis.chains_s", "s"),
    ("analysis.flows_s", "s"),
    ("poll_p50_ms", "ms"),
    ("poll_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Per-layer metric -> the ``Replay.counts`` key it averages.
COUNTS = {
    "stream.ingest.records": "records",
    "stream.fleet.routed": "routed",
    "stream.fleet.unrouted": "unrouted",
    "stream.fleet.links": "links",
    "stream.fleet.queue_max": "queue_max",
    "stream.pipeline.filtered_share": "filtered_share",
    "stream.pipeline.reorder_max": "reorder_max",
    "iec104.apdus": "apdus",
    "iec104.error_share": "error_share",
    "stream.snapshots.bytes_per_poll": "bytes_per_poll",
    "stream.shard.worker_cpu_s": "worker_cpu_s",
    "stream.shard.parallelism": "parallelism",
    "serve.broadcast.serializations_per_poll": "serializations_per_poll",
    "serve.broadcast.skipped_polls": "skipped_polls",
}

#: Prefix of the spans of the sharded replays that follow the traced
#: ones; their self times are per sharded replay.
SHARD = "stream.shard."

#: Layers the traced run must see on each workload; when the layers
#: cover less than :data:`MIN_COVERAGE` of the wall time, the ones
#: with no span at all are named as missing.
SPANS = {
    "fleet-replay": (
        "stream.ingest.poll", "netstack.packet.decode",
        "stream.fleet.route", "stream.fleet.round",
        "stream.pipeline.step", "iec104.parse", "stream.analyzers.flows",
        "stream.analyzers.chains", "stream.analyzers.sessions",
        "stream.detector.detector", "stream.snapshots.snapshot"),
    "batch-analysis": (
        "netstack.pcap.read", "netstack.packet.decode", "iec104.parse",
        "analysis.extract", "analysis.chains", "analysis.flows"),
    "serve-polls": (
        "stream.ingest.poll", "netstack.packet.decode",
        "stream.fleet.route", "stream.pipeline.step", "iec104.parse",
        "stream.snapshots.snapshot", "serve.history.record",
        "serve.history.compact", "serve.history.query",
        "serve.broadcast.publish", "serve.wire.read",
        "serve.app.respond"),
}

#: The layer-sum check: layers must cover this share of wall time.
MIN_COVERAGE = 0.9


def measure(workload, seconds: float, tracer, percentiles: bool) -> list:
    """Replay while another replay fits in ``seconds``, and beyond
    that only until the sample suffices."""
    replays: list = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        replays.append(workload.replay(tracer))
        finished = time.perf_counter()
        fits = finished - start + (finished - began) <= seconds
        if not fits and workload.enough(replays, percentiles):
            return replays


def throughput(replays: list) -> float:
    """Median scaled throughput (the end-to-end metric)."""
    return statistics.median(replay.scaled_pps for replay in replays)


def wall_throughput(replays: list) -> float:
    return statistics.median(replay.throughput_pps for replay in replays)


def latency_metrics(replays: list) -> dict[str, float]:
    """Poll and query p50/p99 that the samples support (serve-polls
    only; the traced run replays until both p99s are supported)."""
    from harness import percentile
    values: dict[str, float] = {}
    for kind in ("poll", "query"):
        samples = [ms for replay in replays
                   for ms in getattr(replay, f"{kind}_ms")]
        for q in (50, 99):
            try:
                values[f"{kind}_p{q}_ms"] = percentile(samples, q)
            except ValueError:
                pass
    return values


def end_to_end(setups: list, replays: list,
               peak_kb: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup.scaled_s for setup in setups),
        "throughput_pps": throughput(replays),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(workload, setups: list, plain: list, traced: list,
              after: list, tracer) -> dict[str, float]:
    from harness import REPLAY, coverage, self_seconds_by_name
    from probes import CHECKSUM_CALLS
    values = {name: 0.0 for name, _unit in PER_LAYER}
    count = len(traced)
    own = self_seconds_by_name(tracer.spans)
    for name, seconds in own.items():
        runs = len(after) if name.startswith(SHARD) else count
        if f"{name}_s" in values and runs:
            values[f"{name}_s"] = seconds / runs
    values["trace.unattributed_s"] = own.get(REPLAY, 0.0) / count
    values["datasets.generate_s"] = statistics.median(
        setup.generate_s for setup in setups)
    write = ("netstack.pcap.write_s" if workload.suffix == ".pcap"
             else "netstack.pcapng.write_s")
    values[write] = statistics.median(setup.write_s for setup in setups)
    for metric, key in COUNTS.items():
        samples = [replay.counts[key] for replay in (*traced, *after)
                   if key in replay.counts]
        if samples:
            values[metric] = statistics.mean(samples)
    values["serve.history.compactions"] = (
        tracer.calls("serve.history.compact") / count)
    packets = workload.packets * count
    values["netstack.packet.decodes_per_packet"] = (
        tracer.calls("netstack.packet.decode") / packets)
    values["netstack.checksum.calls_per_packet"] = (
        tracer.counts.get(CHECKSUM_CALLS, 0) / packets)
    values.update(latency_metrics(plain))
    values["trace.overhead"] = (1.0 - wall_throughput(traced)
                                / wall_throughput(plain))
    values["trace.coverage"] = coverage(tracer.spans)
    return values


def layer_sum_report(workload, tracer, share: float) -> str | None:
    """Why the layers do not sum to end to end, or None when they do."""
    if share >= MIN_COVERAGE:
        return None
    seen = {span.name for span in tracer.spans}
    missing = [name for name in SPANS[workload.name] if name not in seen]
    detail = (f"no spans for {', '.join(missing)}" if missing else
              "every expected layer has spans; the rest is the "
              "benchmark loop or an unwrapped layer")
    return (f"layer-sum check failed on {workload.name}: layers cover "
            f"{share:.1%} of the traced wall time (need "
            f"{MIN_COVERAGE:.0%}); {detail}")


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float, work_dir: Path) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and human lines."""
    from harness import Tracer, peak_rss_kb, reset_peak_rss
    from probes import netstack_probes
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale, work_dir)
    try:
        setups = workload.prepare()
        # Set-up generated captures and ran the output references
        # through other workloads' paths: peak_rss_mb covers replays.
        gc.collect()
        reset_peak_rss()
        # The first replay pays one-time costs (lazy imports, first
        # sqlite and socket use) that later ones do not: it is checked
        # but not timed.
        warm_up = workload.replay(None)
        plain = measure(workload, seconds / 2 if trace else seconds,
                        None, percentiles=trace)
        peak_kb = peak_rss_kb()
        replays = [warm_up, *plain]
        lines = [f"{name}: seed {seed}, {workload.packets} packets per "
                 f"replay, {len(plain)} untraced replays at "
                 f"{wall_throughput(plain):.6g} wall packets/s"]
        if trace:
            tracer = Tracer()
            # The hooks are process-wide, so they are off before any
            # worker process forks.
            with netstack_probes(tracer):
                traced = measure(workload, seconds / 2, tracer,
                                 percentiles=False)
            after = workload.after(tracer)
            replays += [*traced, *after]
            values = per_layer(workload, setups, plain, traced, after,
                               tracer)
            units = dict(PER_LAYER)
            lines.append(f"{len(traced)} traced replays, {len(after)} "
                         f"other checked replays, {len(tracer.spans)} "
                         f"spans")
            report = layer_sum_report(workload, tracer,
                                      values["trace.coverage"])
            if report is not None:
                lines.append(report)
        else:
            after = workload.after(None)
            replays += after
            values = end_to_end(setups, plain, peak_kb)
            units = dict(END_TO_END)
            for metric, value in latency_metrics(plain).items():
                lines.append(f"{metric} = {value:.6g} ms")
            lines += [f"checked replay of another path: "
                      f"{replay.throughput_pps:.6g} wall packets/s "
                      f"(not a metric)" for replay in after]
    finally:
        workload.close()
    attempted = sum(replay.attempted for replay in replays)
    failed = sum(replay.failed for replay in replays)
    if trace:
        values["error_rate"] = failed / attempted
    else:
        lines.append(f"error_rate = {failed / attempted:.6g} ratio "
                     f"({failed} of {attempted} checks failed)")
    lines += [f"{metric} = {value:.6g} {units[metric]}"
              for metric, value in values.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer-attributed benchmark of the capture -> "
                    "monitor -> serve path.")
    parser.add_argument("--workload", required=True,
                        choices=("fleet-replay", "batch-analysis",
                                 "serve-polls"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import SCALE

    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), SCALE, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
