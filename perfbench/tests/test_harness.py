"""Tests of the benchmark harness itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from harness import (REFERENCE_S, LapTimer, Span, Tracer,  # noqa: E402
                     coverage, min_samples, percentile, samples_beyond,
                     self_seconds_by_name, self_times)


# -- percentiles -----------------------------------------------------------

class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        assert percentile(values, 50) == 500
        assert percentile(values, 99) == 990
        assert percentile(list(reversed(values)), 99) == 990

    def test_p99_needs_ten_samples_beyond(self):
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert percentile([1.0] * 1000, 99) == 1.0
        with pytest.raises(ValueError, match="10 samples beyond"):
            percentile([1.0] * 999, 99)

    def test_min_samples(self):
        assert min_samples(99) == 1000
        assert min_samples(50) == 20
        assert min_samples(99.9) == 10000

    def test_p50_of_a_small_sample_is_refused(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 19, 50)
        assert percentile(list(range(20)), 50) == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 100, 100)


# -- spans -----------------------------------------------------------------

class TestSelfTime:
    def test_nested_children_subtract_only_from_their_parent(self):
        spans = [Span("a", 0, 100, -1), Span("b", 10, 60, 0),
                 Span("c", 20, 30, 1)]
        assert self_times(spans) == [50, 40, 10]

    def test_back_to_back_children(self):
        spans = [Span("a", 0, 100, -1), Span("b", 10, 40, 0),
                 Span("c", 40, 70, 0)]
        assert self_times(spans) == [40, 30, 30]

    def test_overlapping_children_count_once(self):
        spans = [Span("a", 0, 100, -1), Span("b", 10, 50, 0),
                 Span("c", 30, 70, 0)]
        assert self_times(spans)[0] == 40

    def test_child_outside_parent_is_clipped(self):
        spans = [Span("a", 0, 100, -1), Span("b", 90, 120, 0)]
        assert self_times(spans)[0] == 90

    def test_tracer_records_parents_and_sums_by_name(self):
        ticks = iter(range(0, 1000, 10))
        tracer = Tracer(clock=lambda: next(ticks))
        leaf = tracer.wrap("leaf", lambda: None)

        def middle():
            leaf()
            leaf()

        with tracer.span(harness.REPLAY):
            tracer.wrap("middle", middle)()
        names = [(span.name, span.parent) for span in tracer.spans]
        assert names == [("replay", -1), ("middle", 0), ("leaf", 1),
                         ("leaf", 1)]
        # replay 0..70, middle 10..60, leaves 20..30 and 40..50.
        assert self_seconds_by_name(tracer.spans) == pytest.approx({
            "replay": 20e-9, "middle": 30e-9, "leaf": 20e-9})
        assert coverage(tracer.spans) == pytest.approx(50 / 70)
        assert tracer.calls("leaf") == 2


# -- lap timer -------------------------------------------------------------

class TestLapTimer:
    def test_laps_scale_by_the_reference_loops_around_them(self):
        ticks = iter([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])
        speeds = iter([REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S])
        timer = LapTimer(clock=lambda: next(ticks),
                         reference=lambda: next(speeds))
        assert timer.mark() is False
        timer.mark()
        timer.mark()
        # Lap 1 (1 s) ran at twice the reference time on average, lap 2
        # (2 s) too: each scales to half its wall time.
        assert timer.laps == [(1.0, 0.5), (2.0, 1.0)]
        assert timer.wall_s == 3.0 and timer.scaled_s == 1.5

    def test_unscaled_timer_runs_no_reference_loop(self):
        ticks = iter([0.0, 0.0, 2.0, 2.0])

        def refuse() -> float:
            raise AssertionError("reference loop ran")

        timer = LapTimer(scaled=False, clock=lambda: next(ticks),
                         reference=refuse)
        timer.mark()
        timer.mark()
        assert timer.laps == [(2.0, 2.0)]


# -- resources ---------------------------------------------------------------

def test_peak_rss_restarts_from_the_current_size_after_a_reset():
    block = b"\x01" * (64 << 20)  # 64 MiB, resident until deleted
    peak = harness.peak_rss_kb()
    del block
    harness.reset_peak_rss()
    assert harness.peak_rss_kb() <= peak - (32 << 10)


# -- the benchmark's declared contract -------------------------------------

def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    document = benchmark_json()
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] \
        == list(run.PER_LAYER)
    from workloads import WORKLOADS
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert sorted(run.SPANS) == sorted(WORKLOADS)


def test_rationale_records_the_seeds_and_every_metric():
    rationale = json.loads((BENCH / "RATIONALE.json").read_text())
    assert rationale["seeds"]["default"] == run.DEFAULT_SEED
    assert rationale["seeds"]["held_out"] != run.DEFAULT_SEED
    mapped = {metric for row in rationale["layer_map"]
              for metric in row["metrics"]}
    layers = {name for name, _unit in run.PER_LAYER
              if not name.startswith(("trace.", "poll_", "query_",
                                      "error_rate"))}
    assert layers == mapped


# -- smoke runs --------------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["fleet-replay", "batch-analysis",
                                      "serve-polls"])
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    result, lines = run.run(workload, seed=104, seconds=0.5, trace=trace,
                            scale=0.001, work_dir=tmp_path)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == dict(expected)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    if workload in ("fleet-replay", "serve-polls"):
        assert metrics["netstack.packet.decodes_per_packet"] == 2.0
        assert metrics["netstack.checksum.calls_per_packet"] == 4.0
    if workload == "fleet-replay":
        assert metrics["stream.shard.spawn_s"] > 0
        assert metrics["stream.shard.status_s"] > 0
        assert metrics["stream.shard.worker_cpu_s"] > 0
    if workload == "batch-analysis":
        assert metrics["netstack.packet.decodes_per_packet"] == 1.0
        assert metrics["netstack.checksum.calls_per_packet"] == 2.0
    if workload == "serve-polls":
        assert metrics["serve.broadcast.serializations_per_poll"] == 1.0
        assert metrics["poll_p99_ms"] >= metrics["poll_p50_ms"] > 0
    assert metrics["trace.coverage"] >= run.MIN_COVERAGE


def test_missing_sources_fail_without_a_result(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fleet-replay"]) != 0
    assert capsys.readouterr().out == ""
