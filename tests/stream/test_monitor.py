"""The monitor loop and ``repro monitor`` CLI, wall-clock-free."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.netstack.pcap import PcapError, read_pcap
from repro.netstack.pcapng import (PcapngError, PcapngWriter,
                                   write_pcapng)
from repro.stream import (LiveFlowTable, OnlineChains,
                          OnlineCombinedDetector, PcapngTailSource,
                          PcapTailSource, StreamPipeline, open_capture,
                          render_json, render_text, run_monitor)


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory):
    """A tiny generated capture on disk, plus its names sidecar."""
    path = tmp_path_factory.mktemp("monitor") / "y1.pcap"
    out = io.StringIO()
    assert main(["generate", "--year", "1", "--scale", "0.001",
                 "--out", str(path)], out=out) == 0
    return path


class FakeClock:
    """Monotone clock advancing a fixed amount per reading."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def drive(pipeline, **kwargs) -> tuple[int, str]:
    out = io.StringIO()
    slept = []
    emitted = run_monitor(pipeline, out, sleep=slept.append,
                          clock=FakeClock(), **kwargs)
    return emitted, out.getvalue()


class TestRunMonitor:
    def test_once_emits_single_json_snapshot(self, pcap_path):
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source,
                                  analyzers=[LiveFlowTable(),
                                             OnlineChains()])
        emitted, output = drive(pipeline, json_lines=True, once=True)
        source.close()
        assert emitted == 1
        snapshot = json.loads(output)
        assert snapshot["packets"] > 0
        assert snapshot["events"] > 0
        assert snapshot["reorder_pending"] == 0  # flushed at the end
        assert snapshot["analyzers"]["flows"]["live"] >= 0
        assert snapshot["analyzers"]["chains"]["connections"] > 0

    def test_periodic_snapshots_respect_max(self, pcap_path):
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source, batch_size=8)
        emitted, output = drive(pipeline, json_lines=True,
                                interval_s=2.0, max_snapshots=2)
        source.close()
        assert emitted == 2
        assert len(output.strip().splitlines()) == 2

    def test_text_rendering(self, pcap_path):
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source, analyzers=[LiveFlowTable()])
        emitted, output = drive(pipeline, once=True)
        source.close()
        assert output.startswith("t=")
        assert "packets=" in output
        assert "flows:" in output

    def test_detect_after_flips_detector(self, pcap_path):
        source = PcapTailSource(pcap_path)
        detector = OnlineCombinedDetector()
        pipeline = StreamPipeline(source, analyzers=[detector])
        emitted, output = drive(pipeline, json_lines=True, once=True,
                                detect_after_us=1)
        source.close()
        snapshot = json.loads(output)
        detectors = snapshot["analyzers"]["detector"]
        assert detectors["mode"] == "detect"
        assert detectors["events_scored"] > 0

    def test_follow_once_drains_growing_file(self, pcap_path,
                                             tmp_path):
        """tail -f semantics: bytes appended while the loop polls are
        picked up; idle_grace then ends the once-mode run."""
        data = pcap_path.read_bytes()
        growing = tmp_path / "growing.pcap"
        growing.write_bytes(data[:len(data) // 2])
        source = PcapTailSource(growing, follow=True)
        pipeline = StreamPipeline(source, analyzers=[OnlineChains()])
        appended = []

        def sleep(_seconds: float) -> None:
            # The writer catches up during the monitor's idle sleep.
            if not appended:
                with open(growing, "ab") as stream:
                    stream.write(data[len(data) // 2:])
                appended.append(True)

        out = io.StringIO()
        emitted = run_monitor(pipeline, out, json_lines=True,
                              follow=True, once=True, idle_grace=3,
                              sleep=sleep, clock=FakeClock())
        source.close()
        assert emitted == 1
        assert appended  # the loop did go idle and poll again
        snapshot = json.loads(out.getvalue())
        # Every record in the full file was seen despite the split.
        whole = PcapTailSource(pcap_path)
        count = 0
        while not whole.exhausted:
            count += len(whole.poll(512))
        whole.close()
        assert snapshot["stages"]["frame"]["received"] == count

    def test_follow_once_drains_growing_pcapng(self, pcap_path,
                                               tmp_path):
        """The pcap follow test above, with pcapng framing: a block
        split across two writes must decode once the tail grows."""
        whole = PcapTailSource(pcap_path)
        records = []
        while not whole.exhausted:
            records.extend(whole.poll(512))
        whole.close()
        buffer = io.BytesIO()
        writer = PcapngWriter(buffer)
        for record in records:
            writer.write_record(record)
        data = buffer.getvalue()
        growing = tmp_path / "growing.pcapng"
        # Split inside a block body, not on a boundary.
        growing.write_bytes(data[:len(data) // 2 + 3])
        source = PcapngTailSource(growing, follow=True)
        pipeline = StreamPipeline(source, analyzers=[OnlineChains()])
        appended = []

        def sleep(_seconds: float) -> None:
            if not appended:
                with open(growing, "ab") as stream:
                    stream.write(data[len(data) // 2 + 3:])
                appended.append(True)

        out = io.StringIO()
        emitted = run_monitor(pipeline, out, json_lines=True,
                              follow=True, once=True, idle_grace=3,
                              sleep=sleep, clock=FakeClock())
        source.close()
        assert emitted == 1
        assert appended
        snapshot = json.loads(out.getvalue())
        assert snapshot["stages"]["frame"]["received"] == len(records)


@pytest.fixture(params=["pcap", "pcapng"])
def cut_capture(request, pcap_path, tmp_path):
    """The generated capture, in either format, cut 7 bytes short."""
    whole = pcap_path
    if request.param == "pcapng":
        whole = tmp_path / "whole.pcapng"
        write_pcapng(whole, read_pcap(pcap_path))
    path = tmp_path / f"cut.{request.param}"
    path.write_bytes(whole.read_bytes()[:-7])
    return path


def never_loops(limit: int = 50):
    """An injected ``sleep`` that fails a loop idling forever."""
    calls = []

    def sleep(_seconds: float) -> None:
        calls.append(_seconds)
        assert len(calls) < limit, "monitor kept polling a cut file"

    return sleep


class TestTruncatedCapture:
    """The end-of-file rule, end to end: a finished capture that ends
    mid-record stops the monitor with the format error."""

    @pytest.mark.parametrize("once", [False, True])
    def test_run_monitor_ends_instead_of_looping(self, cut_capture,
                                                 pcap_path, once):
        source = open_capture(cut_capture)
        pipeline = StreamPipeline(source, analyzers=[OnlineChains()])
        with pytest.raises((PcapError, PcapngError),
                           match="truncated"):
            run_monitor(pipeline, io.StringIO(), once=once,
                        follow=False, sleep=never_loops(),
                        clock=FakeClock())
        source.close()
        # Every complete record (all but the cut last one) arrived.
        assert pipeline.counters["ingest"].received \
            == len(read_pcap(pcap_path)) - 1

    @pytest.mark.parametrize("extra", [
        [], ["--once"],
        # A shard worker ships the format error back as itself.
        ["--demux", "--workers", "2", "--once"],
    ])
    def test_cli_monitor_is_one_line_error(self, cut_capture, extra):
        with pytest.raises(SystemExit) as info:
            main(["monitor", str(cut_capture), *extra],
                 out=io.StringIO())
        message = str(info.value)
        assert message.startswith(f"repro monitor: {cut_capture}: ")
        assert "truncated" in message and "\n" not in message

    def test_cli_monitor_empty_file(self, tmp_path):
        empty = tmp_path / "empty.pcap"
        empty.write_bytes(b"")
        with pytest.raises(SystemExit) as info:
            main(["monitor", str(empty), "--json"], out=io.StringIO())
        assert str(empty) in str(info.value)
        assert "truncated pcap global header" in str(info.value)

    def test_cli_analyze_is_one_line_error(self, cut_capture):
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(cut_capture)], out=io.StringIO())
        message = str(info.value)
        assert message.startswith(f"repro analyze: {cut_capture}: ")
        assert "truncated" in message and "\n" not in message

    def test_process_exits_1_without_traceback(self, pcap_path,
                                               tmp_path):
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(pcap_path.read_bytes()[:-7])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "monitor", str(cut)],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stderr.strip().splitlines() == [
            f"repro monitor: {cut}: truncated pcap record body"]

    @pytest.mark.parametrize("extra", [
        [], ["--demux", "--workers", "2"]])
    def test_serve_stops_with_one_line_error(self, cut_capture, extra):
        """The server stops when its monitor thread hits the format
        error (a subprocess, so a server that keeps running fails the
        timeout instead of hanging the suite)."""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             str(cut_capture), "--port", "0", *extra],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stdout.startswith("serving http://")
        [line] = done.stderr.strip().splitlines()
        assert line.startswith(f"repro serve: {cut_capture}: ")
        assert "truncated" in line


class TestRendering:
    def test_render_rejects_plain_dicts(self):
        # The deprecated dict shape was removed in 1.1.0.
        with pytest.raises(TypeError, match="LinkSnapshot"):
            render_json({"b": 1, "a": {"z": 2}})
        with pytest.raises(TypeError, match="LinkSnapshot"):
            render_text({"time_us": 1_500_000})

    def test_render_text_skips_nested_values(self, pcap_path):
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source, analyzers=[OnlineChains()])
        pipeline.run_until_exhausted()
        source.close()
        text = render_text(pipeline.link_snapshot())
        assert text.startswith("t=")
        assert "chains: connections=" in text
        assert "largest" not in text  # nested detail stays out

    def test_typed_snapshot_renders_without_warning(self, pcap_path):
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source, analyzers=[LiveFlowTable()],
                                  link="y1")
        pipeline.run_until_exhausted()
        source.close()
        snapshot = pipeline.link_snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = render_json(snapshot)
            text = render_text(snapshot)
        document = json.loads(line)
        assert document["schema"] == 2
        assert document["link"] == "y1"
        assert text.startswith("t=")

    def test_typed_json_matches_dict_projection(self, pcap_path):
        """``StreamPipeline.snapshot()`` (the plain-dict projection)
        and the typed render stay in lockstep."""
        source = PcapTailSource(pcap_path)
        pipeline = StreamPipeline(source, analyzers=[OnlineChains()])
        pipeline.run_until_exhausted()
        source.close()
        typed = render_json(pipeline.link_snapshot())
        projection = json.dumps(pipeline.snapshot(), sort_keys=True)
        assert typed == projection

    def test_render_rejects_other_types(self):
        with pytest.raises(TypeError):
            render_json(42)  # type: ignore[arg-type]


class TestCli:
    def test_monitor_once_json(self, pcap_path):
        out = io.StringIO()
        assert main(["monitor", str(pcap_path), "--once", "--json"],
                    out=out) == 0
        snapshot = json.loads(out.getvalue())
        assert snapshot["packets"] > 0
        assert snapshot["events"] > 0
        # The names sidecar written by `repro generate` was auto-found:
        # connections are named, not raw ip:port pairs.
        largest = snapshot["analyzers"]["chains"]["largest"]
        assert largest and ":" not in largest[0]["connection"]

    def test_monitor_text_detect_after(self, pcap_path):
        out = io.StringIO()
        assert main(["monitor", str(pcap_path), "--once",
                     "--detect-after", "0.5"], out=out) == 0
        assert "detector: mode=detect" in out.getvalue()

    def test_monitor_explicit_protocol_is_stamped(self, pcap_path):
        out = io.StringIO()
        assert main(["monitor", str(pcap_path), "--once", "--json",
                     "--protocol", "iec104"], out=out) == 0
        assert json.loads(out.getvalue())["protocol"] == "iec104"

    def test_unknown_protocol_lists_the_registry(self, pcap_path,
                                                 capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", str(pcap_path), "--once",
                  "--protocol", "dnp3"], out=io.StringIO())
        message = str(excinfo.value)
        assert "unknown protocol 'dnp3'" in message
        assert "iec104" in message and "modbus" in message

    def test_unknown_link_protocol_suffix_rejected(self, pcap_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "--once",
                  "--link", f"L={pcap_path}@nope"],
                 out=io.StringIO())
        assert "unknown protocol 'nope'" in str(excinfo.value)

    def test_link_protocol_suffix_binds_the_link(self, pcap_path):
        out = io.StringIO()
        assert main(["monitor", "--once", "--json",
                     "--link", f"L={pcap_path}@iec104"],
                    out=out) == 0
        snapshot = json.loads(out.getvalue())
        assert snapshot["links"]["L"]["protocol"] == "iec104"
