"""One malformed frame is counted, never fatal, on every CLI path.

A capture is untrusted input. A frame that is not a well-formed
TCP/IPv4 frame — a TCP checksum mismatch, a runt, an IPv4 header with
TTL 0 — decodes to ``None``: ``repro analyze`` skips it, a one-link
``repro monitor`` counts it in ``stages.frame.errors``, and a demuxed
fleet counts it as ``unrouted``, in process and across shard workers
alike. ``repro serve`` keeps serving. A well-formed frame whose
Modbus ADU does not decode is counted in ``stages.decode.errors``.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable

import pytest

import repro
from repro.cli import main
from repro.netstack.pcap import PcapRecord, read_pcap, write_pcap

from ..netstack.test_decode_totality import with_ttl_zero
from ..protocols.modbus_capture import POLLS, hostile_capture

#: The record each case damages (0-based).
DAMAGED = 102


def flip_last_byte(frame: bytes) -> bytes:
    return frame[:-1] + bytes([frame[-1] ^ 0xFF])


def runt(frame: bytes) -> bytes:
    return frame[:20]


DAMAGES = {"tcp-checksum": flip_last_byte, "runt": runt,
           "ttl-zero": with_ttl_zero}


def write_damaged(capture: Path, path: Path,
                  damage: Callable[[bytes], bytes]) -> Path:
    """``capture`` rewritten to ``path`` with one frame damaged."""
    records = read_pcap(capture)
    record = records[DAMAGED]
    records[DAMAGED] = PcapRecord(time_us=record.time_us,
                                  data=damage(record.data))
    write_pcap(path, records)
    return path


@pytest.fixture(scope="module")
def y1(tmp_path_factory):
    path = tmp_path_factory.mktemp("malformed") / "y1.pcap"
    assert main(["generate", "--year", "1", "--scale", "0.001",
                 "--out", str(path)], out=io.StringIO()) == 0
    return path


@pytest.fixture(scope="module", params=sorted(DAMAGES))
def damaged(request, y1, tmp_path_factory):
    """The Y1 capture with one frame damaged, plus its names sidecar."""
    path = write_damaged(y1, tmp_path_factory.mktemp(request.param)
                         / "y1.pcap", DAMAGES[request.param])
    shutil.copy(y1.with_suffix(".names.json"),
                path.with_suffix(".names.json"))
    return path


def monitor_json(path: Path, *flags: str) -> str:
    out = io.StringIO()
    assert main(["monitor", str(path), "--once", "--json", *flags],
                out=out) == 0
    return out.getvalue()


class TestCli:
    def test_analyze_skips_the_frame(self, damaged):
        out = io.StringIO()
        assert main(["analyze", str(damaged)], out=out) == 0
        assert "TCP flows" in out.getvalue()

    def test_one_link_counts_a_frame_error(self, damaged):
        document = json.loads(monitor_json(damaged))
        assert document["stages"]["frame"]["errors"] == 1

    def test_demux_counts_it_unrouted_in_every_shape(self, damaged):
        in_process = monitor_json(damaged, "--demux")
        assert json.loads(in_process)["unrouted"] == 1
        assert monitor_json(damaged, "--demux", "--workers", "2") \
            == in_process


@pytest.fixture(scope="module")
def hostile_modbus(tmp_path_factory):
    """Four Modbus polls, one response with function octet 0x80."""
    capture = hostile_capture(0x80)
    path = tmp_path_factory.mktemp("modbus") / "modbus.pcap"
    write_pcap(path, [PcapRecord(time_us=packet.time_us,
                                 data=packet.encode())
                      for packet in capture.packets])
    path.with_suffix(".names.json").write_text(json.dumps(
        {str(address): name for address, name in capture.names.items()}))
    return path


class TestHostileModbusAdu:
    """Function octet 0x80 would tokenize as ``X0``, which the
    detector's whitelist refuses with a ``ValueError``; the parser
    rejects it, so monitor counts it instead."""

    @pytest.mark.parametrize("flags", [("--protocol", "modbus"),
                                       ("--demux",)],
                             ids=["one-link", "demux"])
    def test_monitor_counts_a_decode_error(self, hostile_modbus, flags):
        document = json.loads(monitor_json(hostile_modbus, *flags))
        assert document["stages"]["decode"]["errors"] == 1
        assert document["events"] == 2 * POLLS - 1


def fetch_fleet(port: int) -> dict | None:
    """The latest served snapshot, or None before the first poll."""
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/fleet", timeout=10) as reply:
            return json.loads(reply.read())["snapshot"]
    except urllib.error.HTTPError as exc:
        if exc.code == 503:
            return None
        raise


class TestServe:
    @pytest.mark.parametrize("flags", [
        (), ("--demux", "--workers", "2")], ids=["one-link", "workers"])
    def test_serve_keeps_serving(self, y1, tmp_path, flags):
        """A subprocess, so a server that dies fails the assertions
        and one that hangs fails the timeouts."""
        path = write_damaged(y1, tmp_path / "y1.pcap", flip_last_byte)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             str(path), "--port", "0", "--interval", "0.2", *flags],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert process.stdout is not None
            match = re.search(r"http://[0-9.]+:([0-9]+)",
                              process.stdout.readline())
            assert match
            port = int(match.group(1))
            deadline = time.monotonic() + 30
            counted = None
            while time.monotonic() < deadline:
                snapshot = fetch_fleet(port)
                if snapshot is not None:
                    counted = (snapshot["unrouted"] if flags
                               else snapshot["stages"]["frame"]["errors"])
                    if counted == 1:
                        break
                time.sleep(0.1)
            assert counted == 1
        finally:
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=30)
        assert code == 0
