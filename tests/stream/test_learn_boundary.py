"""One LEARN→DETECT flip, exact in every feeding shape.

:class:`~repro.stream.detector.OnlineCombinedDetector` flips itself at
``detect_after_us``: every event dispatched before the boundary is
learned, and the first event at or after it is scored.  The pipeline
dispatches events in time order, so ``repro monitor --detect-after``
learns exactly the events that precede the boundary — on one link,
demuxed, and demuxed across shard workers — however the feed is
batched and whenever a link is discovered.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import PacketCapture, extract_apdus
from repro.cli import main
from repro.netstack.addresses import IPv4Address
from repro.netstack.packet import CapturedPacket, decode_records
from repro.netstack.pcap import PcapReader
from repro.stream import (EvictionPolicy, FleetSupervisor, LinkDemux,
                          ListSource, MonitorPipelineFactory,
                          OnlineCombinedDetector, PcapTailSource,
                          StreamPipeline)

#: LEARN→DETECT boundaries (capture seconds) inside the Y1 capture's
#: first window, where links are still being discovered.
BOUNDARIES_S = (203, 205)

SHAPES = {
    "one-link": (),
    "demux": ("--demux",),
    "demux-workers-2": ("--demux", "--workers", "2"),
}


@pytest.fixture(scope="module")
def y1(tmp_path_factory):
    """The 653-packet Y1 capture: path, host names, records."""
    path = tmp_path_factory.mktemp("boundary") / "y1.pcap"
    assert main(["generate", "--year", "1", "--scale", "0.001",
                 "--out", str(path)], out=io.StringIO()) == 0
    names = {IPv4Address.parse(address): name for address, name in
             json.loads(path.with_suffix(".names.json").read_text())
             .items()}
    with open(path, "rb") as stream:
        records = list(PcapReader(stream))
    return path, names, records


@pytest.fixture(scope="module")
def event_times(y1):
    """``time_us`` of every batch-extracted APDU event."""
    _path, names, records = y1
    capture = PacketCapture(packets=list(decode_records(records)),
                            names=names)
    return [event.time_us for event in extract_apdus(capture).events]


@pytest.fixture(scope="module")
def monitor_runs(y1):
    """``repro monitor --once --json`` output per (shape, boundary)."""
    path = y1[0]
    runs = {}
    for shape, flags in SHAPES.items():
        for boundary_s in BOUNDARIES_S:
            out = io.StringIO()
            assert main(["monitor", str(path), "--once", "--json",
                         "--detect-after", str(boundary_s), *flags],
                        out=out) == 0
            runs[shape, boundary_s] = out.getvalue()
    return runs


def link_documents(document: dict) -> list[dict]:
    if document.get("kind") == "fleet":
        return list(document["links"].values())
    return [document]


class TestExactInEveryShape:
    @pytest.mark.parametrize("boundary_s", BOUNDARIES_S)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_learns_exactly_the_events_before_the_boundary(
            self, monitor_runs, event_times, shape, boundary_s):
        links = link_documents(json.loads(monitor_runs[shape,
                                                       boundary_s]))
        boundary_us = boundary_s * 1_000_000
        detectors = [link["analyzers"]["detector"] for link in links]
        assert all(link["order_violations"] == 0 for link in links)
        assert sum(detector["events_learned"]
                   for detector in detectors) \
            == sum(time_us < boundary_us for time_us in event_times)
        assert sum(detector["events_scored"]
                   for detector in detectors) \
            == sum(time_us >= boundary_us for time_us in event_times)

    @pytest.mark.parametrize("boundary_s", BOUNDARIES_S)
    def test_sharded_json_is_byte_identical(self, monitor_runs,
                                            boundary_s):
        assert monitor_runs["demux-workers-2", boundary_s] \
            == monitor_runs["demux", boundary_s]


class TestBatchInvariance:
    def test_one_link_detector_snapshot_ignores_batch_size(self, y1):
        path = y1[0]
        results = []
        for batch_size in (1, 64, 512):
            detector = OnlineCombinedDetector(
                detect_after_us=BOUNDARIES_S[0] * 1_000_000)
            source = PcapTailSource(path)
            pipeline = StreamPipeline(source, analyzers=[detector],
                                      batch_size=batch_size,
                                      eviction=EvictionPolicy())
            pipeline.run_until_exhausted()
            source.close()
            assert pipeline.order_violations == 0
            results.append((detector.snapshot(),
                            detector.first_alert_times()))
        assert results[0][0]["events_learned"] > 0
        assert results[0][0]["events_scored"] > 0
        assert results[0] == results[1] == results[2]


class TestLateLinks:
    def test_link_first_seen_after_the_boundary_learns_nothing(
            self, y1):
        _path, names, records = y1
        boundary_us = BOUNDARIES_S[0] * 1_000_000
        demux = LinkDemux(ListSource(records), names=names)
        fleet = FleetSupervisor(
            demux=demux,
            pipeline_factory=MonitorPipelineFactory(
                names=names, detect_after_us=boundary_us))
        fleet.run_until_exhausted()
        first_seen: dict[str, int] = {}
        for record in records:
            packet = CapturedPacket.decode(record.time_us, record.data)
            first_seen.setdefault(demux.link_name(packet),
                                  record.time_us)
        late = [name for name in fleet.links
                if first_seen[name] >= boundary_us]
        early = [name for name in fleet.links if name not in late]
        scored_late = 0
        for name in late:
            pipeline = fleet.pipeline(name)
            detector = pipeline.analyzers[-1]
            assert isinstance(detector, OnlineCombinedDetector)
            assert detector.events_learned == 0
            assert detector.events_scored == pipeline.events_dispatched
            if detector.events_scored:
                assert detector.snapshot()["mode"] == "detect"
                scored_late += 1
        assert scored_late > 0
        assert sum(fleet.pipeline(name).analyzers[-1].events_learned
                   for name in early) > 0
