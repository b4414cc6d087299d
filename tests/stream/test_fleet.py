"""Fleet supervision: per-link parity, aggregation, demux, CLI.

The acceptance bar for the fleet layer is *byte-identical* per-link
snapshots: a link monitored as one member of a fleet — whether fed
from its own pcap or demultiplexed out of one merged pcapng — must
produce exactly the JSON its standalone single-pipeline ``repro
monitor`` run produces. The aggregate `FleetSnapshot` totals must be
the exact sums of the link totals.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.datasets import CaptureConfig, generate_capture
from repro.netstack.packet import CapturedPacket
from repro.netstack.pcap import PcapRecord, write_pcap
from repro.netstack.pcapng import write_pcapng
from repro.stream import (DEAD_AFTER_US, IDLE_AFTER_US, EvictionPolicy,
                          FleetSnapshot, FleetSupervisor, LinkDemux,
                          LinkHealth, LinkSnapshot, ListSource,
                          LiveFlowTable, MonitorPipelineFactory,
                          OnlineChains, OnlineCombinedDetector,
                          PcapngTailSource, PcapTailSource,
                          RollingSessionWindows, StreamPipeline,
                          link_health, open_capture, open_fleet,
                          render_json)
from repro.stream import fleet as fleet_module


def link_name(packet: CapturedPacket, names) -> str:
    src = names.get(packet.ip.src, str(packet.ip.src))
    dst = names.get(packet.ip.dst, str(packet.ip.dst))
    return "-".join(sorted((src, dst)))


@pytest.fixture(scope="module")
def fleet_fixture(tmp_path_factory):
    """A capture split per link, plus the merged pcapng form.

    Returns (names, per-link pcap paths, merged pcapng path); the
    per-link split uses exactly the demux routing rule, so the two
    feeding shapes cover the same record universe.
    """
    root = tmp_path_factory.mktemp("fleet")
    capture = generate_capture(1, CaptureConfig(time_scale=0.001))
    names = capture.host_names()
    records = [PcapRecord(time_us=packet.time_us,
                          data=packet.encode())
               for packet in capture.packets]
    split: dict[str, list[PcapRecord]] = {}
    for record in records:
        packet = CapturedPacket.decode(record.time_us, record.data)
        if packet is None:
            continue
        split.setdefault(link_name(packet, names), []).append(record)
    assert len(split) >= 3, "need a >=3-link fleet for the suite"
    link_paths = {}
    sidecar = json.dumps({str(address): name
                          for address, name in names.items()})
    for name, link_records in split.items():
        path = root / f"{name}.pcap"
        write_pcap(path, link_records)
        path.with_suffix(".names.json").write_text(sidecar)
        link_paths[name] = path
    merged = root / "merged.pcapng"
    write_pcapng(merged, records)
    merged.with_suffix(".names.json").write_text(sidecar)
    return names, link_paths, merged


def make_pipeline(source, names, link: str) -> StreamPipeline:
    """The monitor CLI's pipeline shape, one fresh instance."""
    return StreamPipeline(
        source, names=names,
        analyzers=[LiveFlowTable(), OnlineChains(),
                   RollingSessionWindows(),
                   OnlineCombinedDetector()],
        eviction=EvictionPolicy(), link=link)


def standalone_snapshots(names, link_paths) -> dict[str, str]:
    """Each link through its own single pipeline -> rendered JSON."""
    rendered = {}
    for name, path in sorted(link_paths.items()):
        source = PcapTailSource(path)
        pipeline = make_pipeline(source, names, name)
        pipeline.run_until_exhausted()
        source.close()
        rendered[name] = render_json(pipeline.link_snapshot())
    return rendered


class TestFleetParity:
    def test_separate_pcaps_match_standalone_runs(self,
                                                  fleet_fixture):
        names, link_paths, _merged = fleet_fixture
        expected = standalone_snapshots(names, link_paths)
        fleet = FleetSupervisor()
        sources = []
        for name, path in sorted(link_paths.items()):
            source = PcapTailSource(path)
            sources.append(source)
            fleet.add_link(make_pipeline(source, names, name))
        fleet.run_until_exhausted()
        for source in sources:
            source.close()
        snapshot = fleet.snapshot()
        assert len(snapshot.links) == len(expected)
        for link in snapshot.links:
            assert render_json(link) == expected[link.link], link.link

    def test_demuxed_pcapng_matches_standalone_runs(self,
                                                    fleet_fixture):
        names, link_paths, merged = fleet_fixture
        expected = standalone_snapshots(names, link_paths)
        parent = PcapngTailSource(merged)
        demux = LinkDemux(parent, names=names)
        fleet = FleetSupervisor(
            demux=demux,
            pipeline_factory=lambda name, source:
                make_pipeline(source, names, name))
        fleet.run_until_exhausted()
        parent.close()
        snapshot = fleet.snapshot()
        assert {link.link for link in snapshot.links} \
            == set(expected)
        for link in snapshot.links:
            assert render_json(link) == expected[link.link], link.link
        assert demux.unrouted == 0

    def test_demux_names_unnamed_hosts_by_address(self, fleet_fixture):
        """Hosts missing from the names map are named by their dotted
        quad, and an empty name still counts as a name: every routed
        record sits on the link the reference rule names."""
        names, _link_paths, merged = fleet_fixture
        hosts = sorted(names)
        partial = {address: names[address] for address in hosts[1::2]}
        partial[hosts[1]] = ""
        parent = PcapngTailSource(merged)
        demux = LinkDemux(parent, names=partial)
        while not demux.source.exhausted:
            demux.pump()
        parent.close()
        routed = 0
        for name in demux.link_names:
            link = demux.link_source(name)
            for record in link.poll(link.pending):
                packet = CapturedPacket.decode(record.time_us,
                                               record.data)
                assert link_name(packet, partial) == name
                routed += 1
        assert routed == demux.routed > 0
        assert demux.unrouted == 0
        unnamed = [str(address) for address in hosts[0::2]]
        assert any(host in name for host in unnamed
                   for name in demux.link_names)
        assert any(name.startswith("-") or name.endswith("-")
                   for name in demux.link_names)

    def test_totals_are_sums_of_link_totals(self, fleet_fixture):
        names, link_paths, _merged = fleet_fixture
        fleet = FleetSupervisor()
        sources = []
        for name, path in sorted(link_paths.items()):
            source = PcapTailSource(path)
            sources.append(source)
            fleet.add_link(make_pipeline(source, names, name))
        fleet.run_until_exhausted()
        for source in sources:
            source.close()
        snapshot = fleet.snapshot()
        links = snapshot.links
        assert snapshot.packets == sum(l.packets for l in links) > 0
        assert snapshot.events == sum(l.events for l in links) > 0
        assert snapshot.failures == sum(l.failures for l in links)
        assert snapshot.late_items == sum(l.late_items
                                          for l in links)
        assert snapshot.order_violations == 0
        for stage, counters in snapshot.stages.items():
            assert counters.received == sum(
                l.stages[stage].received for l in links)
            assert counters.emitted == sum(
                l.stages[stage].emitted for l in links)
        # Analyzer rollup sums the integer counters.
        assert snapshot.analyzers["chains"]["connections"] == sum(
            l.analyzers["chains"]["connections"] for l in links)
        assert "largest" not in snapshot.analyzers["chains"]
        assert "mode" not in snapshot.analyzers["detector"]


def idle_pipeline(link: str, now_us: int) -> StreamPipeline:
    pipeline = StreamPipeline(ListSource([]), names={}, link=link)
    pipeline.now_us = now_us
    return pipeline


class TestHealth:
    def test_policy_thresholds_are_t3_scaled(self):
        assert IDLE_AFTER_US == 20_000_000  # one t3
        assert DEAD_AFTER_US == 60_000_000  # eviction timeout
        assert link_health(0) is LinkHealth.LIVE
        assert link_health(19_999_999) is LinkHealth.LIVE
        assert link_health(20_000_000) is LinkHealth.IDLE
        assert link_health(59_999_999) is LinkHealth.IDLE
        assert link_health(60_000_000) is LinkHealth.DEAD

    def test_fleet_health_lag_is_relative_to_fleet_clock(self):
        fleet = FleetSupervisor()
        fleet.add_link(idle_pipeline("fresh", 100_000_000))
        fleet.add_link(idle_pipeline("quiet", 75_000_000))
        fleet.add_link(idle_pipeline("gone", 30_000_000))
        assert fleet.now_us == 100_000_000
        assert fleet.health() == {"fresh": "live", "quiet": "idle",
                                  "gone": "dead"}
        counts = fleet.snapshot().health_counts
        assert counts == {"live": 1, "idle": 1, "dead": 1}


def link_snapshot(name: str, **overrides) -> LinkSnapshot:
    fields = dict(link=name, time_us=0, packets=0, events=0,
                  failures=0, late_items=0, order_violations=0,
                  reorder_pending=0, reassemblers=0)
    fields.update(overrides)
    return LinkSnapshot(**fields)


class TestFleetSnapshot:
    def test_top_anomalies_ranked_and_zero_free(self):
        links = (
            link_snapshot("calm"),
            link_snapshot("loud", analyzers={"detector":
                                             {"alerts": 5}}),
            link_snapshot("warm", failures=2),
            link_snapshot("soft", analyzers={"detector":
                                             {"alerts": 1}}),
        )
        snapshot = FleetSnapshot.from_links(links, now_us=0)
        assert [entry.link for entry in snapshot.top_anomalies] \
            == ["loud", "soft", "warm"]
        assert snapshot.top_anomalies[0].alerts == 5

    def test_rollup_skips_non_integer_fields(self):
        links = (
            link_snapshot("a", analyzers={"detector":
                                          {"alerts": 1,
                                           "mode": "learn",
                                           "live": True}}),
            link_snapshot("b", analyzers={"detector": {"alerts": 2}}),
        )
        snapshot = FleetSnapshot.from_links(links, now_us=0)
        assert snapshot.analyzers["detector"] == {"alerts": 3}

    def test_json_document_shape(self):
        snapshot = FleetSnapshot.from_links(
            (link_snapshot("a", packets=3, events=2),), now_us=7,
            health={"a": "live"})
        document = snapshot.to_json()
        assert document["schema"] == 2
        assert document["kind"] == "fleet"
        assert document["link_count"] == 1
        assert document["links"]["a"]["packets"] == 3
        assert document["health_counts"]["live"] == 1
        json.dumps(document)  # wire form is JSON-serializable


class TestSupervisor:
    def test_duplicate_or_nameless_links_rejected(self):
        fleet = FleetSupervisor()
        fleet.add_link(idle_pipeline("one", 0))
        with pytest.raises(ValueError, match="duplicate"):
            fleet.add_link(idle_pipeline("one", 0))
        with pytest.raises(ValueError, match="needs a name"):
            fleet.add_link(StreamPipeline(ListSource([])))
        with pytest.raises(ValueError, match="pipeline_factory"):
            FleetSupervisor(demux=LinkDemux(ListSource([])))


class TestOpenFleet:
    """The one recipe that opens a fleet's captures owns them."""

    @staticmethod
    def record_opens(monkeypatch) -> list:
        """Every capture the recipe opens, in order."""
        opened: list = []

        def open_and_record(path, follow=False):
            source = open_capture(path, follow)
            opened.append(source)
            return source

        monkeypatch.setattr(fleet_module, "open_capture",
                            open_and_record)
        return opened

    def test_close_closes_what_it_opened(self, fleet_fixture,
                                         monkeypatch):
        names, link_paths, merged = fleet_fixture
        opened = self.record_opens(monkeypatch)
        links = tuple((name, str(path))
                      for name, path in sorted(link_paths.items()))
        kept = {name for name, _path in links[:2]}
        fleet = open_fleet(MonitorPipelineFactory(names=names),
                           links=links, accept=kept.__contains__)
        demuxed = open_fleet(MonitorPipelineFactory(names=names),
                             path=str(merged), names=names)
        assert fleet.links == sorted(kept)
        assert len(opened) == 3
        assert not any(source._stream.closed for source in opened)
        fleet.run_until_exhausted()
        demuxed.run_until_exhausted()
        fleet.close()
        demuxed.close()
        assert all(source._stream.closed for source in opened)
        FleetSupervisor().close()  # a fleet built by hand owns none

    def test_a_failed_open_closes_the_captures_before_it(
            self, fleet_fixture, tmp_path, monkeypatch):
        names, link_paths, _merged = fleet_fixture
        opened = self.record_opens(monkeypatch)
        name, path = next(iter(sorted(link_paths.items())))
        with pytest.raises(FileNotFoundError):
            open_fleet(MonitorPipelineFactory(names=names),
                       links=((name, str(path)),
                              ("missing", str(tmp_path / "no.pcap"))))
        assert len(opened) == 1
        assert opened[0]._stream.closed


class TestCli:
    def test_monitor_multi_link_json(self, fleet_fixture):
        _names, link_paths, _merged = fleet_fixture
        chosen = sorted(link_paths.items())[:3]
        argv = ["monitor", "--once", "--json"]
        for name, path in chosen:
            argv += ["--link", f"{name}={path}"]
        out = io.StringIO()
        assert main(argv, out=out) == 0
        document = json.loads(out.getvalue())
        assert document["kind"] == "fleet"
        assert sorted(document["links"]) \
            == [name for name, _path in chosen]
        assert document["packets"] == sum(
            link["packets"] for link in document["links"].values())

    def test_monitor_demux_text_dashboard(self, fleet_fixture):
        _names, link_paths, merged = fleet_fixture
        out = io.StringIO()
        assert main(["monitor", str(merged), "--demux", "--once"],
                    out=out) == 0
        text = out.getvalue()
        assert text.startswith("fleet t=")
        assert f"links={len(link_paths)}" in text
        for name in list(link_paths)[:3]:
            assert f" {name}: " in text

    def test_monitor_rejects_ambiguous_inputs(self, fleet_fixture):
        _names, link_paths, merged = fleet_fixture
        name, path = next(iter(link_paths.items()))
        with pytest.raises(SystemExit):
            main(["monitor", str(merged), "--link", f"{name}={path}",
                  "--once"])
        with pytest.raises(SystemExit):
            main(["monitor", "--demux", "--once",
                  "--link", f"{name}={path}"])
        with pytest.raises(SystemExit):
            main(["monitor", "--once"])
        with pytest.raises(SystemExit):
            main(["monitor", "--once", "--link", "bad-spec"])
