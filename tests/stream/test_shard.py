"""Sharded fleet: single-process parity, wire contract, CLI.

The acceptance bar mirrors the fleet suite's, one level up: a
:class:`ShardedFleetSupervisor` spread over N worker processes must
produce a ``FleetSnapshot`` *field-for-field identical* to the
single-process ``FleetSupervisor`` run over the same capture — for
every worker count, and over both feeding shapes (one merged demuxed
pcapng, per-link pcap files).
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import time

import pytest

from repro.cli import main
from repro.datasets import CaptureConfig, generate_capture
from repro.netstack.packet import CapturedPacket
from repro.netstack.pcap import PcapRecord, write_pcap
from repro.netstack.pcapng import write_pcapng
from repro.stream import (FleetSnapshot, FleetSupervisor, LinkDemux,
                          LinkHealthPolicy, LinkSnapshot, ListSource,
                          MonitorPipelineFactory, PcapngTailSource,
                          PcapTailSource, ShardAccept,
                          ShardedFleetSupervisor, ShardWorkerError,
                          StageCounters, WorkerConfig, render_json,
                          shard_of)


def link_name(packet: CapturedPacket, names) -> str:
    src = names.get(packet.ip.src, str(packet.ip.src))
    dst = names.get(packet.ip.dst, str(packet.ip.dst))
    return "-".join(sorted((src, dst)))


@pytest.fixture(scope="module")
def shard_fixture(tmp_path_factory):
    """(names, per-link pcap paths, merged pcapng path)."""
    root = tmp_path_factory.mktemp("shard")
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
        link_paths[name] = path
    merged = root / "merged.pcapng"
    write_pcapng(merged, records)
    merged.with_suffix(".names.json").write_text(sidecar)
    return names, link_paths, merged


def drain(target, timeout_s: float = 60.0) -> None:
    """Drive a sharded supervisor until every worker is exhausted."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        moved = target.step()
        if not moved and target.exhausted:
            return
        if not moved:
            time.sleep(0.01)
    raise TimeoutError("sharded fleet did not drain in time")


def reference_snapshot(merged, names):
    """The single-process demux fleet run the shards must match."""
    factory = MonitorPipelineFactory(names=names)
    source = PcapngTailSource(str(merged), follow=False)
    try:
        fleet = FleetSupervisor(
            demux=LinkDemux(source, names=names),
            pipeline_factory=factory)
        fleet.run_until_exhausted()
        return fleet.snapshot()
    finally:
        source.close()


# -- partitioning ----------------------------------------------------

class TestShardOf:
    def test_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for name in ("C1-O12", "C2-O3", "10.0.0.1-10.0.0.2"):
                first = shard_of(name, shards)
                assert first == shard_of(name, shards)
                assert 0 <= first < shards

    def test_single_shard_owns_everything(self):
        assert shard_of("anything", 1) == 0

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_of("x", 0)

    def test_accept_matches_shard_of_and_partitions(self):
        names = [f"C{i}-O{j}" for i in range(3) for j in range(9)]
        accepts = [ShardAccept(shard, 4) for shard in range(4)]
        for name in names:
            owners = [a for a in accepts if a(name)]
            assert len(owners) == 1
            assert owners[0].shard == shard_of(name, 4)

    def test_accept_validates_and_pickles(self):
        with pytest.raises(ValueError, match="outside"):
            ShardAccept(4, 4)
        accept = ShardAccept(1, 3)
        clone = pickle.loads(pickle.dumps(accept))
        assert clone == accept
        assert clone("C1-O12") == accept("C1-O12")


# -- the wire contract -----------------------------------------------

class TestSnapshotWire:
    def test_stage_counters_round_trip(self):
        counters = StageCounters(received=5, emitted=4, filtered=1,
                                 errors=2, dropped=3)
        assert StageCounters.from_dict(counters.as_dict()) == counters

    def test_link_snapshot_round_trips_through_json(self):
        snapshot = LinkSnapshot(
            link="C1-O12", time_us=1_000_000, packets=9, events=7,
            failures=1, late_items=0, order_violations=2,
            reorder_pending=0, reassemblers=0,
            stages={"ingest": StageCounters(received=9, emitted=9)},
            eviction={"sweeps": 1},
            analyzers={"detector": {"alerts": 3, "mode": "detect"}})
        wire = json.loads(json.dumps(snapshot.to_json()))
        assert LinkSnapshot.from_json(wire) == snapshot

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            LinkSnapshot.from_json({"schema": 99, "link": "x"})


class TestForwardCompat:
    """The parent must read documents from slightly newer (or
    leaner) writers of any readable schema (1 and 2): unknown extra
    keys are ignored, missing optional sections default (a schema-1
    document's missing ``protocol`` reads as ``"iec104"``), and only
    an unreadable schema version is a hard error with a clear
    message."""

    BASE = {
        "schema": 1, "link": "C1-O12", "time_us": 1_000_000,
        "packets": 9, "events": 7, "failures": 1, "late_items": 0,
        "order_violations": 2, "reorder_pending": 0,
        "reassemblers": 0,
    }

    def test_unknown_extra_keys_ignored(self):
        document = dict(self.BASE)
        document["some_future_counter"] = 123
        document["nested_future"] = {"a": 1}
        snapshot = LinkSnapshot.from_json(document)
        assert snapshot == LinkSnapshot.from_json(dict(self.BASE))
        assert not hasattr(snapshot, "some_future_counter")

    def test_missing_optional_sections_default_empty(self):
        snapshot = LinkSnapshot.from_json(dict(self.BASE))
        assert snapshot.stages == {}
        assert snapshot.eviction == {}
        assert snapshot.analyzers == {}
        assert snapshot.alerts == 0

    def test_stage_counters_unknown_keys_ignored(self):
        counters = StageCounters.from_dict(
            {"received": 4, "emitted": 3, "future_field": 99})
        assert counters == StageCounters(received=4, emitted=3)

    def test_stage_counters_missing_keys_default_zero(self):
        assert StageCounters.from_dict({}) == StageCounters()
        assert StageCounters.from_dict(
            {"dropped": 2}) == StageCounters(dropped=2)

    def test_stage_entries_with_future_keys_round_trip(self):
        document = dict(self.BASE)
        document["stages"] = {"ingest": {"received": 5, "emitted": 5,
                                         "retries": 1}}
        snapshot = LinkSnapshot.from_json(document)
        assert snapshot.stages["ingest"] == StageCounters(received=5,
                                                          emitted=5)

    @pytest.mark.parametrize("schema", [None, 0, 3, "2"])
    def test_schema_mismatch_is_a_clear_error(self, schema):
        document = dict(self.BASE)
        if schema is None:
            del document["schema"]
        else:
            document["schema"] = schema
        with pytest.raises(ValueError,
                           match=r"unsupported snapshot schema"):
            LinkSnapshot.from_json(document)


# -- demux shard filtering -------------------------------------------

class TestDemuxAccept:
    def test_foreign_is_counted_separately_from_unrouted(self):
        capture = generate_capture(1, CaptureConfig(time_scale=0.001))
        names = capture.host_names()
        records = [PcapRecord(time_us=p.time_us, data=p.encode())
                   for p in capture.packets]
        full = LinkDemux(ListSource(records), names=names)
        while full.pump():
            pass
        shards = []
        for shard in range(2):
            demux = LinkDemux(ListSource(records), names=names,
                              accept=ShardAccept(shard, 2))
            while demux.pump():
                pass
            shards.append(demux)
        assert sorted(shards[0].link_names + shards[1].link_names) \
            == full.link_names
        for demux in shards:
            # Every shard scans the same file: identical unrouted,
            # and foreign accounts for exactly the other shard's
            # routed frames.
            assert demux.unrouted == full.unrouted
        assert shards[0].foreign == shards[1].routed
        assert shards[1].foreign == shards[0].routed
        assert full.foreign == 0


# -- parity ----------------------------------------------------------

class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_demux_equals_single_process(self, shard_fixture,
                                                 workers):
        names, _link_paths, merged = shard_fixture
        reference = reference_snapshot(merged, names)
        factory = MonitorPipelineFactory(names=names)
        with ShardedFleetSupervisor(factory, workers=workers,
                                    path=str(merged),
                                    names=names) as sharded:
            drain(sharded)
            sharded.flush()
            snapshot = sharded.snapshot()
        assert snapshot == reference
        assert render_json(snapshot) == render_json(reference)

    def test_sharded_link_fleet_equals_single_process(
            self, shard_fixture):
        names, link_paths, _merged = shard_fixture
        specs = [(name, str(path))
                 for name, path in sorted(link_paths.items())]
        factory = MonitorPipelineFactory(names=names)
        fleet = FleetSupervisor()
        sources = []
        try:
            for name, path in specs:
                source = PcapTailSource(path, follow=False)
                sources.append(source)
                fleet.add_link(factory(name, source), name=name)
            fleet.run_until_exhausted()
            reference = fleet.snapshot()
        finally:
            for source in sources:
                source.close()
        with ShardedFleetSupervisor(factory, workers=3, links=specs,
                                    names=names) as sharded:
            drain(sharded)
            sharded.flush()
            snapshot = sharded.snapshot()
        assert snapshot == reference

    def test_link_count_and_clock_track_workers(self, shard_fixture):
        names, _link_paths, merged = shard_fixture
        reference = reference_snapshot(merged, names)
        factory = MonitorPipelineFactory(names=names)
        with ShardedFleetSupervisor(factory, workers=2,
                                    path=str(merged),
                                    names=names) as sharded:
            drain(sharded)
            assert sharded.link_count == len(reference.links)
            assert sharded.now_us == reference.time_us
            assert sharded.links == [link.link
                                     for link in reference.links]


# -- the unrouted merge beyond the shared-file shape -----------------

class TestUnroutedMerge:
    """Parent-side ``unrouted`` merge vs single-process, all shapes.

    The parent merges worker ``unrouted`` counts with *max*, which is
    only obviously right when every worker scans the same file. These
    tests pin the merge against the other feeding shapes: workers
    whose demuxes saw **disjoint** partition files, and the per-link
    fleet (disjoint files, no demux at all) — each must still match a
    single-process run over the union.
    """

    @staticmethod
    def _records_with_junk():
        """A capture's records with undecodable frames interleaved.

        The junk frames (not IPv4/TCP) route to no link and count as
        ``unrouted``; their clocks sit inside the capture's span so
        they cannot perturb any fleet clock.
        """
        capture = generate_capture(1, CaptureConfig(time_scale=0.001))
        names = capture.host_names()
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in capture.packets]
        step = max(1, len(records) // 6)
        merged: list[PcapRecord] = []
        junk = 0
        for index, record in enumerate(records):
            merged.append(record)
            if index % step == step - 1 and index < len(records) - 1:
                merged.append(PcapRecord(time_us=record.time_us,
                                         data=b"\x00" * 40))
                junk += 1
        assert junk >= 3
        return names, merged, junk

    def test_shared_file_parity_with_unrouted_frames(self, tmp_path):
        names, records, junk = self._records_with_junk()
        merged = tmp_path / "junky.pcapng"
        write_pcapng(merged, records)
        reference = reference_snapshot(merged, names)
        assert reference.unrouted == junk
        factory = MonitorPipelineFactory(names=names)
        with ShardedFleetSupervisor(factory, workers=2,
                                    path=str(merged),
                                    names=names) as sharded:
            drain(sharded)
            sharded.flush()
            snapshot = sharded.snapshot()
        assert snapshot.unrouted == reference.unrouted == junk
        assert snapshot == reference

    def test_disjoint_partition_files_match_single_process(
            self, tmp_path):
        """Worker demuxes over *disjoint* files still merge right.

        The partition mirrors what a disjoint split has to do: routed
        frames go to the shard owning their link, frames that route
        nowhere all land in partition 0 (there is no link name to
        hash). The max-merge then equals the single-process count
        because exactly one worker sees every unrouted frame.
        """
        names, records, junk = self._records_with_junk()
        merged = tmp_path / "merged.pcapng"
        write_pcapng(merged, records)
        reference = reference_snapshot(merged, names)

        shards = 2
        parts: list[list[PcapRecord]] = [[] for _ in range(shards)]
        for record in records:
            packet = CapturedPacket.decode(record.time_us,
                                           record.data)
            if packet is None:
                parts[0].append(record)  # nothing to hash: shard 0
            else:
                parts[shard_of(link_name(packet, names),
                               shards)].append(record)
        assert all(part for part in parts)

        factory = MonitorPipelineFactory(names=names)
        reports = []
        for shard, part in enumerate(parts):
            path = tmp_path / f"part{shard}.pcap"
            write_pcap(path, part)
            source = PcapTailSource(path, follow=False)
            try:
                demux = LinkDemux(source, names=names)
                fleet = FleetSupervisor(demux=demux,
                                        pipeline_factory=factory)
                fleet.run_until_exhausted()
                reports.append((fleet.link_snapshots(),
                                fleet.now_us, demux.unrouted))
            finally:
                source.close()

        links = tuple(sorted(
            (snapshot for report in reports for snapshot in report[0]),
            key=lambda snapshot: snapshot.link))
        now = max(report[1] for report in reports)
        unrouted = max(report[2] for report in reports)
        assert [report[2] for report in reports] == [junk, 0]
        policy = LinkHealthPolicy()
        health = {snapshot.link:
                  policy.classify(now - snapshot.time_us).value
                  for snapshot in links}
        snapshot = FleetSnapshot.from_links(links, now_us=now,
                                            health=health,
                                            unrouted=unrouted)
        assert snapshot.unrouted == reference.unrouted == junk
        assert snapshot == reference

    def test_disjoint_link_files_unrouted_is_zero(self,
                                                  shard_fixture):
        names, link_paths, _merged = shard_fixture
        specs = [(name, str(path))
                 for name, path in sorted(link_paths.items())]
        factory = MonitorPipelineFactory(names=names)
        with ShardedFleetSupervisor(factory, workers=3, links=specs,
                                    names=names) as sharded:
            drain(sharded)
            sharded.flush()
            snapshot = sharded.snapshot()
        # No demux anywhere in this shape: the max over all-zero
        # worker reports is zero, same as a single-process per-link
        # fleet over the same files.
        assert snapshot.unrouted == 0


# -- worker death ----------------------------------------------------

class TestWorkerDeath:
    def test_killed_worker_fails_the_next_round_promptly(
            self, shard_fixture):
        names, _link_paths, merged = shard_fixture
        sharded = ShardedFleetSupervisor(
            MonitorPipelineFactory(names=names), workers=2,
            path=str(merged), names=names, follow=True)
        try:
            sharded.step()  # both workers are up and replaying
            victim = sharded._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert victim.exitcode == -signal.SIGKILL
            start = time.monotonic()
            with pytest.raises(ShardWorkerError, match="worker 1"):
                sharded.step()
            assert time.monotonic() - start < 5.0
        finally:
            start = time.monotonic()
            sharded.close()
            assert time.monotonic() - start < 10.0
        assert not any(process.is_alive()
                       for process in sharded._procs)


# -- construction-time validation ------------------------------------

class TestValidation:
    def test_lambda_factory_rejected_eagerly(self):
        with pytest.raises(ValueError, match="picklable"):
            ShardedFleetSupervisor(lambda link, source: None,
                                   workers=2, path="whatever.pcap")

    def test_worker_count_validated(self):
        factory = MonitorPipelineFactory()
        with pytest.raises(ValueError, match=">= 1"):
            ShardedFleetSupervisor(factory, workers=0, path="x.pcap")

    def test_worker_config_needs_exactly_one_feed(self):
        factory = MonitorPipelineFactory()
        with pytest.raises(ValueError, match="exactly one"):
            WorkerConfig(shard=0, shards=1, factory=factory)
        with pytest.raises(ValueError, match="exactly one"):
            WorkerConfig(shard=0, shards=1, factory=factory,
                         path="x.pcap", links=(("a", "a.pcap"),))
        with pytest.raises(ValueError, match="outside"):
            WorkerConfig(shard=2, shards=2, factory=factory,
                         path="x.pcap")

    def test_worker_config_pickles(self):
        config = WorkerConfig(shard=1, shards=4,
                              factory=MonitorPipelineFactory(),
                              path="x.pcap", follow=True,
                              detect_after_us=5_000_000)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


# -- CLI -------------------------------------------------------------

class TestCli:
    def test_workers_output_identical_to_in_process(
            self, shard_fixture):
        _names, _link_paths, merged = shard_fixture
        single = io.StringIO()
        assert main(["monitor", str(merged), "--demux", "--once",
                     "--json"], out=single) == 0
        sharded = io.StringIO()
        assert main(["monitor", str(merged), "--demux", "--once",
                     "--json", "--workers", "2"], out=sharded) == 0
        assert sharded.getvalue() == single.getvalue()

    def test_workers_with_link_fleet(self, shard_fixture):
        _names, link_paths, _merged = shard_fixture
        argv = ["monitor", "--once", "--json"]
        for name, path in sorted(link_paths.items()):
            argv += ["--link", f"{name}={path}"]
        single = io.StringIO()
        assert main(argv, out=single) == 0
        sharded = io.StringIO()
        assert main(argv + ["--workers", "2"], out=sharded) == 0
        assert sharded.getvalue() == single.getvalue()

    def test_workers_needs_a_fleet(self, shard_fixture):
        _names, _link_paths, merged = shard_fixture
        with pytest.raises(SystemExit, match="nothing to shard"):
            main(["monitor", str(merged), "--once",
                  "--workers", "2"])

    def test_workers_rejects_negative(self, shard_fixture):
        _names, _link_paths, merged = shard_fixture
        with pytest.raises(SystemExit, match=">= 0"):
            main(["monitor", str(merged), "--demux", "--once",
                  "--workers", "-2"])

    def test_workers_rejects_non_seekable_capture(self, tmp_path):
        fifo = tmp_path / "stream.pcap"
        os.mkfifo(fifo)
        with pytest.raises(SystemExit, match="regular"):
            main(["monitor", str(fifo), "--demux", "--once",
                  "--follow", "--workers", "2"])
