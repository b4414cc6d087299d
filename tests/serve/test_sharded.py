"""Serving a sharded fleet: the parent merges the link snapshots its
workers send through their pipes, and every poll it records and
publishes is the canonical serialization of that merge."""

from __future__ import annotations

import json

from repro.netstack.pcap import PcapRecord, write_pcap
from repro.serve import HistoryStore, SnapshotHub
from repro.serve.wire import SnapshotEnvelope, dump_document
from repro.stream import (FleetSupervisor, LinkDemux, ListSource,
                          MonitorPipelineFactory,
                          ShardedFleetSupervisor, run_monitor)


def test_sharded_fleet_serves_canonical_documents(y1_capture,
                                                  tmp_path):
    names = y1_capture.host_names()
    records = [PcapRecord(time_us=packet.time_us, data=packet.encode())
               for packet in y1_capture.packets]
    path = tmp_path / "y1.pcap"
    write_pcap(path, records)
    factory = MonitorPipelineFactory(names=names)
    hub = SnapshotHub()
    served = []

    def on_snapshot(snapshot) -> None:
        store.record(snapshot)
        payload = hub.publish(snapshot)
        envelope = SnapshotEnvelope(seq=payload.seq,
                                    time_us=snapshot.time_us,
                                    snapshot=snapshot)
        assert payload.document == dump_document(envelope.to_json())
        assert dict(payload.links) == {
            link.link: dump_document(link.to_json())
            for link in snapshot.links}
        served.append(snapshot)

    with HistoryStore() as store, ShardedFleetSupervisor(
            factory, workers=2, path=str(path), names=names) as sharded:
        run_monitor(sharded, out=None, interval_s=0.0,
                    poll_sleep_s=0.01, on_snapshot=on_snapshot)
        final = served[-1]
        at_last_clock = store.fleet_at(final.time_us)

    in_process = FleetSupervisor(
        demux=LinkDemux(ListSource(records), names=names),
        pipeline_factory=factory)
    in_process.run_until_exhausted()
    expected = dump_document(in_process.snapshot().to_json())
    assert len(served) > 1
    assert dump_document(final.to_json()) == expected
    assert at_last_clock is not None
    document = json.loads(at_last_clock)
    assert document.pop("poll_seq") == len(served)
    assert dump_document(document) == expected
