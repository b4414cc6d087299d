"""StreamPipeline unit tests: stages, counters, ordering, bounds."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.iec104 import IFrame, ShortFloat, TypeID, measurement
from repro.netstack.pcap import PcapRecord
from repro.protocols import get_protocol
from repro.protocols.modbus import MAX_ADU_LENGTH, ModbusAdu
from repro.serve import HistoryStore, SnapshotHub
from repro.stream import (ByteChunk, EvictionPolicy, FleetSnapshot,
                          FleetSupervisor, LinkDemux, LinkSnapshot,
                          ListSource, MonitorPipelineFactory,
                          OnlineChains, StageCounters, StreamAnalyzer,
                          StreamPipeline, snapshots)


def frame_bytes(index: int = 0) -> bytes:
    asdu = measurement(TypeID.M_ME_NC_1, 2001 + index,
                       ShortFloat(value=50.0 + index))
    return IFrame(asdu=asdu, send_seq=index).encode()


class Recorder(StreamAnalyzer):
    name = "recorder"

    def __init__(self):
        self.events = []
        self.packets = []

    def on_event(self, event):
        self.events.append(event)

    def on_packet(self, packet):
        self.packets.append(packet)


class TestByteChunkPath:
    def test_chunks_decode_and_dispatch(self):
        chunks = [ByteChunk(1000, "C1", "O1", frame_bytes(0)),
                  ByteChunk(2000, "C1", "O1", frame_bytes(1))]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder])
        pipeline.run_until_exhausted()
        assert [event.token for event in recorder.events] \
            == ["I13", "I13"]
        assert recorder.events[0].src == "C1"
        assert pipeline.counters["decode"].emitted == 2

    def test_partial_frame_buffered_across_chunks(self):
        raw = frame_bytes()
        chunks = [ByteChunk(1000, "C1", "O1", raw[:3]),
                  ByteChunk(2000, "C1", "O1", raw[3:])]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder])
        pipeline.run_until_exhausted()
        assert len(recorder.events) == 1
        # The event is stamped with the completing chunk's tick.
        assert recorder.events[0].time_us == 2000

    def test_separate_links_do_not_mix(self):
        raw = frame_bytes()
        chunks = [ByteChunk(1000, "C1", "O1", raw[:3]),
                  ByteChunk(1500, "C1", "O2", raw),
                  ByteChunk(2000, "C1", "O1", raw[3:])]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder])
        pipeline.run_until_exhausted()
        assert sorted(event.dst for event in recorder.events) \
            == ["O1", "O2"]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_modbus_chunks_decode_to_their_adus(self, data):
        """Modbus/TCP ADUs cut at any chunk boundary, some after junk
        (nonzero octets, which never pass for an MBAP header), decode
        to exactly those ADUs, in order; the parser's rejects (no
        function code) are the only decode errors."""
        adus = data.draw(st.lists(st.builds(
            ModbusAdu, transaction=st.integers(0, 0xFFFF),
            unit=st.integers(0, 255), function=st.integers(0, 255),
            data=st.binary(max_size=MAX_ADU_LENGTH - 2)), max_size=8))
        stream = b"".join(
            data.draw(st.binary(max_size=6).map(
                lambda junk: junk.replace(b"\x00", b"\xff")))
            + adu.encode() for adu in adus)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)),
                                         max_size=8)))
        bounds = [0, *cuts, len(stream)]
        chunks = [ByteChunk(1000 * index, "C1", "M1", stream[start:end])
                  for index, (start, end) in enumerate(zip(bounds,
                                                           bounds[1:]))]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder],
                                  protocol=get_protocol("modbus"))
        pipeline.run_until_exhausted()
        accepted = [adu for adu in adus if adu.function & 0x7F]
        assert [event.apdu for event in recorder.events] == accepted
        assert [event.token for event in recorder.events] == [
            f"X{adu.function & 0x7F}" if adu.function & 0x80
            else f"F{adu.function}" for adu in accepted]
        assert pipeline.counters["decode"].errors \
            == len(adus) - len(accepted)


class TestFrameStage:
    def test_undecodable_record_counts_error(self):
        records = [PcapRecord(time_us=1000, data=b"\x00" * 20)]
        pipeline = StreamPipeline(ListSource(records))
        pipeline.run_until_exhausted()
        assert pipeline.counters["frame"].errors == 1
        assert pipeline.counters["frame"].emitted == 0

    def test_unknown_item_type_counts_ingest_error(self):
        pipeline = StreamPipeline(ListSource([object()]))
        pipeline.run_until_exhausted()
        assert pipeline.counters["ingest"].errors == 1


class TestOrderedDelivery:
    def test_events_delivered_in_time_order(self):
        # Arrival order 3000, 1000, 2000 — all within the window.
        chunks = [ByteChunk(3000, "C1", "O1", frame_bytes(0)),
                  ByteChunk(1000, "C1", "O1", frame_bytes(1)),
                  ByteChunk(2000, "C1", "O1", frame_bytes(2))]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder],
                                  reorder_window_us=10_000)
        pipeline.run_until_exhausted()
        assert [event.time_us for event in recorder.events] \
            == [1000, 2000, 3000]
        assert pipeline.order_violations == 0
        assert pipeline.late_items == 2  # behind the stream clock

    def test_tie_release_preserves_arrival_order(self):
        chunks = [ByteChunk(1000, "C1", "O1", frame_bytes(index))
                  for index in range(3)]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder])
        pipeline.run_until_exhausted()
        ioas = [event.apdu.asdu.objects[0].address
                for event in recorder.events]
        assert ioas == [2001, 2002, 2003]

    def test_event_beyond_window_counts_violation(self):
        chunks = [ByteChunk(10_000_000, "C1", "O1", frame_bytes(0)),
                  ByteChunk(20_000_000, "C1", "O1", frame_bytes(1)),
                  # Arrives 19.999 s late — past the 5 s window, after
                  # the 20 s event was already released.
                  ByteChunk(1_000, "C1", "O1", frame_bytes(2))]
        source = ListSource(chunks)
        recorder = Recorder()
        pipeline = StreamPipeline(source, analyzers=[recorder],
                                  reorder_window_us=5_000_000,
                                  batch_size=1)
        pipeline.run_until_exhausted()
        assert len(recorder.events) == 3
        assert pipeline.order_violations == 1

    def test_queue_capacity_releases_early(self):
        chunks = [ByteChunk(1000 + index, "C1", "O1",
                            frame_bytes(index)) for index in range(8)]
        recorder = Recorder()
        pipeline = StreamPipeline(ListSource(chunks),
                                  analyzers=[recorder],
                                  queue_capacity=2,
                                  reorder_window_us=10_000_000)
        pipeline.run_until_exhausted()
        # All events delivered despite the tiny buffer; the huge
        # window alone would have held them all back.
        assert len(recorder.events) == 8
        assert [event.time_us for event in recorder.events] \
            == sorted(event.time_us for event in recorder.events)

    def test_snapshot_reports_pending_until_flush(self):
        chunks = [ByteChunk(1000, "C1", "O1", frame_bytes(0))]
        pipeline = StreamPipeline(ListSource(chunks),
                                  reorder_window_us=10_000_000)
        pipeline.step()
        assert pipeline.reorder_pending == 1
        assert pipeline.events_dispatched == 0
        pipeline.flush()
        assert pipeline.reorder_pending == 0
        assert pipeline.events_dispatched == 1


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            StreamPipeline(ListSource([]), batch_size=0)
        with pytest.raises(ValueError):
            StreamPipeline(ListSource([]), queue_capacity=0)

    def test_snapshot_shape(self):
        pipeline = StreamPipeline(ListSource([]))
        pipeline.run_until_exhausted()
        snapshot = pipeline.link_snapshot().to_json()
        for key in ("time_us", "packets", "events", "failures",
                    "stages", "eviction", "analyzers"):
            assert key in snapshot
        assert set(snapshot["stages"]) == {
            "ingest", "frame", "reassemble", "decode", "dispatch"}


def uncached_snapshot(pipeline: StreamPipeline) -> LinkSnapshot:
    """The snapshot built from the pipeline's public state, no memo."""
    return LinkSnapshot(
        link=pipeline.link,
        time_us=pipeline.now_us,
        packets=pipeline.counters["reassemble"].received,
        events=pipeline.events_dispatched,
        failures=pipeline.failure_count,
        late_items=pipeline.late_items,
        order_violations=pipeline.order_violations,
        reorder_pending=pipeline.reorder_pending,
        reassemblers=pipeline.live_reassemblers,
        protocol=pipeline.protocol.name,
        stages={stage: tally.freeze()
                for stage, tally in pipeline.counters.items()},
        eviction=pipeline.eviction_stats.as_dict(),
        analyzers={analyzer.name: analyzer.snapshot()
                   for analyzer in pipeline.analyzers})


class TestSnapshotMemo:
    """``link_snapshot`` hands back the same object until it moves."""

    def pipeline(self) -> StreamPipeline:
        chunks = [ByteChunk(1000, "C1", "O1", frame_bytes(0))]
        return StreamPipeline(ListSource(chunks), analyzers=[Recorder()],
                              reorder_window_us=10_000_000,
                              eviction=EvictionPolicy(), link="C1-O1")

    def moved(self, pipeline: StreamPipeline,
              before: LinkSnapshot) -> LinkSnapshot:
        after = pipeline.link_snapshot()
        assert after is not before
        assert after == uncached_snapshot(pipeline)
        assert pipeline.link_snapshot() is after
        return after

    def test_same_object_while_nothing_moved(self):
        pipeline = self.pipeline()
        first = pipeline.link_snapshot()
        assert pipeline.link_snapshot() is first
        assert first == uncached_snapshot(pipeline)

    def test_every_mutation_builds_a_new_snapshot(self):
        pipeline = self.pipeline()
        snapshot = pipeline.link_snapshot()
        assert pipeline.step() == 1
        snapshot = self.moved(pipeline, snapshot)
        assert snapshot.reorder_pending == 1
        pipeline.flush()
        snapshot = self.moved(pipeline, snapshot)
        assert snapshot.events == 1
        pipeline.sweep()
        snapshot = self.moved(pipeline, snapshot)
        assert snapshot.eviction["sweeps"] == 1
        pipeline.add_analyzer(OnlineChains())
        snapshot = self.moved(pipeline, snapshot)
        assert "chains" in snapshot.analyzers
        pipeline.link = "renamed"
        snapshot = self.moved(pipeline, snapshot)
        assert snapshot.link == "renamed"

    def test_empty_step_and_flush_keep_the_object(self):
        pipeline = self.pipeline()
        pipeline.step()
        pipeline.flush()
        snapshot = pipeline.link_snapshot()
        assert pipeline.step() == 0
        pipeline.flush()
        assert pipeline.link_snapshot() is snapshot
        assert pipeline.run_until_exhausted() == 0
        assert pipeline.link_snapshot() is snapshot


class TestEncodeOncePerChange:
    def test_y1_serve_replay_encodes_only_changed_links(
            self, y1_capture, monkeypatch):
        """Record and publish together encode a link once, and only
        when its snapshot object changed since the previous poll, and
        the fleet members once per poll: the two share the bytes
        each snapshot keeps."""
        names = y1_capture.host_names()
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in y1_capture.packets]
        fleet = FleetSupervisor(
            demux=LinkDemux(ListSource(records), names=names),
            pipeline_factory=MonitorPipelineFactory(names=names),
            demux_batch=72)
        hub = SnapshotHub()
        calls = {LinkSnapshot: 0, FleetSnapshot: 0}
        serving = [False]

        def counting(owner, name, cls):
            encode = getattr(owner, name)

            def counted(snapshot):
                if serving[0]:
                    calls[cls] += 1
                return encode(snapshot)
            monkeypatch.setattr(owner, name, counted)

        # A link's document is written directly, not from ``to_json``.
        counting(snapshots, "_write_link", LinkSnapshot)
        counting(FleetSnapshot, "to_json", FleetSnapshot)
        previous: dict[str, LinkSnapshot] = {}
        changed = polls = 0
        with HistoryStore() as store:
            while True:
                moved = fleet.step()
                if not moved:
                    fleet.flush()
                snapshot = fleet.snapshot()
                changed += sum(previous.get(link.link) is not link
                               for link in snapshot.links)
                previous = {link.link: link for link in snapshot.links}
                serving[0] = True
                store.record(snapshot)
                hub.publish(snapshot)
                serving[0] = False
                polls += 1
                if not moved:
                    break
        links = len(snapshot.links)
        assert polls > 100 and links > 50
        assert changed < polls * links // 2
        assert calls == {LinkSnapshot: changed, FleetSnapshot: polls}


def observed(value) -> tuple:
    """What ``repr`` and a pickle round trip show of a snapshot."""
    clone = pickle.loads(pickle.dumps(value))
    return repr(value), clone == value, repr(clone)


class TestSlotBuiltSnapshots:
    """``link_snapshot`` and ``StageTally.freeze`` set slots instead of
    running the constructors; the constructors are the oracle."""

    def test_equal_to_constructor_built(self, y1_capture):
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in y1_capture.packets]
        pipeline = MonitorPipelineFactory(
            names=y1_capture.host_names())("Y1", ListSource(records))
        checked = 0
        for step in range(64):
            moved = pipeline.step()
            if step % 3 and moved:
                continue
            if not moved:
                pipeline.flush()
            stages = {}
            for stage, tally in pipeline.counters.items():
                frozen = tally.freeze()
                counters = StageCounters(
                    received=tally.received, emitted=tally.emitted,
                    filtered=tally.filtered, errors=tally.errors,
                    dropped=tally.dropped)
                assert frozen == counters
                assert hash(frozen) == hash(counters)
                assert observed(frozen) == observed(counters)
                stages[stage] = counters
            snapshot = pipeline.link_snapshot()
            oracle = LinkSnapshot(
                link=pipeline.link, time_us=pipeline.now_us,
                packets=pipeline.counters["reassemble"].received,
                events=pipeline.events_dispatched,
                failures=pipeline.failure_count,
                late_items=pipeline.late_items,
                order_violations=pipeline.order_violations,
                reorder_pending=pipeline.reorder_pending,
                reassemblers=pipeline.live_reassemblers,
                protocol=pipeline.protocol.name, stages=stages,
                eviction=pipeline.eviction_stats.as_dict(),
                analyzers={analyzer.name: analyzer.snapshot()
                           for analyzer in pipeline.analyzers})
            # Pickled before and after the document is first read.
            assert snapshot == oracle and oracle == snapshot
            assert observed(snapshot) == observed(oracle)
            assert snapshot.document \
                == snapshots.dump_document(oracle.to_json())
            assert observed(snapshot) == observed(oracle)
            assert pickle.loads(pickle.dumps(snapshot)).document \
                == snapshot.document
            checked += 1
            if not moved:
                break
        assert not moved and checked > 4 and snapshot.events > 0
