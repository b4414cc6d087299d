"""Spliced documents are the canonical serialization, byte for byte.

``SnapshotHub.publish`` no longer serializes the whole envelope: it
splices each link's cached canonical JSON into it. Whatever the
fleet, the bytes must equal ``dump_document(envelope.to_json())`` —
for names that need escaping, unsorted link tuples, names listed
twice (``to_json`` keeps the last), single-link snapshots, and links
reused by identity across polls.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netstack.pcap import PcapRecord
from repro.serve import ServeApp, SnapshotHub
from repro.serve.wire import (HttpRequest, SnapshotEnvelope,
                              dump_document, json_response,
                              member_prefix, splice_document)
from repro.stream import (FleetSnapshot, FleetSupervisor, LinkDemux,
                          LinkSnapshot, ListSource,
                          MonitorPipelineFactory, StageCounters)

PROPERTY = settings(max_examples=150, deadline=None)

#: Link names that need escaping, sort oddly, or collide with the
#: envelope's and the fleet document's own keys.
NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "é漢字",
                     "\U0001f600", "links", "seq", "", " ", "Z", "a"]))

SMALL = st.integers(min_value=-3, max_value=10**6)

VALUES = st.one_of(SMALL, st.booleans(), st.text(max_size=4),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.lists(SMALL, max_size=2))

ANALYZERS = st.dictionaries(
    st.one_of(st.sampled_from(["detector", "flows"]),
              st.text(max_size=3)),
    st.dictionaries(st.one_of(st.sampled_from(["alerts", "count"]),
                              st.text(max_size=3)),
                    VALUES, max_size=3),
    max_size=3)


@st.composite
def links(draw) -> LinkSnapshot:
    return LinkSnapshot(
        link=draw(NAMES), time_us=draw(st.integers(0, 10**12)),
        packets=draw(SMALL), events=draw(SMALL),
        failures=draw(SMALL), late_items=draw(SMALL),
        order_violations=draw(SMALL), reorder_pending=draw(SMALL),
        reassemblers=draw(SMALL),
        protocol=draw(st.sampled_from(["iec104", "modbus"])),
        stages=draw(st.dictionaries(
            st.text(max_size=4),
            st.builds(StageCounters, received=SMALL, emitted=SMALL),
            max_size=3)),
        eviction=draw(st.dictionaries(st.text(max_size=4), SMALL,
                                      max_size=2)),
        analyzers=draw(ANALYZERS))


def fleet_of(members: tuple[LinkSnapshot, ...], now_us: int,
             unrouted: int) -> FleetSnapshot:
    return FleetSnapshot.from_links(
        members, now_us=now_us,
        health={link.link: "live" for link in members},
        unrouted=unrouted)


def assert_canonical(hub: SnapshotHub, snapshot) -> None:
    payload = hub.publish(snapshot)
    envelope = SnapshotEnvelope(seq=payload.seq,
                                time_us=snapshot.time_us,
                                snapshot=snapshot)
    assert payload.document == dump_document(envelope.to_json())
    assert payload.ws_frame.endswith(payload.document)
    members = (snapshot.links if isinstance(snapshot, FleetSnapshot)
               else (snapshot,))
    assert dict(payload.links) == {
        link.link: dump_document(link.to_json()) for link in members}


class TestSpliceDocument:
    @PROPERTY
    @given(document=st.dictionaries(
               NAMES, st.one_of(VALUES, st.dictionaries(NAMES, VALUES,
                                                         max_size=3))),
           spliced=st.sets(NAMES))
    def test_equals_dump_document(self, document, spliced):
        members = {key: value for key, value in document.items()
                   if key not in spliced or not isinstance(value, dict)}
        encoded = {key: member_prefix(key) + dump_document(value)
                   for key, value in document.items()
                   if key not in members}
        assert splice_document(members, encoded) \
            == dump_document(document)


class TestPublishSplice:
    @PROPERTY
    @given(members=st.lists(links(), max_size=6).map(tuple),
           now_us=st.integers(0, 10**12), unrouted=SMALL)
    def test_fleet_document_is_canonical(self, members, now_us,
                                         unrouted):
        assert_canonical(SnapshotHub(),
                         fleet_of(members, now_us, unrouted))

    @PROPERTY
    @given(link=links())
    def test_link_document_is_canonical(self, link):
        assert_canonical(SnapshotHub(), link)

    @PROPERTY
    @given(pool=st.lists(links(), min_size=1, max_size=6),
           polls=st.lists(st.one_of(
               st.lists(st.integers(0, 5), max_size=6),
               st.integers(0, 5)), min_size=1, max_size=6))
    def test_polls_reusing_links_stay_canonical(self, pool, polls):
        """Links reused by identity across polls hit the hub's cache;
        a poll may be a fleet or a single link."""
        hub = SnapshotHub()
        for poll, picks in enumerate(polls):
            if isinstance(picks, int):
                assert_canonical(hub, pool[picks % len(pool)])
                continue
            members = tuple(pool[pick % len(pool)] for pick in picks)
            assert_canonical(hub, fleet_of(members, poll, poll))


class TestY1ServeReplay:
    def test_every_poll_is_canonical(self, y1_capture):
        """Replay Y1 through a fleet and the hub: every published
        document, and every ``GET /links/<name>``, is byte-identical
        to serializing the snapshot whole."""
        names = y1_capture.host_names()
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in y1_capture.packets]
        fleet = FleetSupervisor(
            demux=LinkDemux(ListSource(records), names=names),
            pipeline_factory=MonitorPipelineFactory(names=names),
            demux_batch=72)
        hub = SnapshotHub()
        app = ServeApp(hub)
        polls = 0
        while True:
            moved = fleet.step()
            if not moved:
                fleet.flush()
            snapshot = fleet.snapshot()
            assert_canonical(hub, snapshot)
            polls += 1
            if polls % 16 == 0 or not moved:
                for link in snapshot.links:
                    path = f"/links/{link.link}"
                    request = HttpRequest(method="GET", target=path,
                                          path=path, query={},
                                          headers={})
                    assert app.respond(request) \
                        == json_response(200, link.to_json())
            if not moved:
                break
        assert polls > 100
