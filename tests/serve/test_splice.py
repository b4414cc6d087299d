"""Spliced documents are the canonical serialization, byte for byte.

``SnapshotHub.publish`` does not serialize the whole envelope: it
splices the canonical JSON each snapshot keeps into it. Whatever the
fleet, the bytes must equal ``dump_document(envelope.to_json())`` —
for names that need escaping, unsorted link tuples, names listed
twice (``to_json`` keeps the last), single-link snapshots, and links
reused by identity across polls. The bytes a snapshot keeps are those
a fresh encode gives, and keeping them changes nothing else about it.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, replace
from types import MappingProxyType

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

#: Short text, and pairs of keys whose escaped order is not their raw
#: order (``"`` sorts before ``#``, but ``\"`` after it): a document
#: sorts its keys raw, then escapes them.
KEYS = st.one_of(st.text(max_size=4),
                 st.sampled_from(['"', "#", "\\", "]", "\x7f", "é"]))

ANALYZERS = st.dictionaries(
    st.one_of(st.sampled_from(["detector", "flows"]), KEYS),
    st.dictionaries(st.one_of(st.sampled_from(["alerts", "count"]),
                              st.text(max_size=3)),
                    VALUES, max_size=3),
    max_size=3)

COUNTERS = st.builds(StageCounters, received=SMALL, emitted=SMALL,
                     filtered=SMALL, errors=SMALL, dropped=SMALL)


@st.composite
def links(draw, proxied: bool = False) -> LinkSnapshot:
    """A link snapshot; ``proxied`` hands ``eviction`` and each
    analyzer payload over as read-only mapping proxies."""
    eviction = draw(st.dictionaries(KEYS, SMALL, max_size=3))
    analyzers = draw(ANALYZERS)
    if proxied:
        eviction = MappingProxyType(eviction)
        analyzers = {name: MappingProxyType(data)
                     for name, data in analyzers.items()}
    return LinkSnapshot(
        link=draw(NAMES), time_us=draw(st.integers(0, 10**12)),
        packets=draw(SMALL), events=draw(SMALL),
        failures=draw(SMALL), late_items=draw(SMALL),
        order_violations=draw(SMALL), reorder_pending=draw(SMALL),
        reassemblers=draw(SMALL),
        protocol=draw(st.sampled_from(["iec104", "modbus"])),
        stages=draw(st.dictionaries(KEYS, COUNTERS, max_size=4)),
        eviction=eviction, analyzers=analyzers)


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


class HashableDict(dict):
    """A dict that hashes, so a snapshot made of them hashes too."""

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))


def frozen(value):
    """``value`` with every dict hashable and every list a tuple: the
    same JSON."""
    if isinstance(value, dict):
        return HashableDict({key: frozen(item)
                             for key, item in value.items()})
    if isinstance(value, list):
        return tuple(frozen(item) for item in value)
    return value


def hashable(snapshot):
    """An equal snapshot whose mappings hash, so ``hash`` has a
    value to compare."""
    return replace(snapshot, **{
        field.name: frozen(getattr(snapshot, field.name))
        for field in fields(snapshot)
        if field.init and isinstance(getattr(snapshot, field.name),
                                     dict)})


def kept_bytes(snapshot) -> bytes:
    """What the snapshot encodes once and keeps."""
    if isinstance(snapshot, LinkSnapshot):
        return snapshot.document
    return snapshot.members


def fresh_bytes(snapshot) -> bytes:
    """The same bytes, encoded now from the wire form."""
    document = snapshot.to_json()
    if isinstance(snapshot, FleetSnapshot):
        del document["links"]
    return dump_document(document)


def observed(snapshot) -> tuple:
    """What ``hash``, ``repr`` and a pickle round trip show of a
    snapshot; ``hash`` reads ``None`` where a mapping refuses it."""
    clone = pickle.loads(pickle.dumps(snapshot))
    try:
        digest = hash(snapshot)
    except TypeError:
        digest = None
    return (digest, repr(snapshot), clone == snapshot, repr(clone),
            kept_bytes(clone))


class TestSnapshotBytes:
    @PROPERTY
    @given(members=st.lists(links(), max_size=4).map(tuple),
           now_us=st.integers(0, 10**12), unrouted=SMALL,
           hashing=st.booleans())
    def test_kept_bytes_change_nothing_else(self, members, now_us,
                                            unrouted, hashing):
        """``document`` and ``members`` equal a fresh encode, and ``==``,
        ``hash``, ``repr`` and pickle agree whether or not they were
        read first."""
        if hashing:
            members = tuple(hashable(link) for link in members)
        fleet = fleet_of(members, now_us, unrouted)
        if hashing:
            fleet = hashable(fleet)
        for snapshot in (*members, fleet):
            filled, empty = replace(snapshot), replace(snapshot)
            assert kept_bytes(filled) == fresh_bytes(snapshot)
            assert filled == empty and empty == filled
            assert observed(filled) == observed(empty)
            assert kept_bytes(empty) == kept_bytes(filled)
            assert kept_bytes(filled) is kept_bytes(filled)

    @PROPERTY
    @given(members=st.lists(links(proxied=True), max_size=4).map(tuple),
           now_us=st.integers(0, 10**12), unrouted=SMALL)
    def test_read_only_mappings_keep_the_same_bytes(self, members,
                                                    now_us, unrouted):
        """Mapping proxies (which do not pickle) for ``eviction`` and
        the analyzer payloads: the wire form copies them with
        ``dict``, and the kept and spliced bytes are still canonical."""
        fleet = fleet_of(members, now_us, unrouted)
        for snapshot in (*members, fleet):
            assert kept_bytes(snapshot) == fresh_bytes(snapshot)
        assert_canonical(SnapshotHub(), fleet)


class TestSpliceDocument:
    @PROPERTY
    @given(key=st.text())
    def test_member_prefix_opens_the_dumped_member(self, key):
        assert member_prefix(key) == dump_document({key: 0})[1:-2]

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
