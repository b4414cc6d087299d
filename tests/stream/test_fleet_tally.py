"""The incremental fleet rollup against its whole-fleet formula.

A running :class:`FleetSupervisor` keeps one :class:`FleetTally` and
applies only the links whose snapshot changed; ``from_links`` is a
fresh fold over a new tally. These properties pin both to the
formula in ``snapshot_reference`` on arbitrary fleets: random
sequences of applying, replacing and dropping links, analyzer values
of every JSON type, analyzers and stages that come and go, and keys
that are an ``int`` in one link and something else in another.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netstack.pcap import PcapRecord
from repro.serve.wire import dump_document
from repro.stream import (FleetSnapshot, FleetSupervisor, FleetTally,
                          LinkDemux, LinkSnapshot, ListSource,
                          MonitorPipelineFactory, StageCounters,
                          StreamPipeline)

from . import snapshot_reference as reference

PROPERTY = settings(max_examples=200, deadline=None)

#: Few names, so applies replace and drops hit.
NAMES = st.sampled_from(["a", "b", "c", "d", "e"])

SMALL = st.integers(min_value=-3, max_value=40)

#: Every JSON value type an analyzer may report.
VALUES = st.one_of(
    SMALL, st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.lists(SMALL, max_size=2),
    st.dictionaries(st.text(max_size=2), SMALL, max_size=2))

#: A shared key vocabulary, so one key is an int in one link and a
#: str, bool or float in another; ``detector``/``alerts`` feeds the
#: anomaly ranking.
ANALYZERS = st.dictionaries(
    st.sampled_from(["detector", "flows", "chains", "odd"]),
    st.dictionaries(st.sampled_from(["alerts", "count", "mode",
                                     "live", "ratio"]),
                    VALUES, max_size=5),
    max_size=4)

STAGES = st.dictionaries(
    st.sampled_from(["ingest", "frame", "decode", "extra"]),
    st.builds(StageCounters, received=SMALL, emitted=SMALL,
              filtered=SMALL, errors=SMALL, dropped=SMALL),
    max_size=4)


@st.composite
def links(draw, names=NAMES) -> LinkSnapshot:
    return LinkSnapshot(
        link=draw(names), time_us=draw(st.integers(0, 10**9)),
        packets=draw(SMALL), events=draw(SMALL),
        failures=draw(st.integers(-2, 5)), late_items=draw(SMALL),
        order_violations=draw(st.integers(-2, 5)),
        reorder_pending=0, reassemblers=0,
        stages=draw(STAGES), analyzers=draw(ANALYZERS))


OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("apply"), links()),
    st.tuples(st.just("reapply"), NAMES),
    st.tuples(st.just("drop"), NAMES)), max_size=30)


def assert_same(fleet: FleetSnapshot, oracle: FleetSnapshot) -> None:
    assert fleet == oracle
    assert dump_document(fleet.to_json()) \
        == dump_document(oracle.to_json())


class TestFleetTally:
    @PROPERTY
    @given(operations=OPERATIONS)
    def test_apply_replace_drop_matches_the_formula(self, operations):
        tally = FleetTally()
        members: dict[str, LinkSnapshot] = {}
        for verb, argument in operations:
            if verb == "apply":
                members[argument.link] = argument
                tally.apply(argument)
            elif verb == "reapply":
                if argument in members:
                    tally.apply(members[argument])
            else:
                members.pop(argument, None)
                tally.drop(argument)
            fleet = tuple(members[name] for name in sorted(members))
            health = {name: "live" for name in members}
            assert_same(tally.snapshot(fleet, 7, health=health,
                                       unrouted=2),
                        reference.from_links(fleet, 7, health=health,
                                             unrouted=2))

    @PROPERTY
    @given(fleet=st.lists(links(), max_size=8).map(tuple))
    def test_from_links_matches_the_formula(self, fleet):
        # Unsorted, and a name may repeat: every member counts.
        assert_same(FleetSnapshot.from_links(fleet, 3),
                    reference.from_links(fleet, 3))

    def test_disqualified_key_returns_when_its_link_leaves(self):
        def link(name: str, count: object) -> LinkSnapshot:
            return LinkSnapshot(
                link=name, time_us=0, packets=1, events=0, failures=0,
                late_items=0, order_violations=0, reorder_pending=0,
                reassemblers=0, analyzers={"flows": {"count": count}})

        tally = FleetTally()
        tally.apply(link("a", 2))
        tally.apply(link("b", "many"))
        fleet = tally.snapshot((), 0)
        assert fleet.analyzers == {"flows": {}}
        tally.apply(link("b", 3))
        assert tally.snapshot((), 0).analyzers == {"flows": {"count": 5}}
        tally.drop("a")
        tally.drop("b")
        assert tally.snapshot((), 0).analyzers == {}
        assert tally.snapshot((), 0).packets == 0


class TestSupervisorTally:
    def test_running_rollup_matches_the_formula(self, y1_capture):
        """Poll a demuxed Y1 fleet; every poll's rollup is the
        whole-fleet formula over the same links."""
        names = y1_capture.host_names()
        records = [PcapRecord(time_us=packet.time_us,
                              data=packet.encode())
                   for packet in y1_capture.packets]
        fleet = FleetSupervisor(
            demux=LinkDemux(ListSource(records), names=names),
            pipeline_factory=MonitorPipelineFactory(names=names),
            demux_batch=1024)
        while fleet.step():
            snapshot = fleet.snapshot()
            assert_same(snapshot, reference.from_links(
                snapshot.links, snapshot.time_us,
                health=snapshot.health, unrouted=snapshot.unrouted))
        fleet.flush()
        snapshot = fleet.snapshot()
        assert len(snapshot.links) == fleet.link_count > 50
        assert_same(snapshot, reference.from_links(
            snapshot.links, snapshot.time_us, health=snapshot.health,
            unrouted=snapshot.unrouted))

    def test_unchanged_links_are_the_same_objects(self):
        fleet = FleetSupervisor()
        fleet.add_link(StreamPipeline(ListSource([]), link="x"))
        first = fleet.snapshot()
        again = fleet.snapshot()
        assert again.links[0] is first.links[0]
        assert again == first
