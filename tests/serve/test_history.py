"""The history store: stored bytes, time travel, retention.

The byte-stability bar: record the same deterministic 8-hour synthetic
run into two independent stores and every query result —
``link_history`` windows and ``fleet_at`` time-travel reads — must
serialize to byte-identical documents.  Nothing in the store may
depend on wall clock, dict order, or connection identity.  And a read
returns what was served: ``fleet_at`` is the fleet document the hub
served at record time, byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import main
from repro.serve import HistoryStore, Retention
from repro.serve.wire import dump_document
from repro.stream import (FleetSnapshot, LinkSnapshot, StageCounters)

from .test_splice import NAMES, SMALL

#: Eight hours of stream time in microseconds.
EIGHT_HOURS_US = 8 * 3600 * 1_000_000

#: A clock past every recorded poll: ``fleet_at`` gives the newest.
NEWEST = (1 << 63) - 1


def fleet_at(store: HistoryStore, time_us: int) -> dict | None:
    """``store.fleet_at`` parsed, ``None`` passed through."""
    body = store.fleet_at(time_us)
    return None if body is None else json.loads(body)


def link_snapshot(link: str, time_us: int, poll: int) -> LinkSnapshot:
    """A deterministic synthetic link snapshot for poll ``poll``."""
    return LinkSnapshot(
        link=link, time_us=time_us,
        packets=poll * 7 + len(link), events=poll * 5,
        failures=poll % 3, late_items=poll % 2,
        order_violations=poll % 5, reorder_pending=0,
        reassemblers=poll % 2,
        stages={"ingest": StageCounters(received=poll * 7,
                                        emitted=poll * 7),
                "decode": StageCounters(received=poll * 5,
                                        emitted=poll * 5)},
        eviction={"sweeps": poll, "flows_evicted": poll // 4},
        analyzers={"chains": {"connections": 1 + poll % 4},
                   "detector": {"alerts": poll % 6,
                                "mode": "detect"}})


def fleet_poll(poll: int, links=("C1-O12", "C2-O3",
                                 "C3-O7")) -> FleetSnapshot:
    """Poll ``poll`` of the synthetic 8-hour run (5-minute cadence)."""
    time_us = poll * 300_000_000  # one poll every 5 stream-minutes
    members = tuple(link_snapshot(name, time_us - index * 1_000,
                                  poll + index)
                    for index, name in enumerate(links))
    health = {name: "live" if poll % 4 else "idle"
              for name in links}
    return FleetSnapshot.from_links(members, now_us=time_us,
                                    health=health,
                                    unrouted=poll % 7)


class TestRetentionValidation:
    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="max_polls"):
            Retention(max_polls=0)
        with pytest.raises(ValueError, match="compact_every"):
            Retention(compact_every=0)
        assert Retention(max_polls=5).compact_every == 64


class TestRecordAndRead:
    def test_fleet_round_trip_is_exact(self):
        with HistoryStore() as store:
            fleet = fleet_poll(3)
            seq = store.record(fleet)
            document = fleet_at(store, fleet.time_us)
        expected = fleet.to_json()
        expected["poll_seq"] = seq
        assert document == expected

    def test_link_snapshot_records_as_one_link_poll(self):
        with HistoryStore() as store:
            snapshot = link_snapshot("C1-O12", 5_000_000, poll=2)
            store.record(snapshot)
            assert store.link_names() == ["C1-O12"]
            polls = store.link_history("C1-O12")
            assert len(polls) == 1
            assert polls[0]["packets"] == snapshot.packets
            fleet = fleet_at(store, 5_000_000)
        assert fleet["link_count"] == 1
        assert fleet["unrouted"] == 0
        assert fleet["health"] == {}

    def test_fleet_at_picks_newest_at_or_before(self):
        with HistoryStore() as store:
            for poll in range(1, 6):
                store.record(fleet_poll(poll))
            at_poll_3 = fleet_at(store, fleet_poll(3).time_us)
            between = fleet_at(store, fleet_poll(3).time_us
                               + 150_000_000)
            too_early = fleet_at(store, 0)
            latest = fleet_at(store, EIGHT_HOURS_US)
        assert at_poll_3["poll_seq"] == 3
        assert between["poll_seq"] == 3  # newest <= T, not nearest
        assert too_early is None
        assert latest["poll_seq"] == 5

    def test_link_history_window_and_limit(self):
        with HistoryStore() as store:
            for poll in range(1, 11):
                store.record(fleet_poll(poll))
            full = store.link_history("C1-O12")
            window = store.link_history(
                "C1-O12", since_us=fleet_poll(4).time_us,
                until_us=fleet_poll(7).time_us)
            newest_two = store.link_history("C1-O12", limit=2)
        assert [poll["poll_seq"] for poll in full] == list(range(1, 11))
        assert [poll["poll_seq"] for poll in window] == [4, 5, 6, 7]
        # ``limit`` keeps the newest polls, returned oldest-first.
        assert [poll["poll_seq"] for poll in newest_two] == [9, 10]

    def test_span_and_polls(self):
        with HistoryStore() as store:
            assert store.span_us() is None
            for poll in (2, 5):
                store.record(fleet_poll(poll))
            assert store.span_us() == (2 * 300_000_000,
                                       5 * 300_000_000)
            assert list(store.polls()) == [(1, 600_000_000),
                                           (2, 1_500_000_000)]

    def test_unknown_link_history_is_empty(self):
        with HistoryStore() as store:
            store.record(fleet_poll(1))
            assert store.link_history("nope") == []


class TestSchemaGuard:
    def test_mismatched_store_refused(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        HistoryStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value = '99' "
                         "WHERE key = 'snapshot_schema'")
        with pytest.raises(ValueError, match="fresh store"):
            HistoryStore(path)

    def test_older_layout_refused(self, tmp_path):
        """A 1.4.0 store (layout 1) holds the same snapshot schema in
        another layout: its ``store_version`` is read and refused."""
        path = str(tmp_path / "fleet.db")
        HistoryStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value = '1' "
                         "WHERE key = 'store_version'")
        with pytest.raises(ValueError, match="fresh store"):
            HistoryStore(path)

    def test_not_a_database_raises_sqlite_error(self, tmp_path):
        path = tmp_path / "fleet.db"
        path.write_bytes(b"not a sqlite database\n" * 200)
        with pytest.raises(sqlite3.DatabaseError):
            HistoryStore(str(path))

    def test_rows_keep_the_served_bytes(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        fleet = fleet_poll(3)
        with HistoryStore(path) as store:
            store.record(fleet)
        with sqlite3.connect(path) as conn:
            page_size = conn.execute("PRAGMA page_size").fetchone()[0]
            documents = dict(conn.execute(
                "SELECT link, document FROM link_polls"))
            [members] = conn.execute(
                "SELECT members FROM polls").fetchone()
        assert page_size == 16384
        assert documents == {link.link: dump_document(link.to_json())
                             for link in fleet.links}
        expected = fleet.to_json()
        del expected["links"]
        assert members == dump_document(expected)

    def test_reopening_a_matching_store_appends(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        with HistoryStore(path) as store:
            store.record(fleet_poll(1))
        with HistoryStore(path) as store:
            store.record(fleet_poll(2))
            assert store.poll_count() == 2
            assert [seq for seq, _t in store.polls()] == [1, 2]


class TestRetention:
    def test_compaction_drops_oldest_whole_polls(self):
        retention = Retention(max_polls=10, compact_every=4)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 26):
                store.record(fleet_poll(poll))
            store.compact()
            assert store.poll_count() == 10
            kept = [seq for seq, _t in store.polls()]
            assert kept == list(range(16, 26))
            # No partial polls: every kept poll still has all links.
            for seq in kept:
                fleet = fleet_at(store, fleet_poll(seq).time_us)
                assert fleet["link_count"] == 3

    def test_auto_compaction_bounds_the_store(self):
        retention = Retention(max_polls=5, compact_every=1)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 21):
                store.record(fleet_poll(poll))
            assert store.poll_count() == 5

    def test_unbounded_store_never_compacts(self):
        with HistoryStore() as store:
            for poll in range(1, 8):
                store.record(fleet_poll(poll))
            assert store.compact() == 0
            assert store.poll_count() == 7

    def test_age_bound_drops_polls_behind_the_newest_clock(self):
        # One poll every 5 stream-minutes; a 25-minute window keeps
        # the newest poll plus the 5 polls within the bound.
        retention = Retention(max_age_us=25 * 60 * 1_000_000,
                              compact_every=100)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 21):
                store.record(fleet_poll(poll))
            assert store.compact() == 14
            assert [seq for seq, _t in store.polls()] \
                == list(range(15, 21))

    def test_age_zero_keeps_only_the_newest_poll(self):
        retention = Retention(max_age_us=0, compact_every=100)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 6):
                store.record(fleet_poll(poll))
            store.compact()
            assert [seq for seq, _t in store.polls()] == [5]

    def test_age_bound_triggers_auto_compaction(self):
        retention = Retention(max_age_us=25 * 60 * 1_000_000,
                              compact_every=1)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 21):
                store.record(fleet_poll(poll))
            assert store.poll_count() == 6

    def test_both_bounds_stricter_wins(self):
        # Count bound (3 polls) is stricter than the age bound
        # (25 minutes = 6 polls) — and vice versa when flipped.
        retention = Retention(max_polls=3,
                              max_age_us=25 * 60 * 1_000_000,
                              compact_every=100)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 21):
                store.record(fleet_poll(poll))
            store.compact()
            assert [seq for seq, _t in store.polls()] \
                == list(range(18, 21))
        retention = Retention(max_polls=10,
                              max_age_us=10 * 60 * 1_000_000,
                              compact_every=100)
        with HistoryStore(retention=retention) as store:
            for poll in range(1, 21):
                store.record(fleet_poll(poll))
            store.compact()
            assert [seq for seq, _t in store.polls()] \
                == list(range(18, 21))

    def test_age_validation(self):
        with pytest.raises(ValueError, match="max_age_us"):
            Retention(max_age_us=-1)
        assert Retention(max_age_us=0).bounded
        assert not Retention().bounded


class TestByteStability:
    """Two identical synthetic 8-hour runs → byte-identical queries."""

    @staticmethod
    def _run_store(store: HistoryStore) -> None:
        # 96 polls at 5-minute cadence: the last poll's fleet clock
        # lands exactly on the 8-hour mark.
        for poll in range(1, 97):
            store.record(fleet_poll(poll))

    def test_identical_runs_are_byte_identical(self):
        with HistoryStore() as first, HistoryStore() as second:
            self._run_store(first)
            self._run_store(second)
            assert first.span_us()[1] == EIGHT_HOURS_US
            probes = [1, 12 * 300_000_000, EIGHT_HOURS_US // 2,
                      EIGHT_HOURS_US]
            for time_us in probes:
                assert dump_document(fleet_at(first, time_us) or {}) \
                    == dump_document(fleet_at(second, time_us) or {})
            assert first.link_names() == second.link_names()
            windows = [dict(), dict(limit=13),
                       dict(since_us=EIGHT_HOURS_US // 4,
                            until_us=EIGHT_HOURS_US // 2)]
            for link in first.link_names():
                for window in windows:
                    assert [dump_document(doc) for doc
                            in first.link_history(link, **window)] \
                        == [dump_document(doc) for doc
                            in second.link_history(link, **window)]

    def test_rebuilt_fleet_equals_live_serialization(self):
        """A time-travel rebuild is byte-identical to what the live
        snapshot serialized to at record time."""
        with HistoryStore() as store:
            fleet = fleet_poll(42)
            seq = store.record(fleet)
            body = store.fleet_at(fleet.time_us)
        rebuilt = json.loads(body)
        live = fleet.to_json()
        live["poll_seq"] = seq
        assert dump_document(rebuilt) == dump_document(live)
        assert body == dump_document(live)
        # And the intermediate JSON is genuinely canonical.
        assert json.loads(dump_document(rebuilt)) == rebuilt


#: Every JSON type, nested.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@st.composite
def drawn_link(draw) -> LinkSnapshot:
    return LinkSnapshot(
        link=draw(NAMES), time_us=draw(st.integers(0, 10**12)),
        packets=draw(SMALL), events=draw(SMALL),
        failures=draw(SMALL), late_items=draw(SMALL),
        order_violations=draw(SMALL), reorder_pending=draw(SMALL),
        reassemblers=draw(SMALL),
        protocol=draw(st.sampled_from(["iec104", "modbus"])),
        stages=draw(st.dictionaries(
            st.text(max_size=4),
            st.builds(StageCounters, received=SMALL, emitted=SMALL,
                      errors=SMALL),
            max_size=2)),
        eviction=draw(st.dictionaries(st.text(max_size=4), SMALL,
                                      max_size=2)),
        analyzers=draw(st.dictionaries(
            st.one_of(st.sampled_from(["detector", "flows"]),
                      st.text(max_size=3)),
            st.dictionaries(
                st.one_of(st.sampled_from(["alerts", "count"]),
                          st.text(max_size=3)),
                JSON_VALUES, max_size=3),
            max_size=3)))


#: One poll: a single link (an index) or a fleet (indices, names may
#: repeat) with its clock, health and unrouted count.
POLLS = st.lists(st.one_of(
    st.integers(0, 9),
    st.tuples(st.lists(st.integers(0, 9), max_size=5),
              st.integers(0, 10**12),
              st.dictionaries(NAMES, st.one_of(
                  st.sampled_from(["live", "idle", "dead"]),
                  st.text(max_size=3)), max_size=3),
              st.integers(0, 10**6))),
    min_size=1, max_size=6)


class TestStoreReturnsWhatWasServed:
    """Every read equals the document served at record time: for
    names that need escaping, analyzer payloads of every JSON type,
    single-link polls, links reused by identity across polls and
    changed links under a reused name."""

    @settings(max_examples=150, deadline=None)
    @given(drawn=st.lists(drawn_link(), min_size=1, max_size=5),
           polls=POLLS)
    def test_reads_equal_the_served_documents(self, drawn, polls):
        # Each drawn link also comes changed under its own name.
        pool = drawn + [dataclasses.replace(link,
                                            packets=link.packets + 1)
                        for link in drawn]
        served: dict[str, list[dict]] = {}
        with HistoryStore() as store:
            for poll in polls:
                if isinstance(poll, int):
                    link = pool[poll % len(pool)]
                    members: tuple[LinkSnapshot, ...] = (link,)
                    seq = store.record(link)
                    fleet = FleetSnapshot.from_links(
                        members, link.time_us, {}, 0)
                else:
                    picks, now_us, health, unrouted = poll
                    members = tuple(pool[pick % len(pool)]
                                    for pick in picks)
                    fleet = FleetSnapshot.from_links(
                        members, now_us, health, unrouted)
                    seq = store.record(fleet)
                assert store.fleet_at(NEWEST) == dump_document(
                    {**fleet.to_json(), "poll_seq": seq})
                # A name listed twice is served with its last snapshot.
                for link in {link.link: link
                             for link in members}.values():
                    served.setdefault(link.link, []).append(
                        {**link.to_json(), "poll_seq": seq})
            for name, documents in served.items():
                assert store.link_history(name) == documents

    def test_non_round_trip_payload_reads_back_as_served(self):
        """Integer keys do not survive a JSON round trip (``10`` sorts
        before ``2`` once both are strings); the stored bytes do."""
        link = dataclasses.replace(
            link_snapshot("C1-O12", 1_000, poll=1),
            analyzers={"custom": {2: 1, 10: 3}})
        fleet = FleetSnapshot.from_links((link,), now_us=1_000)
        with HistoryStore() as store:
            seq = store.record(fleet)
            body = store.fleet_at(NEWEST)
        served = dump_document({**fleet.to_json(), "poll_seq": seq})
        assert b'{"2":1,"10":3}' in served
        assert body == served


@pytest.fixture(scope="module")
def y1_pcap(tmp_path_factory) -> Path:
    """A tiny generated capture on disk, plus its names sidecar."""
    path = tmp_path_factory.mktemp("serve") / "y1.pcap"
    assert main(["generate", "--year", "1", "--scale", "0.001",
                 "--out", str(path)]) == 0
    return path


class TestRefusedStoreCli:
    """``repro serve --history`` with a store it cannot use exits 1
    with one line, before any capture is opened (a subprocess, so a
    server that keeps running fails the timeout instead of hanging
    the suite)."""

    @staticmethod
    def _serve(capture: Path, history: Path) -> str:
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", str(capture),
             "--port", "0", "--history", str(history)],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stdout == ""
        [line] = done.stderr.strip().splitlines()
        assert line.startswith("repro serve: ")
        return line

    @pytest.mark.parametrize("key, value", [
        ("snapshot_schema", "99"), ("store_version", "1")])
    def test_other_store_is_one_line(self, y1_pcap, tmp_path, key,
                                     value):
        history = tmp_path / "h.db"
        HistoryStore(str(history)).close()
        with sqlite3.connect(history) as conn:
            conn.execute("UPDATE meta SET value = ? WHERE key = ?",
                         (value, key))
        assert "fresh store" in self._serve(y1_pcap, history)

    def test_not_a_database_is_one_line(self, y1_pcap, tmp_path):
        history = tmp_path / "h.db"
        history.write_bytes(b"not a sqlite database\n" * 200)
        line = self._serve(y1_pcap, history)
        assert line.startswith(f"repro serve: {history}: ")
        assert "not a database" in line
