"""Snapshot history: append-only sqlite of the served bytes.

Every poll of the serving monitor appends one poll row and one row per
link, and each row keeps the canonical JSON the server serves for it:
a link row holds the link's :attr:`~repro.stream.snapshots.
LinkSnapshot.document`, the bytes ``GET /links/<name>`` answers with,
and a poll row holds every member of the fleet document except
``links`` (:attr:`~repro.stream.snapshots.FleetSnapshot.members`).
Both are encoded once per snapshot object, so a link whose snapshot
is the very object the previous poll recorded, or the one the hub
already published, reuses its bytes; every row is still inserted.

Reads hand the stored bytes back instead of rebuilding snapshots:
``fleet_at`` splices a poll's link documents and its ``poll_seq``
into its stored members, which is the fleet document served at record
time, and ``link_history`` decodes one document per row.  Every
stored field is stream-time deterministic (no wall clock anywhere),
so two identical runs produce byte-identical query results.

Retention is deterministic over stream state: ``max_polls`` keeps the
newest N polls, ``max_age_us`` drops polls whose fleet clock trails
the newest poll by more than the bound (capture time, not wall
clock), and compaction deletes whole polls oldest-first (a partial
poll never survives; the newest poll always does).
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..simnet.clock import Ticks
from ..stream.snapshots import (SNAPSHOT_SCHEMA_VERSION, FleetSnapshot,
                                LinkSnapshot)
from .wire import dump_document, insert_members, links_member

#: Version of the store layout itself (distinct from the snapshot
#: schema version, which is stored alongside it).  Layout 2 keeps the
#: served bytes: one document per link row, the fleet members per
#: poll row.
STORE_VERSION = 2

#: A new store's page size: rows hold whole ~1.1 KB link documents,
#: which SQLite's 4 KiB default pages pack loosely.
PAGE_SIZE = 16384


@dataclass(frozen=True)
class Retention:
    """How much history to keep.

    ``max_polls`` bounds the store to the newest N polls;
    ``max_age_us`` drops polls older than the bound relative to the
    newest recorded poll's fleet clock (stream time — replaying the
    same capture compacts identically).  Both ``None`` = unbounded;
    both set = both enforced.  ``compact_every`` is how many appends
    may pass between automatic compactions.
    """

    max_polls: Optional[int] = None
    max_age_us: Optional[int] = None
    compact_every: int = 64

    def __post_init__(self) -> None:
        if self.max_polls is not None and self.max_polls < 1:
            raise ValueError(
                f"max_polls must be >= 1, got {self.max_polls}")
        if self.max_age_us is not None and self.max_age_us < 0:
            raise ValueError(
                f"max_age_us must be >= 0, got {self.max_age_us}")
        if self.compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {self.compact_every}")

    @property
    def bounded(self) -> bool:
        return self.max_polls is not None or self.max_age_us is not None


class HistoryStore:
    """Append-only store of the documents served per poll.

    One writer (the monitor thread) appends; any number of readers
    (the asyncio handlers) query — a single internal lock serializes
    access to the shared sqlite connection.  ``path`` may be
    ``":memory:"`` for an ephemeral store.  A store of another
    snapshot schema or layout raises :class:`ValueError`, a file that
    is not a database :class:`sqlite3.DatabaseError`.
    """

    def __init__(self, path: str = ":memory:",
                 retention: Retention | None = None):
        self.path = path
        self.retention = retention or Retention()
        self._lock = threading.Lock()
        # One connection shared across the writer thread and the
        # event-loop readers; every use is lock-guarded.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._appends_since_compact = 0
        with self._lock:
            self._create_tables()

    # -- schema -------------------------------------------------------

    def _create_tables(self) -> None:
        conn = self._conn
        # Takes effect only while the database holds no table yet.
        conn.execute(f"PRAGMA page_size = {PAGE_SIZE}")
        conn.execute("CREATE TABLE IF NOT EXISTS meta("
                     "key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        stored = dict(conn.execute("SELECT key, value FROM meta"))
        expected = {"snapshot_schema": str(SNAPSHOT_SCHEMA_VERSION),
                    "store_version": str(STORE_VERSION)}
        if stored == expected:
            return
        if stored:
            raise ValueError(
                f"history store {self.path!r} holds snapshot schema "
                f"{stored.get('snapshot_schema')} in store layout "
                f"{stored.get('store_version')}, this build writes "
                f"{SNAPSHOT_SCHEMA_VERSION} in layout {STORE_VERSION} "
                "— start a fresh store")
        conn.executescript("""
            CREATE TABLE polls(
                seq INTEGER PRIMARY KEY,
                time_us INTEGER NOT NULL,
                members BLOB NOT NULL);
            CREATE TABLE link_polls(
                seq INTEGER NOT NULL,
                link TEXT NOT NULL,
                time_us INTEGER NOT NULL,
                document BLOB NOT NULL,
                PRIMARY KEY(seq, link));
            CREATE INDEX link_polls_by_link
                ON link_polls(link, time_us);
            """)
        conn.executemany("INSERT INTO meta(key, value) VALUES(?, ?)",
                         expected.items())
        conn.commit()

    # -- writing ------------------------------------------------------

    def record(self, snapshot: FleetSnapshot | LinkSnapshot) -> int:
        """Append one poll; returns its sequence number.

        A single-link monitor records its :class:`LinkSnapshot` as a
        one-link poll (no health, no unrouted), so every serve shape
        shares one store layout.
        """
        if isinstance(snapshot, LinkSnapshot):
            snapshot = FleetSnapshot.from_links(
                (snapshot,), now_us=snapshot.time_us)
        # A name listed twice keeps its last snapshot, as
        # ``FleetSnapshot.to_json`` does.
        links = {link.link: link for link in snapshot.links}
        rows = [(name, link.time_us, link.document)
                for name, link in links.items()]
        members = snapshot.members
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM polls").fetchone()
            seq = int(row[0]) + 1
            self._conn.execute(
                "INSERT INTO polls(seq, time_us, members) "
                "VALUES(?, ?, ?)", (seq, snapshot.time_us, members))
            self._conn.executemany(
                "INSERT INTO link_polls(seq, link, time_us, document) "
                "VALUES(?, ?, ?, ?)",
                [(seq, name, time_us, document)
                 for name, time_us, document in rows])
            self._conn.commit()
            self._appends_since_compact += 1
            due = (self.retention.bounded
                   and self._appends_since_compact
                   >= self.retention.compact_every)
        if due:
            self.compact()
        return seq

    def compact(self) -> int:
        """Drop the oldest polls beyond the retention bounds.

        Both bounds reduce to a single "first surviving seq" cutoff —
        the stricter one wins — and whole polls below it are deleted
        oldest-first.  The age bound compares each poll's fleet clock
        to the *newest* poll's, so the newest poll always survives.
        """
        retention = self.retention
        if not retention.bounded:
            return 0
        with self._lock:
            self._appends_since_compact = 0
            cutoff = 0
            if retention.max_polls is not None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM polls").fetchone()
                excess = int(row[0]) - retention.max_polls
                if excess > 0:
                    cutoff = int(self._conn.execute(
                        "SELECT seq FROM polls "
                        "ORDER BY seq LIMIT 1 OFFSET ?",
                        (excess,)).fetchone()[0])
            if retention.max_age_us is not None:
                row = self._conn.execute(
                    "SELECT MAX(time_us) FROM polls").fetchone()
                if row[0] is not None:
                    horizon = int(row[0]) - retention.max_age_us
                    survivor = self._conn.execute(
                        "SELECT MIN(seq) FROM polls "
                        "WHERE time_us >= ?", (horizon,)).fetchone()
                    cutoff = max(cutoff, int(survivor[0]))
            if cutoff <= 0:
                return 0
            removed = self._conn.execute(
                "SELECT COUNT(*) FROM polls WHERE seq < ?",
                (cutoff,)).fetchone()[0]
            if not removed:
                return 0
            self._conn.execute(
                "DELETE FROM link_polls WHERE seq < ?", (cutoff,))
            self._conn.execute(
                "DELETE FROM polls WHERE seq < ?", (cutoff,))
            self._conn.commit()
            return int(removed)

    # -- reading ------------------------------------------------------

    def poll_count(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM polls").fetchone()
        return int(row[0])

    def span_us(self) -> tuple[Ticks, Ticks] | None:
        """``(earliest, latest)`` poll clock, ``None`` when empty."""
        with self._lock:
            row = self._conn.execute(
                "SELECT MIN(time_us), MAX(time_us) FROM polls"
            ).fetchone()
        if row[0] is None:
            return None
        return int(row[0]), int(row[1])

    def link_names(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT link FROM link_polls "
                "ORDER BY link").fetchall()
        return [row[0] for row in rows]

    def link_history(self, link: str, since_us: Ticks = 0,
                     until_us: Optional[Ticks] = None,
                     limit: Optional[int] = None
                     ) -> list[dict[str, Any]]:
        """The recorded documents of ``link``, oldest first.

        Each is the link document served at its poll, decoded, plus
        its ``poll_seq``.  ``since_us``/``until_us`` bound the link's
        own stream clock (inclusive); ``limit`` keeps the *newest*
        matching polls.
        """
        query = ["SELECT seq, document FROM link_polls "
                 "WHERE link = ? AND time_us >= ?"]
        args: list[Any] = [link, since_us]
        if until_us is not None:
            query.append("AND time_us <= ?")
            args.append(until_us)
        query.append("ORDER BY seq DESC")
        if limit is not None:
            query.append("LIMIT ?")
            args.append(limit)
        with self._lock:
            rows = self._conn.execute(
                " ".join(query), args).fetchall()
        documents = []
        for seq, stored in reversed(rows):
            document = json.loads(stored)
            document["poll_seq"] = seq
            documents.append(document)
        return documents

    def fleet_at(self, time_us: Ticks) -> Optional[bytes]:
        """The fleet document served as of stream time ``time_us``.

        The newest recorded poll whose fleet clock is at or before
        ``time_us``: its stored members with its link documents and
        its ``poll_seq`` spliced in, the body ``GET /fleet/at`` sends.
        ``None`` when nothing that old exists.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT seq, members FROM polls WHERE time_us <= ? "
                "ORDER BY seq DESC LIMIT 1", (time_us,)).fetchone()
            if row is None:
                return None
            seq, members = row
            links = self._conn.execute(
                "SELECT link, document FROM link_polls WHERE seq = ?",
                (seq,)).fetchall()
        return insert_members(members, {
            "poll_seq": dump_document({"poll_seq": seq})[1:-1],
            "links": links_member(dict(links))})

    def polls(self) -> Iterator[tuple[int, Ticks]]:
        """Every ``(seq, time_us)`` poll, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, time_us FROM polls ORDER BY seq"
            ).fetchall()
        return iter([(int(seq), int(time)) for seq, time in rows])

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
