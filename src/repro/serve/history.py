"""Columnar snapshot history: append-only sqlite, time-travel reads.

Every poll of the serving monitor appends one fleet row and one row
per link.  A link whose snapshot is the very object the previous poll
recorded (a pipeline hands back the same one while nothing moved)
reuses that poll's row values instead of encoding them again; every
row is still inserted.

The layout is *columnar in the schema-1 field inventory*:
each scalar field of :class:`~repro.stream.snapshots.LinkSnapshot`
gets its own typed SQL column — derived programmatically from the
dataclass fields, so adding a snapshot field without teaching the
store fails loudly at import time instead of silently widening a JSON
blob — while the open-schema mapping fields (``stages``,
``eviction``, ``analyzers``) are stored as canonical JSON text.

Reads rebuild typed snapshots through the same
:meth:`~repro.stream.snapshots.LinkSnapshot.from_json` /
:meth:`~repro.stream.snapshots.FleetSnapshot.from_links` path the
sharded fleet uses, so a reconstructed fleet document is derived from
exactly the shapes a live snapshot is — and, because every stored
field is stream-time deterministic (no wall clock anywhere), two
identical runs produce byte-identical query results.

Retention is deterministic over stream state: ``max_polls`` keeps the
newest N polls, ``max_age_us`` drops polls whose fleet clock trails
the newest poll by more than the bound (capture time, not wall
clock), and compaction deletes whole polls oldest-first (a partial
poll never survives; the newest poll always does).
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from ..simnet.clock import Ticks
from ..stream.snapshots import (SNAPSHOT_SCHEMA_VERSION, FleetSnapshot,
                                LinkSnapshot)

#: Version of the store layout itself (distinct from the snapshot
#: schema version, which is stored alongside it).
STORE_VERSION = 1

#: LinkSnapshot annotation text -> SQL column type.  Mapping-typed
#: fields become canonical-JSON TEXT columns.
_SQL_TYPES = {"str": "TEXT NOT NULL", "int": "INTEGER NOT NULL",
              "Ticks": "INTEGER NOT NULL"}

#: Fields serialized as JSON text rather than native columns.
JSON_FIELDS = ("stages", "eviction", "analyzers")

#: The encoder of the stored JSON text (sorted keys), built once:
#: what ``json.dumps(..., sort_keys=True)`` builds on every call.
_STORED_JSON = json.JSONEncoder(sort_keys=True)


def link_columns() -> tuple[tuple[str, str], ...]:
    """``(column, sql_type)`` per schema-1 ``LinkSnapshot`` field.

    Derived from the dataclass field inventory so the store and the
    snapshot contract cannot drift silently: an unknown field type
    raises here, at import time.
    """
    columns: list[tuple[str, str]] = []
    for field in dataclasses.fields(LinkSnapshot):
        annotation = str(field.type)
        if field.name in JSON_FIELDS:
            columns.append((field.name, "TEXT NOT NULL"))
        elif annotation in _SQL_TYPES:
            columns.append((field.name, _SQL_TYPES[annotation]))
        else:
            raise TypeError(
                f"LinkSnapshot.{field.name}: no columnar mapping for "
                f"type {annotation!r} — teach repro.serve.history "
                "about it")
    return tuple(columns)


#: The derived columnar layout, fixed at import time.
LINK_COLUMNS = link_columns()


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
    """Append-only columnar store of per-poll fleet snapshots.

    One writer (the monitor thread) appends; any number of readers
    (the asyncio handlers) query — a single internal lock serializes
    access to the shared sqlite connection.  ``path`` may be
    ``":memory:"`` for an ephemeral store.
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
        #: Link name -> (the snapshot last recorded for it, its row
        #: values): the links of the latest poll only.
        self._rows: dict[str, tuple[LinkSnapshot, tuple[Any, ...]]] = {}
        with self._lock:
            self._create_tables()

    # -- schema -------------------------------------------------------

    def _create_tables(self) -> None:
        link_cols = ", ".join(f"{name} {sql}"
                              for name, sql in LINK_COLUMNS)
        self._conn.executescript(f"""
            CREATE TABLE IF NOT EXISTS meta(
                key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE IF NOT EXISTS polls(
                seq INTEGER PRIMARY KEY,
                time_us INTEGER NOT NULL,
                unrouted INTEGER NOT NULL,
                health TEXT NOT NULL);
            CREATE TABLE IF NOT EXISTS link_polls(
                seq INTEGER NOT NULL,
                {link_cols},
                PRIMARY KEY(seq, link));
            CREATE INDEX IF NOT EXISTS link_polls_by_link
                ON link_polls(link, time_us);
            """)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'snapshot_schema'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta(key, value) VALUES(?, ?), (?, ?)",
                ("snapshot_schema", str(SNAPSHOT_SCHEMA_VERSION),
                 "store_version", str(STORE_VERSION)))
            self._conn.commit()
        elif row[0] != str(SNAPSHOT_SCHEMA_VERSION):
            raise ValueError(
                f"history store {self.path!r} holds snapshot schema "
                f"{row[0]}, this build writes "
                f"{SNAPSHOT_SCHEMA_VERSION} — start a fresh store")

    # -- writing ------------------------------------------------------

    def record(self, snapshot: FleetSnapshot | LinkSnapshot) -> int:
        """Append one poll; returns its sequence number.

        A single-link monitor records its :class:`LinkSnapshot` as a
        one-link poll (no health, no unrouted), so every serve shape
        shares one store layout.
        """
        if isinstance(snapshot, LinkSnapshot):
            links: Sequence[LinkSnapshot] = (snapshot,)
            health: dict[str, str] = {}
            unrouted = 0
        else:
            links = snapshot.links
            health = dict(snapshot.health)
            unrouted = snapshot.unrouted
        rows = self._link_rows(links)
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM polls").fetchone()
            seq = int(row[0]) + 1
            self._conn.execute(
                "INSERT INTO polls(seq, time_us, unrouted, health) "
                "VALUES(?, ?, ?, ?)",
                (seq, snapshot.time_us, unrouted,
                 _STORED_JSON.encode(health)))
            names = ", ".join(name for name, _sql in LINK_COLUMNS)
            slots = ", ".join("?" for _ in LINK_COLUMNS)
            self._conn.executemany(
                f"INSERT INTO link_polls(seq, {names}) "
                f"VALUES(?, {slots})",
                [(seq, *row) for row in rows])
            self._conn.commit()
            self._appends_since_compact += 1
            due = (self.retention.bounded
                   and self._appends_since_compact
                   >= self.retention.compact_every)
        if due:
            self.compact()
        return seq

    def _link_rows(self, links: Sequence[LinkSnapshot]
                   ) -> list[tuple[Any, ...]]:
        """Row values per link, encoding only links that changed."""
        cache = self._rows
        fresh: dict[str, tuple[LinkSnapshot, tuple[Any, ...]]] = {}
        rows: list[tuple[Any, ...]] = []
        for link in links:
            entry = cache.get(link.link)
            if entry is None or entry[0] is not link:
                entry = (link, self._link_row(link))
            fresh[link.link] = entry
            rows.append(entry[1])
        self._rows = fresh
        return rows

    @staticmethod
    def _link_row(link: LinkSnapshot) -> tuple[Any, ...]:
        document = link.to_json()
        values: list[Any] = []
        for name, _sql in LINK_COLUMNS:
            value = document[name]
            if name in JSON_FIELDS:
                value = _STORED_JSON.encode(value)
            values.append(value)
        return tuple(values)

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
        """Schema-1 link documents for ``link``, oldest first.

        ``since_us``/``until_us`` bound the link's own stream clock
        (inclusive); ``limit`` keeps the *newest* matching polls.
        """
        query = [f"SELECT seq, "
                 f"{', '.join(n for n, _s in LINK_COLUMNS)} "
                 f"FROM link_polls WHERE link = ? AND time_us >= ?"]
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
        for row in reversed(rows):
            document = self._link_document(row[1:])
            document["poll_seq"] = row[0]
            documents.append(document)
        return documents

    @staticmethod
    def _link_document(row: Sequence[Any]) -> dict[str, Any]:
        document: dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA_VERSION}
        for (name, _sql), value in zip(LINK_COLUMNS, row):
            if name in JSON_FIELDS:
                value = json.loads(value)
            document[name] = value
        return document

    def _links_of(self, seq: int) -> tuple[LinkSnapshot, ...]:
        rows = self._conn.execute(
            f"SELECT {', '.join(n for n, _s in LINK_COLUMNS)} "
            f"FROM link_polls WHERE seq = ? ORDER BY link",
            (seq,)).fetchall()
        return tuple(LinkSnapshot.from_json(self._link_document(row))
                     for row in rows)

    def fleet_at(self, time_us: Ticks) -> Optional[dict[str, Any]]:
        """The fleet document as of stream time ``time_us``.

        Rebuilds the newest recorded poll whose fleet clock is at or
        before ``time_us`` — the time-travel read behind
        ``GET /fleet/at``.  ``None`` when nothing that old exists.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT seq, time_us, unrouted, health FROM polls "
                "WHERE time_us <= ? ORDER BY seq DESC LIMIT 1",
                (time_us,)).fetchone()
            if row is None:
                return None
            links = self._links_of(row[0])
        snapshot = FleetSnapshot.from_links(
            links, now_us=int(row[1]),
            health=json.loads(row[3]), unrouted=int(row[2]))
        document = snapshot.to_json()
        document["poll_seq"] = row[0]
        return document

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
