"""The typed snapshot contract of the monitoring surface.

Monitor output used to be free-form ``dict``s assembled inside
:meth:`StreamPipeline.snapshot`; every consumer (renderers, the CLI,
dashboards) had to agree on the keys by convention. This module makes
the contract explicit: frozen dataclasses describe exactly what a
snapshot contains, and :meth:`to_json` is the one place that maps the
typed form onto the versioned wire schema (``"schema": 1``).

Three shapes:

* :class:`StageCounters` — one pipeline stage's immutable counter set
  (the mutable accumulator lives in the pipeline as ``StageTally`` and
  is frozen into this at snapshot time);
* :class:`LinkSnapshot` — everything one :class:`~repro.stream.
  pipeline.StreamPipeline` knows at an instant. Deliberately free of
  any fleet-relative derived state (health, rank): the same link
  produces the byte-identical snapshot whether it runs alone under
  ``repro monitor`` or as one member of a fleet — that is what the
  parity suite in ``tests/stream/test_fleet.py`` pins.
* :class:`FleetSnapshot` — the aggregate view over N links: summed
  totals and stage counters, per-analyzer rollups, per-link health
  classified against the fleet clock, and the top-K anomaly links.

Schema history:

* ``1`` — initial versioned schema (PR 5). The unversioned PR 4 dict
  had the same link-level keys minus ``schema``/``link``.
* ``2`` — adds the per-link ``protocol`` tag (the protocol
  abstraction: each link binds one
  :class:`~repro.protocols.base.ProtocolSpec`). ``from_json`` still
  accepts schema-1 documents, defaulting ``protocol`` to
  ``"iec104"`` — every schema-1 writer was IEC 104-only.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..simnet.clock import Ticks

#: Version stamped into every ``to_json`` document.
SNAPSHOT_SCHEMA_VERSION = 2

#: Schemas ``from_json`` reads: the current one and schema 1 (whose
#: documents lack ``protocol`` — IEC 104 by construction).
_READABLE_SCHEMAS = (1, SNAPSHOT_SCHEMA_VERSION)

#: How many links ``FleetSnapshot.top_anomalies`` keeps.
TOP_ANOMALIES = 5


@dataclass(frozen=True, slots=True)
class StageCounters:
    """Immutable per-stage accounting (one stage of the event bus)."""

    received: int = 0
    emitted: int = 0
    filtered: int = 0
    errors: int = 0
    dropped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"received": self.received, "emitted": self.emitted,
                "filtered": self.filtered, "errors": self.errors,
                "dropped": self.dropped}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "StageCounters":
        """Inverse of :meth:`as_dict` (the shard wire format)."""
        return cls(received=data.get("received", 0),
                   emitted=data.get("emitted", 0),
                   filtered=data.get("filtered", 0),
                   errors=data.get("errors", 0),
                   dropped=data.get("dropped", 0))

    def __add__(self, other: "StageCounters") -> "StageCounters":
        return StageCounters(
            received=self.received + other.received,
            emitted=self.emitted + other.emitted,
            filtered=self.filtered + other.filtered,
            errors=self.errors + other.errors,
            dropped=self.dropped + other.dropped)


class LinkHealth(enum.Enum):
    """Liveness of one link, judged by the T3-scaled eviction signal.

    A healthy IEC 104 link is never silent longer than the t3 idle
    timer (a TESTFR keep-alive is due then), so silence is graded
    against t3 multiples — see :class:`~repro.stream.fleet.
    LinkHealthPolicy` for the thresholds.
    """

    LIVE = "live"
    IDLE = "idle"
    DEAD = "dead"


@dataclass(frozen=True, slots=True)
class LinkSnapshot:
    """One pipeline's state at an instant (the per-link contract).

    ``stages`` maps stage name to frozen :class:`StageCounters`;
    ``analyzers`` maps analyzer name to that analyzer's own snapshot
    dict (analyzer payloads stay open-schema — each analyzer owns its
    keys); ``eviction`` is the :class:`~repro.stream.eviction.
    EvictionStats` counter dict. ``protocol`` names the
    :class:`~repro.protocols.base.ProtocolSpec` the link's pipeline
    is bound to (schema 2).
    """

    link: str
    time_us: Ticks
    packets: int
    events: int
    failures: int
    late_items: int
    order_violations: int
    reorder_pending: int
    reassemblers: int
    protocol: str = "iec104"
    stages: Mapping[str, StageCounters] = field(default_factory=dict)
    eviction: Mapping[str, int] = field(default_factory=dict)
    analyzers: Mapping[str, Mapping[str, Any]] = \
        field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """The versioned wire form (plain JSON-serializable dict)."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "link": self.link,
            "time_us": self.time_us,
            "packets": self.packets,
            "events": self.events,
            "failures": self.failures,
            "late_items": self.late_items,
            "order_violations": self.order_violations,
            "reorder_pending": self.reorder_pending,
            "reassemblers": self.reassemblers,
            "protocol": self.protocol,
            "stages": {stage: counters.as_dict()
                       for stage, counters in self.stages.items()},
            "eviction": dict(self.eviction),
            "analyzers": {name: dict(data)
                          for name, data in self.analyzers.items()},
        }

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "LinkSnapshot":
        """Rebuild a snapshot from its :meth:`to_json` wire form.

        This is the parent half of the sharded-fleet wire contract
        (:mod:`repro.stream.shard`): workers serialize their link
        snapshots with :meth:`to_json` and the supervisor rebuilds the
        typed form here, so a merged :class:`FleetSnapshot` is derived
        from exactly the same shapes as an in-process fleet's.
        """
        schema = document.get("schema")
        if schema not in _READABLE_SCHEMAS:
            raise ValueError(
                f"unsupported snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})")
        return cls(
            link=document["link"],
            time_us=document["time_us"],
            packets=document["packets"],
            events=document["events"],
            failures=document["failures"],
            late_items=document["late_items"],
            order_violations=document["order_violations"],
            reorder_pending=document["reorder_pending"],
            reassemblers=document["reassemblers"],
            protocol=document.get("protocol", "iec104"),
            stages={stage: StageCounters.from_dict(counters)
                    for stage, counters
                    in document.get("stages", {}).items()},
            eviction=dict(document.get("eviction", {})),
            analyzers={name: dict(data) for name, data
                       in document.get("analyzers", {}).items()},
        )

    @property
    def alerts(self) -> int:
        """Detector alerts on this link (0 when no detector runs)."""
        detector = self.analyzers.get("detector", {})
        value = detector.get("alerts", 0)
        return value if isinstance(value, int) else 0


@dataclass(frozen=True, slots=True)
class LinkAnomaly:
    """One entry of the fleet's top-K anomaly ranking."""

    link: str
    alerts: int
    failures: int
    order_violations: int

    def as_dict(self) -> dict[str, Any]:
        return {"link": self.link, "alerts": self.alerts,
                "failures": self.failures,
                "order_violations": self.order_violations}

    @property
    def score(self) -> tuple[int, int, int]:
        return (self.alerts, self.failures, self.order_violations)


@dataclass(frozen=True, slots=True)
class FleetSnapshot:
    """The aggregate over every link of a fleet at an instant.

    ``time_us`` is the fleet clock — the max of the member link clocks
    (each link clock is its own capture's latest timestamp). Totals
    are exact sums over ``links``; ``analyzers`` holds per-analyzer
    rollups where every integer counter is summed across the links
    that report it (non-numeric analyzer fields are per-link detail
    and do not aggregate). ``health`` maps link name to a
    :class:`LinkHealth` value string, classified by the supervisor's
    :class:`~repro.stream.fleet.LinkHealthPolicy`. ``unrouted`` counts
    demuxed frames that matched no link (0 without a demux).
    """

    time_us: Ticks
    links: tuple[LinkSnapshot, ...]
    health: Mapping[str, str] = field(default_factory=dict)
    packets: int = 0
    events: int = 0
    failures: int = 0
    late_items: int = 0
    order_violations: int = 0
    stages: Mapping[str, StageCounters] = field(default_factory=dict)
    analyzers: Mapping[str, Mapping[str, int]] = \
        field(default_factory=dict)
    top_anomalies: tuple[LinkAnomaly, ...] = ()
    unrouted: int = 0

    @classmethod
    def from_links(cls, links: tuple[LinkSnapshot, ...],
                   now_us: Ticks,
                   health: Mapping[str, str] | None = None,
                   unrouted: int = 0) -> "FleetSnapshot":
        """Derive every aggregate field from the member snapshots: a
        fresh :class:`FleetTally` fold over ``links``."""
        tally = FleetTally()
        for link in links:
            tally.add(link)
        return tally.snapshot(links, now_us, health=health,
                              unrouted=unrouted)

    @property
    def health_counts(self) -> dict[str, int]:
        """Links per health class (always lists all three classes)."""
        counts = {status.value: 0 for status in LinkHealth}
        for status in self.health.values():
            counts[status] = counts.get(status, 0) + 1
        return counts

    def to_json(self) -> dict[str, Any]:
        """The versioned wire form (plain JSON-serializable dict).

        ``repro.serve``'s hub serializes this with the members' cached
        link documents spliced in: only ``links`` and ``link_count``
        may depend on ``links``.
        """
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "kind": "fleet",
            "time_us": self.time_us,
            "link_count": len(self.links),
            "links": {link.link: link.to_json()
                      for link in self.links},
            "health": dict(self.health),
            "health_counts": self.health_counts,
            "packets": self.packets,
            "events": self.events,
            "failures": self.failures,
            "late_items": self.late_items,
            "order_violations": self.order_violations,
            "stages": {stage: counters.as_dict()
                       for stage, counters in self.stages.items()},
            "analyzers": {name: dict(data)
                          for name, data in self.analyzers.items()},
            "top_anomalies": [entry.as_dict()
                              for entry in self.top_anomalies],
            "unrouted": self.unrouted,
        }


class FleetTally:
    """The fleet rollups, kept one link contribution at a time.

    The one definition of every aggregate field of a
    :class:`FleetSnapshot`: totals, stage sums, the analyzer rollup
    and the top-K anomaly ranking. :meth:`FleetSnapshot.from_links`
    folds every member into a fresh tally with :meth:`add`. A running
    fleet calls :meth:`apply` with each link's latest snapshot: it
    takes the name's old contribution out first and skips the very
    object it already holds, so a poll costs the links that changed.

    An analyzer key is summed only while it is a non-``bool`` ``int``
    in every link that reports it (flags are not counts; other types
    are per-link detail), and an analyzer with no such key still
    appears, as ``{}``. Per key the tally counts the links reporting
    it and those that disqualify it, so the key comes back when the
    last disqualifying link is taken out.
    """

    __slots__ = ("_members", "_totals", "_stages", "_analyzers",
                 "_ranking", "_added")

    def __init__(self) -> None:
        #: Link name -> the snapshot :meth:`apply` folded in for it.
        self._members: dict[str, LinkSnapshot] = {}
        #: packets, events, failures, late_items, order_violations.
        self._totals = [0, 0, 0, 0, 0]
        #: Stage -> [reporting links, received, emitted, filtered,
        #: errors, dropped].
        self._stages: dict[str, list[int]] = {}
        #: Analyzer -> (reporting links, {key: [reporting links,
        #: links whose value does not qualify, sum of the ints]}).
        self._analyzers: dict[str, list[Any]] = {}
        #: (descending-score sort key, fold order, entry) for every
        #: link with a positive anomaly score, kept sorted; the fold
        #: order breaks exact ties the way a stable sort would.
        self._ranking: list[tuple[tuple[Any, ...], int,
                                  LinkAnomaly]] = []
        self._added = 0

    def add(self, link: LinkSnapshot) -> None:
        """Fold one more member's contribution in."""
        self._fold(link, 1)

    def apply(self, link: LinkSnapshot) -> None:
        """Make ``link`` the contribution of its name."""
        old = self._members.get(link.link)
        if old is link:
            return
        if old is not None:
            self._fold(old, -1)
        self._fold(link, 1)
        self._members[link.link] = link

    def drop(self, name: str) -> None:
        """Take the contribution :meth:`apply` made for ``name`` out."""
        old = self._members.pop(name, None)
        if old is not None:
            self._fold(old, -1)

    def _fold(self, link: LinkSnapshot, sign: int) -> None:
        totals = self._totals
        totals[0] += sign * link.packets
        totals[1] += sign * link.events
        totals[2] += sign * link.failures
        totals[3] += sign * link.late_items
        totals[4] += sign * link.order_violations
        stages = self._stages
        for stage, counters in link.stages.items():
            sums = stages.get(stage)
            if sums is None:
                sums = stages[stage] = [0, 0, 0, 0, 0, 0]
            sums[0] += sign
            if not sums[0]:
                del stages[stage]
                continue
            sums[1] += sign * counters.received
            sums[2] += sign * counters.emitted
            sums[3] += sign * counters.filtered
            sums[4] += sign * counters.errors
            sums[5] += sign * counters.dropped
        analyzers = self._analyzers
        for name, data in link.analyzers.items():
            rollup = analyzers.get(name)
            if rollup is None:
                rollup = analyzers[name] = [0, {}]
            rollup[0] += sign
            if not rollup[0]:
                del analyzers[name]
                continue
            keys = rollup[1]
            for key, value in data.items():
                tally = keys.get(key)
                if tally is None:
                    tally = keys[key] = [0, 0, 0]
                tally[0] += sign
                if not tally[0]:
                    del keys[key]
                elif isinstance(value, bool) \
                        or not isinstance(value, int):
                    tally[1] += sign
                else:
                    tally[2] += sign * value
        anomaly = LinkAnomaly(link=link.link, alerts=link.alerts,
                              failures=link.failures,
                              order_violations=link.order_violations)
        score = anomaly.score
        if score > (0, 0, 0):
            key = (-score[0], -score[1], -score[2], link.link)
            ranking = self._ranking
            if sign > 0:
                self._added += 1
                bisect.insort(ranking, (key, self._added, anomaly))
            else:
                del ranking[bisect.bisect_left(ranking, (key,))]

    def snapshot(self, links: tuple[LinkSnapshot, ...], now_us: Ticks,
                 health: Mapping[str, str] | None = None,
                 unrouted: int = 0) -> FleetSnapshot:
        """The fleet view over ``links``, the members folded in."""
        packets, events, failures, late_items, order_violations = \
            self._totals
        return FleetSnapshot(
            time_us=now_us,
            links=links,
            health=dict(health or {}),
            packets=packets,
            events=events,
            failures=failures,
            late_items=late_items,
            order_violations=order_violations,
            stages={stage: StageCounters(*sums[1:])
                    for stage, sums in self._stages.items()},
            analyzers={name: {key: tally[2]
                              for key, tally in keys.items()
                              if not tally[1]}
                       for name, (_count, keys)
                       in self._analyzers.items()},
            top_anomalies=tuple(
                entry for _key, _order, entry
                in self._ranking[:TOP_ANOMALIES]),
            unrouted=unrouted,
        )
