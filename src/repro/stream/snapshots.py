"""The typed snapshot contract of the monitoring surface.

Frozen dataclasses describe exactly what a snapshot contains, and
:meth:`to_json` is the one place that maps the typed form onto the
versioned wire schema (``"schema": 2``). A snapshot also owns its
canonical serialization: :func:`dump_document` of its wire form,
encoded the first time it is read and kept on the object.

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
  :class:`~repro.protocols.base.ProtocolSpec`).

Nothing reads a document back into a snapshot: shard workers send
their :class:`LinkSnapshot` objects themselves (see
:mod:`repro.stream.shard`).
"""

from __future__ import annotations

import bisect
import enum
import json
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from ..simnet.clock import Ticks

#: Version stamped into every ``to_json`` document.
SNAPSHOT_SCHEMA_VERSION = 2

#: How many links ``FleetSnapshot.top_anomalies`` keeps.
TOP_ANOMALIES = 5

#: The encoder behind :func:`dump_document`, built once: what
#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds
#: on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dump_document(document: Mapping[str, Any]) -> bytes:
    """The canonical serialized form of a served JSON document.

    Sorted keys and minimal separators, so identical documents are
    byte-identical across runs — the history byte-stability tests
    pin this for time-travel queries.
    """
    return _CANONICAL.encode(document).encode("utf-8")


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
    against t3 multiples — see :func:`~repro.stream.fleet.link_health`
    for the thresholds.
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

    :attr:`document` is written on first read and kept, so a snapshot
    must not be mutated once built (nor its mappings). It is written
    directly, not encoded from :meth:`to_json`, which stays the schema
    definition the document must equal under :func:`dump_document`.
    A pipeline hands back the same object while its link is
    unchanged, so every consumer of an unchanged link shares one
    encode.
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
    _document: bytes | None = field(default=None, init=False,
                                    repr=False, compare=False)

    @property
    def document(self) -> bytes:
        """``dump_document(self.to_json())``, written once."""
        document = self._document
        if document is None:
            document = _write_link(self)
            object.__setattr__(self, "_document", document)
        return document

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

    @property
    def alerts(self) -> int:
        """Detector alerts on this link (0 when no detector runs)."""
        detector = self.analyzers.get("detector", {})
        value = detector.get("alerts", 0)
        return value if isinstance(value, int) else 0


#: :meth:`LinkSnapshot.to_json` as :func:`dump_document` writes it:
#: the members in sorted key order, each stage's counters too.
_LINK_DOCUMENT = (
    '{"analyzers":%s,"events":%d,"eviction":%s,"failures":%d,'
    '"late_items":%d,"link":%s,"order_violations":%d,"packets":%d,'
    '"protocol":%s,"reassemblers":%d,"reorder_pending":%d,'
    '"schema":%d,"stages":{%s},"time_us":%d}')
_STAGE_MEMBER = ('%s:{"dropped":%d,"emitted":%d,"errors":%d,'
                 '"filtered":%d,"received":%d}')


def _write_link(link: LinkSnapshot) -> bytes:
    """``dump_document(link.to_json())``, written in one pass: the
    open-schema mappings go through the one canonical encoder, the
    strings through its escaping, and the integers are formatted
    directly."""
    stages = ",".join([
        _STAGE_MEMBER % (encode_basestring_ascii(name), counters.dropped,
                         counters.emitted, counters.errors,
                         counters.filtered, counters.received)
        for name, counters in sorted(link.stages.items())])
    return (_LINK_DOCUMENT % (
        _CANONICAL.encode({name: dict(data)
                           for name, data in link.analyzers.items()}),
        link.events,
        _CANONICAL.encode(dict(link.eviction)),
        link.failures,
        link.late_items,
        encode_basestring_ascii(link.link),
        link.order_violations,
        link.packets,
        encode_basestring_ascii(link.protocol),
        link.reassemblers,
        link.reorder_pending,
        SNAPSHOT_SCHEMA_VERSION,
        stages,
        link.time_us)).encode("ascii")


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
    :class:`LinkHealth` value string, classified by
    :func:`~repro.stream.fleet.link_health`. ``unrouted`` counts
    demuxed frames that matched no link (0 without a demux).

    :attr:`members` is encoded on first read and kept, so a snapshot
    must not be mutated once built.
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
    _members: bytes | None = field(default=None, init=False,
                                   repr=False, compare=False)

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

    @property
    def members(self) -> bytes:
        """Every member of :meth:`to_json` but ``links``, canonical.

        The same fleet with no links, whose only link-derived members
        are ``links`` and ``link_count``, with the count put back and
        encoded once: what ``repro.serve`` splices each link's
        :attr:`LinkSnapshot.document` into, and what a history row
        keeps.
        """
        members = self._members
        if members is None:
            document = replace(self, links=()).to_json()
            del document["links"]
            document["link_count"] = len(self.links)
            members = dump_document(document)
            object.__setattr__(self, "_members", members)
        return members

    def to_json(self) -> dict[str, Any]:
        """The versioned wire form (plain JSON-serializable dict).

        Only ``links`` and ``link_count`` may depend on ``links``
        (see :attr:`members`).
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
        score = (link.alerts, link.failures, link.order_violations)
        if score > (0, 0, 0):
            key = (-score[0], -score[1], -score[2], link.link)
            ranking = self._ranking
            if sign > 0:
                self._added += 1
                bisect.insort(ranking, (key, self._added,
                                        LinkAnomaly(link.link, *score)))
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
