"""Label-aware detection scoring: verdicts vs ground-truth intervals.

The scenario corpus (:mod:`repro.scenarios`) emits captures whose
sidecars label *when* an attack ran (``time_us`` intervals) and *who*
ran it (attacker endpoint names).  This module holds the generic
matching layer that turns a detector's per-connection first-alert
times into precision / recall / detection-latency numbers against
those labels.  It deliberately knows nothing about the scenario
registry — only about connections, endpoints and intervals — so any
analyzer that can report "connection X first alerted at time T" can
be scored with it.

Semantics (documented in ``docs/scenarios.md``):

* a connection is *malicious* when any of its endpoints is listed as
  an attacker endpoint in the ground truth;
* a **true positive** is a malicious connection that alerted, a
  **false positive** a benign connection that alerted, and a **false
  negative** a malicious connection that never alerted;
* **detection latency** is ``first_alert_us - onset_us`` where onset
  is the earliest labeled interval start, clamped at zero (an alert
  raised before the labeled onset still counts as latency 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..simnet.clock import Ticks


@dataclass(frozen=True, slots=True)
class LabeledInterval:
    """One labeled attack interval on the capture's ``time_us`` axis."""

    start_us: Ticks
    end_us: Ticks
    label: str = ""

    def __post_init__(self) -> None:
        if self.start_us < 0:
            raise ValueError(f"start_us must be >= 0, "
                             f"got {self.start_us}")
        if self.end_us < self.start_us:
            raise ValueError(
                f"end_us {self.end_us} precedes start_us "
                f"{self.start_us}")

    def contains(self, time_us: Ticks) -> bool:
        return self.start_us <= time_us <= self.end_us

    def to_json(self) -> dict[str, Any]:
        return {"start_us": self.start_us, "end_us": self.end_us,
                "label": self.label}

    @classmethod
    def from_json(cls, document: Any) -> "LabeledInterval":
        """The interval a sidecar holds; anything malformed raises
        ValueError naming the problem."""
        what = "labeled interval"
        return cls(start_us=json_member(document, "start_us", int, what),
                   end_us=json_member(document, "end_us", int, what),
                   label=json_member(document, "label", str, what, ""))


def json_member(document: Any, key: str, kind: type, what: str,
                default: Any = None) -> Any:
    """``document[key]`` (``default`` when absent), which must be a
    ``kind`` and no bool; anything else raises ValueError naming
    ``what`` and ``key``."""
    if not isinstance(document, Mapping):
        raise ValueError(f"{what} must be an object, got {document!r}")
    value = document.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} {key!r} must be {kind.__name__}, "
                         f"got {value!r}")
    return value


def connection_endpoints(connection: object) -> tuple[str, ...]:
    """Endpoint names of a detector connection key.

    Connections are either ``(server, outstation)`` name tuples (the
    per-connection whitelist key) or a single opaque label.
    """
    if isinstance(connection, tuple):
        return tuple(str(part) for part in connection)
    return (str(connection),)


def involves_endpoints(connection: object,
                       endpoints: Iterable[str]) -> bool:
    """True when any endpoint of ``connection`` is in ``endpoints``."""
    wanted = set(endpoints)
    return any(part in wanted
               for part in connection_endpoints(connection))


@dataclass(frozen=True, slots=True)
class ConnectionOutcome:
    """Scoring outcome for one connection observed in DETECT mode."""

    connection: str
    malicious: bool
    alerted: bool
    first_alert_us: Ticks | None
    latency_us: Ticks | None

    @property
    def kind(self) -> str:
        if self.malicious:
            return "tp" if self.alerted else "fn"
        return "fp" if self.alerted else "tn"


@dataclass(frozen=True, slots=True)
class DetectionScore:
    """Precision / recall / latency of one scored replay."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    #: Minimum latency over true positives (first detection of the
    #: attack); ``None`` when nothing malicious was caught.
    detection_latency_us: Ticks | None
    outcomes: tuple[ConnectionOutcome, ...]

    @property
    def precision(self) -> float:
        alerted = self.true_positives + self.false_positives
        if alerted == 0:
            return 1.0
        return self.true_positives / alerted

    @property
    def recall(self) -> float:
        malicious = self.true_positives + self.false_negatives
        if malicious == 0:
            return 1.0
        return self.true_positives / malicious

    def to_json(self) -> dict[str, Any]:
        return {
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "false_negatives": self.false_negatives,
            "true_negatives": self.true_negatives,
            "precision": self.precision,
            "recall": self.recall,
            "detection_latency_us": self.detection_latency_us,
        }


def score_detections(connections: Iterable[object],
                     attacker_endpoints: Iterable[str],
                     intervals: Sequence[LabeledInterval],
                     first_alerts: Mapping[object, Ticks]
                     ) -> DetectionScore:
    """Match per-connection alerts against ground-truth labels.

    ``connections`` is the universe of connections the detector
    scored (malicious ones missing from it cannot be counted as
    false negatives — the caller passes everything it observed);
    ``first_alerts`` maps the subset that alerted to the stream time
    of the first alerting event.
    """
    attackers = tuple(attacker_endpoints)
    onset_us: Ticks | None = (min(span.start_us for span in intervals)
                              if intervals else None)
    outcomes: list[ConnectionOutcome] = []
    seen: set[object] = set()
    for connection in connections:
        if connection in seen:
            continue
        seen.add(connection)
        malicious = involves_endpoints(connection, attackers)
        first = first_alerts.get(connection)
        latency: Ticks | None = None
        if malicious and first is not None and onset_us is not None:
            latency = max(0, first - onset_us)
        outcomes.append(ConnectionOutcome(
            connection=str(connection), malicious=malicious,
            alerted=first is not None, first_alert_us=first,
            latency_us=latency))
    outcomes.sort(key=lambda outcome: outcome.connection)
    kinds = [outcome.kind for outcome in outcomes]
    latencies = [outcome.latency_us for outcome in outcomes
                 if outcome.latency_us is not None]
    return DetectionScore(
        true_positives=kinds.count("tp"),
        false_positives=kinds.count("fp"),
        false_negatives=kinds.count("fn"),
        true_negatives=kinds.count("tn"),
        detection_latency_us=min(latencies) if latencies else None,
        outcomes=tuple(outcomes))
