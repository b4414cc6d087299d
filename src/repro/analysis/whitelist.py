"""Cyber-physical whitelisting — the paper's proposed future work.

The conclusion of the paper proposes "white lists that correlate cyber
(e.g., Markov networks) and physical (time-series analysis) network
measurements to identify suspicious activities". This module implements
that proposal on top of the repository's building blocks:

* :class:`CyberWhitelist` — learns the set of observed APDU-token
  transitions per connection (a Markov whitelist) and scores new
  sequences by their fraction of never-seen transitions;
* :class:`PhysicalWhitelist` — learns per-point value envelopes from
  clean DPI series and checks new samples against them, plus the
  Fig. 21 physics rules (no power through an open breaker);
* :class:`CombinedDetector` — correlates both layers, as the paper
  suggests a grid SOC should.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Sequence

from ..grid.signature import ActivationSignature
from ..simnet.clock import Ticks
from .apdu_stream import StreamExtraction, tokenize
from .ngram import is_valid_token
from .physical import PointKey, extract_series, iter_point_samples


#: Unseen-transition fraction above which a cyber verdict alerts.
CYBER_THRESHOLD = 0.2


def _unseen_fraction(unseen: int, tokens: int) -> float:
    return unseen / (tokens - 1) if tokens >= 2 else 0.0


@dataclass(frozen=True)
class CyberVerdict:
    """Score of one token sequence against the cyber whitelist."""

    connection: object
    tokens: int
    unseen_transitions: tuple[tuple[str, str], ...]
    unknown_tokens: tuple[str, ...]

    @property
    def unseen_fraction(self) -> float:
        return _unseen_fraction(len(self.unseen_transitions), self.tokens)

    def is_alert(self, threshold: float = CYBER_THRESHOLD) -> bool:
        return bool(self.unknown_tokens) \
            or self.unseen_fraction > threshold


@dataclass
class CyberWhitelist:
    """Markov-transition whitelist over APDU token sequences.

    ``per_connection`` keeps one whitelist per connection (stricter:
    a token legal on an AGC link may be illegal on a backup link);
    otherwise a single global whitelist is learned.
    """

    per_connection: bool = True
    _transitions: dict[object, set[tuple[str, str]]] = (
        field(default_factory=dict))
    _vocabulary: set[str] = field(default_factory=set)

    #: Key used for the global whitelist.
    GLOBAL = "<global>"

    def _key(self, connection: object) -> object:
        return connection if self.per_connection else self.GLOBAL

    def fit(self, extraction: StreamExtraction) -> "CyberWhitelist":
        """Learn transitions from a clean capture."""
        for connection, events in extraction.by_connection().items():
            self.fit_sequence(tokenize(events), connection)
        return self

    def fit_sequence(self, tokens: Sequence[str],
                     connection: object = GLOBAL) -> None:
        for token in tokens:
            if not is_valid_token(token):
                raise ValueError(f"invalid APDU token {token!r}")
        key = self._key(connection)
        transitions = self._transitions.setdefault(key, set())
        transitions.update(zip(tokens, tokens[1:]))
        self._vocabulary.update(tokens)

    def knows_connection(self, connection: object) -> bool:
        return self._key(connection) in self._transitions

    def knows_token(self, token: str) -> bool:
        return token in self._vocabulary

    def knows_transition(self, source: str, target: str,
                         connection: object = GLOBAL) -> bool:
        transitions = self._transitions.get(self._key(connection))
        return (transitions is not None
                and (source, target) in transitions)

    @property
    def learned_connections(self) -> list[object]:
        return sorted(self._transitions, key=str)

    def score(self, tokens: Sequence[str],
              connection: object = GLOBAL) -> CyberVerdict:
        """Score a token sequence for one connection."""
        accumulator = VerdictAccumulator(self, connection)
        observe = accumulator.observe
        for token in tokens:
            observe(token)
        return accumulator.verdict()

    def score_extraction(self, extraction: StreamExtraction
                         ) -> list[CyberVerdict]:
        return [self.score(tokenize(events), connection)
                for connection, events
                in sorted(extraction.by_connection().items())]


class VerdictAccumulator:
    """One connection's cyber verdict, folded one token at a time.

    The one scoring kernel: :meth:`CyberWhitelist.score` folds a whole
    sequence through it, and the streaming detector keeps one per
    connection. On a connection the whitelist never learned, every
    token is unknown and every transition unseen. ``last_time_us`` is
    the stream time of the latest token (0 when folded without times).
    """

    __slots__ = ("connection", "_transitions", "_vocabulary", "tokens",
                 "prev", "unseen", "unknown", "last_time_us")

    def __init__(self, whitelist: CyberWhitelist, connection: object):
        self.connection = connection
        learned = whitelist._transitions.get(whitelist._key(connection))
        self._transitions: AbstractSet[tuple[str, str]] = (
            learned if learned is not None else frozenset())
        self._vocabulary: AbstractSet[str] = (
            whitelist._vocabulary if learned is not None else frozenset())
        self.tokens = 0
        self.prev: str | None = None
        self.unseen: list[tuple[str, str]] = []
        self.unknown: dict[str, None] = {}
        self.last_time_us: Ticks = 0

    def observe(self, token: str, time_us: Ticks = 0) -> None:
        self.tokens += 1
        self.last_time_us = time_us
        if token not in self._vocabulary:
            self.unknown.setdefault(token, None)
        prev = self.prev
        if prev is not None and (prev, token) not in self._transitions:
            self.unseen.append((prev, token))
        self.prev = token

    def verdict(self) -> CyberVerdict:
        return CyberVerdict(connection=self.connection, tokens=self.tokens,
                            unseen_transitions=tuple(self.unseen),
                            unknown_tokens=tuple(self.unknown))

    def is_alert(self, threshold: float) -> bool:
        """:meth:`CyberVerdict.is_alert` of :meth:`verdict`, in O(1)."""
        return bool(self.unknown) or _unseen_fraction(
            len(self.unseen), self.tokens) > threshold


@dataclass(frozen=True)
class Envelope:
    """Learned value envelope for one point."""

    low: float
    high: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass(frozen=True)
class PhysicalViolation:
    """One physical-whitelist violation."""

    key: PointKey
    time: float
    value: float
    reason: str


@dataclass
class PhysicalWhitelist:
    """Per-point value envelopes plus physics rules.

    ``margin`` widens each learned [min, max] envelope by a fraction of
    its span (value ranges in a short training window understate the
    long-run range).
    """

    margin: float = 0.25
    _envelopes: dict[PointKey, Envelope] = field(default_factory=dict)
    #: Running (min, max) per point accumulated by
    #: :meth:`learn_sample`; :meth:`finalize` turns them into envelopes.
    _ranges: dict[PointKey, tuple[float, float]] = (
        field(default_factory=dict))

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    def _envelope_for(self, low: float, high: float) -> Envelope:
        span = max(high - low, 0.05 * max(abs(low), abs(high), 1.0))
        pad = self.margin * span
        return Envelope(low=low - pad, high=high + pad)

    def fit(self, extraction: StreamExtraction) -> "PhysicalWhitelist":
        for event in extraction.events:
            for key, _time_s, value in iter_point_samples(event):
                self.learn_sample(key, value)
        return self.finalize()

    def learn_sample(self, key: PointKey, value: float) -> None:
        """Fold one sample into the point's running (min, max).

        The one envelope-learning kernel: :meth:`fit` folds every
        sample of a capture through it and the streaming detector
        folds samples as they arrive. Call :meth:`finalize` once
        learning ends."""
        bounds = self._ranges.get(key)
        if bounds is None:
            self._ranges[key] = (value, value)
        elif value < bounds[0]:
            self._ranges[key] = (value, bounds[1])
        elif value > bounds[1]:
            self._ranges[key] = (bounds[0], value)

    def finalize(self) -> "PhysicalWhitelist":
        """Turn the learned ranges into envelopes."""
        for key, (low, high) in self._ranges.items():
            self._envelopes[key] = self._envelope_for(low, high)
        self._ranges.clear()
        return self

    @property
    def point_count(self) -> int:
        return len(self._envelopes)

    @property
    def pending_point_count(self) -> int:
        """Points with running ranges not yet finalized."""
        return len(self._ranges)

    def envelope(self, key: PointKey) -> Envelope | None:
        return self._envelopes.get(key)

    def check_sample(self, key: PointKey, time: float,
                     value: float) -> PhysicalViolation | None:
        envelope = self._envelopes.get(key)
        if envelope is None:
            return PhysicalViolation(key=key, time=time, value=value,
                                     reason="point never seen during "
                                            "training")
        if not envelope.contains(value):
            return PhysicalViolation(
                key=key, time=time, value=value,
                reason=f"value outside learned envelope "
                       f"[{envelope.low:.2f}, {envelope.high:.2f}]")
        return None

    def check_extraction(self, extraction: StreamExtraction
                         ) -> list[PhysicalViolation]:
        violations: list[PhysicalViolation] = []
        for key, series in extract_series(extraction).items():
            for time, value in zip(series.times, series.values):
                violation = self.check_sample(key, time, value)
                if violation is not None:
                    violations.append(violation)
        return violations

    @staticmethod
    def check_activation(times: Iterable[float],
                         voltages: Iterable[float],
                         breakers: Iterable[int],
                         powers: Iterable[float]) -> list[str]:
        """Physics rules over an activation trace (Fig. 21)."""
        signature = ActivationSignature()
        for time, voltage, breaker, power in zip(times, voltages,
                                                 breakers, powers):
            signature.observe(time, voltage, breaker, power)
        return [f"t={event.time:.1f}s: {event.anomaly}"
                for event in signature.anomalies]


@dataclass(frozen=True)
class CombinedAlert:
    """One correlated alert from the combined detector."""

    connection: object
    cyber: CyberVerdict | None
    physical: tuple[PhysicalViolation, ...]

    @property
    def correlated(self) -> bool:
        """Both layers flagged the same connection."""
        return (self.cyber is not None and self.cyber.is_alert()
                and bool(self.physical))


def correlate(verdicts: Iterable[CyberVerdict],
              violations: Iterable[PhysicalViolation],
              cyber_threshold: float) -> list[CombinedAlert]:
    """One alert per connection that trips either layer.

    The one correlation kernel behind :meth:`CombinedDetector.detect`
    and the streaming detector's ``alerts``. A connection's physical
    evidence is every violation at its station: the second half of a
    ``(server, outstation)`` tuple, or a bare label as-is. Alerts come
    in ``str(connection)`` order.
    """
    by_station: dict[object, list[PhysicalViolation]] = {}
    for violation in violations:
        by_station.setdefault(violation.key.station, []).append(violation)
    alerts: list[CombinedAlert] = []
    for verdict in sorted(verdicts, key=lambda item: str(item.connection)):
        connection = verdict.connection
        station = connection[1] if isinstance(connection, tuple) \
            else connection
        physical = tuple(by_station.get(station, ()))
        if verdict.is_alert(cyber_threshold) or physical:
            alerts.append(CombinedAlert(connection=connection,
                                        cyber=verdict,
                                        physical=physical))
    return alerts


@dataclass
class CombinedDetector:
    """Correlates cyber and physical whitelists per connection."""

    cyber: CyberWhitelist = field(default_factory=CyberWhitelist)
    physical: PhysicalWhitelist = field(
        default_factory=PhysicalWhitelist)

    def fit(self, extraction: StreamExtraction) -> "CombinedDetector":
        self.cyber.fit(extraction)
        self.physical.fit(extraction)
        return self

    def detect(self, extraction: StreamExtraction) -> list[CombinedAlert]:
        """Return one alert per connection that trips either layer."""
        return correlate(self.cyber.score_extraction(extraction),
                         self.physical.check_extraction(extraction),
                         CYBER_THRESHOLD)
