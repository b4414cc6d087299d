"""Online cyber-physical whitelist IDS — the paper's §7 proposal, live.

The batch :class:`~repro.analysis.whitelist.CombinedDetector` fits on
one finished capture and scores another. A SOC needs the same verdicts
*while the traffic flows*: :class:`OnlineCombinedDetector` wraps the
same two whitelists behind a learn-then-detect mode switch and updates
per-connection verdicts one APDU event at a time.

It has no scoring code of its own. Every kernel is the one the batch
detector uses, fed one event at a time: LEARN grows the whitelists
through ``CyberWhitelist.fit_sequence`` and
``PhysicalWhitelist.learn_sample``; DETECT keeps one
:class:`~repro.analysis.whitelist.VerdictAccumulator` per connection
(the fold behind ``CyberWhitelist.score``); and :meth:`alerts` is
:func:`~repro.analysis.whitelist.correlate`, the correlation behind
``CombinedDetector.detect``.
"""

from __future__ import annotations

import enum

from ..analysis.apdu_stream import ApduEvent
from ..analysis.physical import iter_point_samples
from ..analysis.whitelist import (CombinedAlert, CyberVerdict,
                                  CyberWhitelist, PhysicalViolation,
                                  PhysicalWhitelist, VerdictAccumulator,
                                  correlate)
from ..simnet.clock import Ticks
from .analyzers import StreamAnalyzer
from .eviction import EvictionStats


class DetectorMode(enum.Enum):
    """Learn-then-detect lifecycle of the online detector."""

    LEARN = "learn"
    DETECT = "detect"


class OnlineCombinedDetector(StreamAnalyzer):
    """Streaming wrapper over the cyber + physical whitelists.

    Starts in LEARN mode: every event grows the whitelists (clean
    traffic assumed, as in the batch ``fit``). :meth:`switch_to_detect`
    freezes them — finalizing the physical envelopes — and subsequent
    events update per-connection verdicts instead.
    """

    name = "detector"

    def __init__(self, cyber: CyberWhitelist | None = None,
                 physical: PhysicalWhitelist | None = None,
                 cyber_threshold: float = 0.2):
        self.cyber = cyber if cyber is not None else CyberWhitelist()
        self.physical = (physical if physical is not None
                         else PhysicalWhitelist())
        self.cyber_threshold = cyber_threshold
        self.mode = DetectorMode.LEARN
        self.events_learned = 0
        self.events_scored = 0
        #: LEARN-mode state: last token per connection.
        self._learn_prev: dict[object, str] = {}
        #: DETECT-mode state: per-connection verdict accumulators.
        self._verdicts: dict[object, VerdictAccumulator] = {}
        self._violations: list[PhysicalViolation] = []
        #: Stream time a connection's verdict first became alerting
        #: (cyber) or first carried a physical violation.  Never
        #: evicted: detection-latency scoring needs the first hit
        #: even for connections long gone quiet.
        self._first_alert_us: dict[object, Ticks] = {}

    # -- mode lifecycle ----------------------------------------------

    def switch_to_detect(self) -> "OnlineCombinedDetector":
        """Freeze the whitelists and start scoring."""
        if self.mode is DetectorMode.DETECT:
            return self
        self.physical.finalize()
        self._learn_prev.clear()
        self.mode = DetectorMode.DETECT
        return self

    # -- event path ---------------------------------------------------

    def on_event(self, event: ApduEvent) -> None:
        if self.mode is DetectorMode.LEARN:
            self._learn(event)
        else:
            self._score(event)

    def _learn(self, event: ApduEvent) -> None:
        self.events_learned += 1
        connection = event.connection
        token = event.token
        prev = self._learn_prev.get(connection)
        self.cyber.fit_sequence(
            (token,) if prev is None else (prev, token), connection)
        self._learn_prev[connection] = token
        for key, _time_s, value in iter_point_samples(event):
            self.physical.learn_sample(key, value)

    def _score(self, event: ApduEvent) -> None:
        self.events_scored += 1
        connection = event.connection
        state = self._verdicts.get(connection)
        if state is None:
            state = VerdictAccumulator(self.cyber, connection)
            self._verdicts[connection] = state
        state.observe(event.token, event.time_us)
        if connection not in self._first_alert_us \
                and state.is_alert(self.cyber_threshold):
            self._first_alert_us[connection] = event.time_us
        for key, time_s, value in iter_point_samples(event):
            violation = self.physical.check_sample(key, time_s, value)
            if violation is not None:
                self._violations.append(violation)
                self._first_alert_us.setdefault(connection,
                                                event.time_us)

    # -- results ------------------------------------------------------

    def verdicts(self) -> list[CyberVerdict]:
        """Per-connection cyber verdicts (batch ``score_extraction``
        order: sorted by connection)."""
        return [state.verdict() for state in sorted(
            self._verdicts.values(),
            key=lambda state: str(state.connection))]

    def violations(self) -> list[PhysicalViolation]:
        return list(self._violations)

    def scored_connections(self) -> list[object]:
        """Every connection scored so far (sorted; includes evicted
        ones that alerted) — the universe a label-aware scorer counts
        false negatives against."""
        keys = set(self._verdicts) | set(self._first_alert_us)
        return sorted(keys, key=str)

    def first_alert_times(self) -> dict[object, Ticks]:
        """Connection -> stream time of its first alerting event.

        The hook the scenario scoring harness replays against: paired
        with a ground-truth sidecar it yields detection latency (µs
        from labeled attack onset to the first true-positive event).
        """
        return dict(self._first_alert_us)

    def alerts(self) -> list[CombinedAlert]:
        """Correlated alerts: the batch :meth:`CombinedDetector.detect`
        correlation over the verdicts and violations so far."""
        return correlate(self.verdicts(), self._violations,
                         self.cyber_threshold)

    # -- bookkeeping --------------------------------------------------

    def evict(self, horizon_us: Ticks, stats: EvictionStats) -> None:
        # Verdict accumulators for long-dead connections have already
        # alerted (or not); only the LEARN-mode predecessor map and
        # idle verdict states are reclaimable. Learned whitelists are
        # the product — never evicted.
        dead = [connection
                for connection, state in self._verdicts.items()
                if state.last_time_us < horizon_us
                and not state.is_alert(self.cyber_threshold)]
        for connection in dead:
            del self._verdicts[connection]

    def snapshot(self) -> dict:
        alerts = (self.alerts()
                  if self.mode is DetectorMode.DETECT else [])
        return {
            "mode": self.mode.value,
            "learned_connections": len(self.cyber.learned_connections),
            "learned_points": (self.physical.point_count
                               or self.physical.pending_point_count),
            "events_learned": self.events_learned,
            "events_scored": self.events_scored,
            "alerts": len(alerts),
            "alerted_connections": [
                str(alert.connection) for alert in alerts[:10]],
            "physical_violations": len(self._violations),
        }
