"""LEARN→DETECT flip edge cases on the scored replay path.

The scenario scorer (:mod:`repro.scenarios.score`) promises an
*exact* flip: every event strictly before ``detect_after_us`` is
learned, everything at or after it is scored — regardless of batch
size, reorder window or how sparse the capture is.  These tests pin
the boundary behaviors: the poll that straddles the boundary, a
boundary before any traffic (zero learning), and verdicts produced in
the same poll as the flip.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.scenarios import build_scenario
from repro.scenarios.score import replay_capture, score_capture
from repro.stream import OnlineCombinedDetector
from repro.stream.detector import DetectorMode


class TimeRecorder(OnlineCombinedDetector):
    """Detector that also records (mode, time_us) per event.

    The mode is read after ``super().on_event``: the flip happens
    inside that call, on the first event at or past the boundary.
    """

    def __init__(self, detect_after_us):
        super().__init__(detect_after_us=detect_after_us)
        self.learned_times = []
        self.scored_times = []

    def on_event(self, event):
        super().on_event(event)
        if self.mode is DetectorMode.LEARN:
            self.learned_times.append(event.time_us)
        else:
            self.scored_times.append(event.time_us)


@pytest.fixture(scope="module")
def run():
    return build_scenario("spoofed-interrogation", scale=0.5)


def replay_recorded(run, truth=None, batch_size=64):
    """replay_capture into an instrumented TimeRecorder."""
    truth = truth or run.truth
    recorder = TimeRecorder(truth.detect_after_us)
    detector = replay_capture(run.packets, run.names, truth,
                              batch_size=batch_size,
                              detector=recorder)
    assert detector is recorder
    return recorder


class TestBoundaryPoll:
    def test_flip_is_exact_at_the_boundary(self, run):
        """No event at or past the boundary is ever learned, no event
        before it is ever scored — even though the boundary falls in
        the middle of a batch."""
        recorder = replay_recorded(run)
        boundary = run.truth.detect_after_us
        assert recorder.learned_times
        assert recorder.scored_times
        assert max(recorder.learned_times) < boundary
        assert min(recorder.scored_times) >= boundary

    def test_batch_size_does_not_move_the_flip(self, run):
        """The straddling poll is gated identically whether one poll
        holds the whole capture or a single packet."""
        scores = [score_capture(run.packets, run.names, run.truth,
                                batch_size=batch)
                  for batch in (1, 64, 100_000)]
        outcomes = [[(o.connection, o.kind, o.first_alert_us)
                     for o in score.outcomes] for score in scores]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_sparse_capture_does_not_leak_attack_into_learn(self, run):
        """The regression an exact flip prevents: at ~1.4 pkt/s one
        64-item batch jumps the stream clock far past the boundary,
        so clock-granularity flipping would train on the attack."""
        recorder = replay_recorded(run)
        onset = run.truth.onset_us
        assert all(time_us < onset for time_us
                   in recorder.learned_times)


class TestZeroLearningTraffic:
    def test_boundary_before_first_packet_learns_nothing(self, run):
        truth = dataclasses.replace(run.truth, detect_after_us=1)
        recorder = replay_recorded(run, truth=truth)
        assert recorder.learned_times == []
        assert recorder.events_learned == 0
        assert len(recorder.scored_times) \
            == recorder.events_scored > 0

    def test_every_connection_is_unknown_and_alerts(self, run):
        """With nothing learned, batch semantics mark every token of
        every connection unknown — recall 1.0, precision collapses."""
        truth = dataclasses.replace(run.truth, detect_after_us=1)
        score = score_capture(run.packets, run.names, truth)
        assert score.recall == 1.0
        assert score.false_positives > 0
        assert score.true_negatives == 0
        alerted = [o for o in score.outcomes if o.alerted]
        assert len(alerted) == len(score.outcomes)


class TestVerdictsInFlipPoll:
    def test_first_scored_poll_can_alert(self, run):
        """One giant batch: the flip and the first alerting verdicts
        happen within the same pipeline step."""
        detector = replay_capture(run.packets, run.names, run.truth,
                                  batch_size=1_000_000)
        first_alerts = detector.first_alert_times()
        assert first_alerts
        attacker = [connection for connection in first_alerts
                    if "ATTACKER" in str(connection)]
        assert attacker
        for connection in attacker:
            assert first_alerts[connection] \
                >= run.truth.detect_after_us

    def test_first_alert_times_are_stable(self, run):
        one = replay_capture(run.packets, run.names, run.truth)
        two = replay_capture(run.packets, run.names, run.truth)
        assert one.first_alert_times() == two.first_alert_times()
        assert one.scored_connections() == two.scored_connections()


class TestDetectorBoundary:
    def test_replay_rejects_a_detector_without_the_truths_boundary(
            self, run):
        """A detector built without the sidecar's boundary would learn
        the attack; the replay refuses it instead of scoring it."""
        for boundary in (None, run.truth.detect_after_us + 1):
            with pytest.raises(ValueError, match="detect_after_us"):
                replay_capture(run.packets, run.names, run.truth,
                               detector=OnlineCombinedDetector(
                                   detect_after_us=boundary))
