"""Replay labeled captures through the stream pipeline and score.

The scorer is deliberately the *production* path: packets go through
a real :class:`~repro.stream.pipeline.StreamPipeline` (frame →
decode → bounded reorder → dispatch) into a fresh
:class:`~repro.stream.detector.OnlineCombinedDetector` built with the
ground truth's ``detect_after_us``.  There is no gate: the scorer and
``repro monitor --detect-after`` share one LEARN→DETECT flip, the
detector's own.  Every event strictly before the boundary is learned
and every event at or after it is scored, whatever the batch size —
the pipeline dispatches events in time order.  The sidecar check in
:class:`~repro.scenarios.sidecar.GroundTruth` keeps the attack onset
at or after the boundary, so the whitelists never train on it.

Matching semantics live in :mod:`repro.analysis.labels`; this module
only wires detector output (scored connections + first-alert times)
to a capture's :class:`~repro.scenarios.sidecar.GroundTruth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..analysis.labels import DetectionScore, score_detections
from ..netstack.addresses import IPv4Address
from ..protocols.base import get_protocol
from ..stream import ListSource, OnlineCombinedDetector, StreamPipeline
from .harness import ScenarioRun
from .registry import all_scenarios
from .sidecar import GroundTruth

#: Scoring batch size (drives the replay loop, not the flip).
SCORE_BATCH = 64


def replay_capture(packets: Sequence[Any],
                   names: Mapping[IPv4Address, str],
                   truth: GroundTruth,
                   batch_size: int = SCORE_BATCH,
                   detector: OnlineCombinedDetector | None = None
                   ) -> OnlineCombinedDetector:
    """Stream one labeled capture; return the flipped detector.

    ``detector`` lets callers replay into a custom-configured (or
    instrumented) detector; it must be fresh, in LEARN mode and built
    with ``detect_after_us=truth.detect_after_us``.
    """
    if detector is None:
        detector = OnlineCombinedDetector(
            detect_after_us=truth.detect_after_us)
    elif detector.detect_after_us != truth.detect_after_us:
        raise ValueError(
            f"detector boundary {detector.detect_after_us} is not the "
            f"ground truth's detect_after_us {truth.detect_after_us}")
    pipeline = StreamPipeline(source=ListSource(packets),
                              names=dict(names),
                              analyzers=[detector],
                              batch_size=batch_size,
                              protocol=get_protocol(truth.protocol))
    pipeline.run_until_exhausted()
    return detector


def score_capture(packets: Sequence[Any],
                  names: Mapping[IPv4Address, str],
                  truth: GroundTruth,
                  batch_size: int = SCORE_BATCH) -> DetectionScore:
    """Precision / recall / latency of one labeled capture."""
    detector = replay_capture(packets, names, truth,
                              batch_size=batch_size)
    return score_detections(
        connections=detector.scored_connections(),
        attacker_endpoints=truth.attacker_endpoints,
        intervals=truth.intervals,
        first_alerts=detector.first_alert_times())


@dataclass(frozen=True, slots=True)
class ScenarioResult:
    """One scenario's scored outcome."""

    name: str
    family: str
    scale: float
    events_learned: int
    events_scored: int
    detection: DetectionScore

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "family": self.family,
            "scale": self.scale,
            "events_learned": self.events_learned,
            "events_scored": self.events_scored,
            "detection": self.detection.to_json(),
        }


def score_run(run: ScenarioRun,
              batch_size: int = SCORE_BATCH) -> ScenarioResult:
    """Build-and-score glue for one finished scenario run."""
    detector = replay_capture(run.packets, run.names, run.truth,
                              batch_size=batch_size)
    detection = score_detections(
        connections=detector.scored_connections(),
        attacker_endpoints=run.truth.attacker_endpoints,
        intervals=run.truth.intervals,
        first_alerts=detector.first_alert_times())
    return ScenarioResult(
        name=run.truth.scenario, family=run.truth.family,
        scale=run.scale, events_learned=detector.events_learned,
        events_scored=detector.events_scored, detection=detection)


@dataclass(frozen=True, slots=True)
class CorpusResult:
    """Whole-corpus outcome at one scale."""

    scale: float
    results: tuple[ScenarioResult, ...]

    @property
    def true_positives(self) -> int:
        return sum(r.detection.true_positives for r in self.results)

    @property
    def false_positives(self) -> int:
        return sum(r.detection.false_positives for r in self.results)

    @property
    def false_negatives(self) -> int:
        return sum(r.detection.false_negatives for r in self.results)

    @property
    def precision(self) -> float:
        alerted = self.true_positives + self.false_positives
        return self.true_positives / alerted if alerted else 1.0

    @property
    def recall(self) -> float:
        malicious = self.true_positives + self.false_negatives
        return self.true_positives / malicious if malicious else 1.0

    @property
    def mean_detection_latency_us(self) -> int | None:
        latencies = [r.detection.detection_latency_us
                     for r in self.results
                     if r.detection.detection_latency_us is not None]
        if not latencies:
            return None
        return sum(latencies) // len(latencies)

    def to_json(self) -> dict[str, Any]:
        return {
            "scale": self.scale,
            "results": [r.to_json() for r in self.results],
            "corpus": {
                "scenarios": len(self.results),
                "true_positives": self.true_positives,
                "false_positives": self.false_positives,
                "false_negatives": self.false_negatives,
                "precision": self.precision,
                "recall": self.recall,
                "mean_detection_latency_us":
                    self.mean_detection_latency_us,
            },
        }


def score_corpus(scale: float = 1.0,
                 names: Iterable[str] | None = None,
                 batch_size: int = SCORE_BATCH) -> CorpusResult:
    """Build + score every registered scenario (or ``names``)."""
    wanted = set(names) if names is not None else None
    results = []
    for registered in all_scenarios():
        if wanted is not None and registered.spec.name not in wanted:
            continue
        run = registered.build(registered.spec, scale)
        results.append(score_run(run, batch_size=batch_size))
    return CorpusResult(scale=scale, results=tuple(results))
