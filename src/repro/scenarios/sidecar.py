"""Ground-truth sidecars: versioned labels riding next to captures.

A capture alone cannot say *which* packets were the attack — once it
leaves the simulator (cache, disk, another process) the labels must
travel with it.  Every scenario therefore emits a ``.truth.json``
sidecar next to the pcap: a versioned JSON document recording the
attack family, the seed, the LEARN→DETECT boundary, the attacker
endpoint names, the affected IOAs and the labeled attack intervals on
the capture's ``time_us`` axis.  The scoring harness
(:mod:`repro.scenarios.score`) consumes exactly this document, so a
capture scored today and one re-scored from disk next year go through
the same contract.

The wire schema is machine-checked: :class:`GroundTruth` participates
in the staticcheck schema-drift rule (``Truth`` column of the schema
table in ``docs/streaming.md``).
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..analysis.labels import LabeledInterval, json_member
from ..simnet.clock import Ticks

#: Version of the sidecar document layout.
GROUND_TRUTH_SCHEMA_VERSION = 1


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Everything a scorer needs to know about one labeled capture."""

    #: Registry name of the scenario that produced the capture.
    scenario: str
    #: Attack family (one of the registry's families).
    family: str
    #: Seed the scenario ran with — replays must reproduce byte-
    #: identical captures from it.
    seed: int
    #: Duration scale the scenario ran at (1.0 = full length).
    scale: float
    #: Stream time at which a detector should flip LEARN → DETECT:
    #: everything before it is clean training traffic.
    detect_after_us: Ticks
    #: Host names that act maliciously; a connection touching any of
    #: them is malicious ground truth.
    attacker_endpoints: tuple[str, ...]
    #: IOAs the attack reads, writes or masks.
    affected_ioas: tuple[int, ...]
    #: Labeled attack intervals on the capture's ``time_us`` axis.
    intervals: tuple[LabeledInterval, ...]
    #: Protocol spec name the capture's links speak — the scorer
    #: binds its replay pipeline to this spec (older sidecars omit
    #: the key; every one of them was IEC 104).
    protocol: str = "iec104"

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("scenario name must be non-empty")
        if not self.attacker_endpoints:
            raise ValueError(
                f"{self.scenario}: ground truth needs at least one "
                "attacker endpoint")
        if not self.intervals:
            raise ValueError(
                f"{self.scenario}: ground truth needs at least one "
                "labeled interval")
        if self.detect_after_us <= 0:
            raise ValueError(
                f"{self.scenario}: detect_after_us must be positive")
        onset = min(span.start_us for span in self.intervals)
        if onset < self.detect_after_us:
            raise ValueError(
                f"{self.scenario}: attack onset {onset} precedes the "
                f"LEARN→DETECT boundary {self.detect_after_us} — the "
                "whitelists would train on malicious traffic")

    @property
    def onset_us(self) -> Ticks:
        """Earliest labeled attack start."""
        return min(span.start_us for span in self.intervals)

    # -- wire form ----------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": GROUND_TRUTH_SCHEMA_VERSION,
            "scenario": self.scenario,
            "family": self.family,
            "seed": self.seed,
            "scale": self.scale,
            "detect_after_us": self.detect_after_us,
            "attacker_endpoints": list(self.attacker_endpoints),
            "affected_ioas": list(self.affected_ioas),
            "intervals": [span.to_json() for span in self.intervals],
            "protocol": self.protocol,
        }

    @classmethod
    def from_json(cls, document: Any) -> "GroundTruth":
        """The ground truth a sidecar holds; anything malformed raises
        ValueError naming the problem."""
        what = "ground-truth sidecar"
        schema = json_member(document, "schema", int, what)
        if schema != GROUND_TRUTH_SCHEMA_VERSION:
            raise ValueError(
                f"ground-truth sidecar schema {schema!r} is not the "
                f"supported version {GROUND_TRUTH_SCHEMA_VERSION}")
        scale = json_member(document, "scale", numbers.Real, what)
        # NaN, the infinities and ints past a float compare False.
        if not -sys.float_info.max <= scale <= sys.float_info.max:
            raise ValueError(f"{what} 'scale' {scale!r} is not finite")

        def items(key: str, kind: type) -> tuple:
            return tuple(json_member({key: value}, key, kind, what)
                         for value in json_member(document, key, list,
                                                  what))

        return cls(
            scenario=json_member(document, "scenario", str, what),
            family=json_member(document, "family", str, what),
            seed=json_member(document, "seed", int, what),
            scale=float(scale),
            detect_after_us=json_member(document, "detect_after_us",
                                        int, what),
            attacker_endpoints=items("attacker_endpoints", str),
            affected_ioas=items("affected_ioas", int),
            intervals=tuple(LabeledInterval.from_json(span) for span
                            in json_member(document, "intervals", list,
                                           what)),
            protocol=json_member(document, "protocol", str, what,
                                 "iec104"))


def dump_truth(truth: GroundTruth) -> str:
    """Canonical sidecar text: sorted keys, trailing newline.

    Byte-stable for identical ground truth — the determinism tests
    compare this text directly.
    """
    return json.dumps(truth.to_json(), indent=2, sort_keys=True) + "\n"


def load_truth(path: Path) -> GroundTruth:
    return GroundTruth.from_json(json.loads(path.read_text()))


def truth_path(pcap_path: Path) -> Path:
    """Sidecar path convention: ``y1.pcap`` → ``y1.truth.json``
    (mirrors the ``.names.json`` convention of ``repro generate``)."""
    return pcap_path.with_suffix(".truth.json")
