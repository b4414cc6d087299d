"""Structured evaluation of the paper's five hypotheses (Section 5).

The paper frames its measurements around five hypotheses:

* **H1** — SCADA networks are stable and predictable over time;
* **H2** — standard-based endpoints speak standard-conformant IEC 104;
* **H3** — SCADA TCP flows are long-lived;
* **H4** — connection behaviours fall into a few clear clusters;
* **H5** — DPI of the payload reveals the physical system.

This module evaluates each hypothesis on a capture (or a pair of
yearly captures) and reports a verdict mirroring the paper's own:
H1 mixed, H2 rejected, H3 rejected, H4 supported, H5 supported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..netstack.packet import CapturedPacket
from .apdu_stream import StreamExtraction
from .clustering import kmeans, silhouette_score
from .compliance import analyze_compliance
from .flows import FlowAnalysis
from .physical import extract_series, type_id_distribution
from .sessions import extract_sessions, feature_matrix
from .sources import PacketSource, as_capture
from .topology_diff import ObservedTopology, diff_topologies


class Verdict(enum.Enum):
    SUPPORTED = "supported"
    MIXED = "mixed"
    REJECTED = "rejected"


@dataclass(frozen=True)
class HypothesisResult:
    """Evaluation of one hypothesis."""

    hypothesis: str
    statement: str
    verdict: Verdict
    evidence: str
    metric: float

    def __str__(self) -> str:
        return (f"{self.hypothesis} [{self.verdict.value}] "
                f"{self.statement}\n    {self.evidence}")


def evaluate_h1_stability(before: StreamExtraction,
                          after: StreamExtraction) -> HypothesisResult:
    """H1: the network is stable across years (paper: mixed)."""
    diff = diff_topologies(ObservedTopology.from_extraction(before),
                           ObservedTopology.from_extraction(after))
    stability = diff.outstation_stability
    servers_stable = (diff.before.servers == diff.after.servers)
    if stability > 0.75 and servers_stable:
        verdict = Verdict.SUPPORTED
    elif stability > 0.10 and servers_stable:
        verdict = Verdict.MIXED
    else:
        verdict = Verdict.REJECTED
    return HypothesisResult(
        hypothesis="H1",
        statement="SCADA networks are stable and predictable",
        verdict=verdict,
        evidence=(f"{len(diff.added_outstations)} outstations added, "
                  f"{len(diff.removed_outstations)} removed, "
                  f"{100 * stability:.0f}% fully stable; server side "
                  f"{'unchanged' if servers_stable else 'changed'}"),
        metric=stability)


def evaluate_h2_compliance(source: PacketSource) -> HypothesisResult:
    """H2: endpoints speak standard IEC 104 (paper: rejected)."""
    capture = as_capture(source)
    report = analyze_compliance(capture)
    offenders = report.fully_malformed_hosts()
    verdict = Verdict.SUPPORTED if not offenders else Verdict.REJECTED
    return HypothesisResult(
        hypothesis="H2",
        statement="IEC 104 endpoints emit standard-conformant frames",
        verdict=verdict,
        evidence=(f"{len(offenders)} host(s) 100% malformed under a "
                  f"standard parser: {', '.join(offenders) or 'none'}"),
        metric=float(len(offenders)))


def evaluate_h3_flows(source: PacketSource) -> HypothesisResult:
    """H3: TCP flows are long-lived (paper: rejected)."""
    capture = as_capture(source)
    summary = FlowAnalysis.from_packets("capture", capture).summary()
    short = summary.short_fraction
    verdict = Verdict.SUPPORTED if short < 0.3 else (
        Verdict.MIXED if short < 0.5 else Verdict.REJECTED)
    return HypothesisResult(
        hypothesis="H3",
        statement="SCADA TCP flows are long-lived",
        verdict=verdict,
        evidence=(f"{100 * short:.1f}% of {summary.total} flows are "
                  "short-lived "
                  f"({100 * summary.sub_second_fraction_of_short:.0f}"
                  "% of those sub-second)"),
        metric=short)


def evaluate_h4_clusters(extraction: StreamExtraction,
                         k: int = 5) -> HypothesisResult:
    """H4: connections form clear behavioural clusters (paper: yes)."""
    sessions = extract_sessions(extraction)
    if len(sessions) < k + 1:
        return HypothesisResult(
            hypothesis="H4", statement="behaviours form clear clusters",
            verdict=Verdict.MIXED,
            evidence="too few sessions to cluster", metric=0.0)
    matrix = feature_matrix(sessions)
    result = kmeans(matrix, k, seed=104)
    score = silhouette_score(matrix, result.labels)
    verdict = Verdict.SUPPORTED if score > 0.5 else (
        Verdict.MIXED if score > 0.25 else Verdict.REJECTED)
    return HypothesisResult(
        hypothesis="H4",
        statement="connection behaviours form clear clusters",
        verdict=verdict,
        evidence=(f"K={k} silhouette {score:.2f} over "
                  f"{len(sessions)} sessions"),
        metric=score)


def evaluate_h5_physical(extraction: StreamExtraction
                         ) -> HypothesisResult:
    """H5: DPI reveals the physical system (paper: yes)."""
    series = [s for s in extract_series(extraction).values()
              if len(s) >= 3]
    symbols = {s.inferred_symbol() for s in series}
    interesting = symbols & {"Freq", "U", "P", "Q", "AGC-SP", "Status"}
    distribution = type_id_distribution(extraction)
    verdict = (Verdict.SUPPORTED if len(interesting) >= 4
               else Verdict.MIXED if interesting else Verdict.REJECTED)
    return HypothesisResult(
        hypothesis="H5",
        statement="payload DPI reveals the physical system",
        verdict=verdict,
        evidence=(f"{len(series)} point series extracted, physical "
                  f"symbols identified: {sorted(interesting)}; "
                  f"top-2 typeIDs carry "
                  f"{distribution.top_two_share():.0f}% of ASDUs"),
        metric=float(len(interesting)))


def evaluate_all(y1_source: PacketSource,
                 y1_extraction: StreamExtraction,
                 y2_extraction: StreamExtraction
                 ) -> list[HypothesisResult]:
    """Evaluate H1-H5 the way the paper does across its datasets.

    Capture-first: ``y1_source`` is the year-1 capture object (or
    reader / packet iterable).
    """
    y1_capture = as_capture(y1_source)
    return [
        evaluate_h1_stability(y1_extraction, y2_extraction),
        evaluate_h2_compliance(y1_capture),
        evaluate_h3_flows(y1_capture),
        evaluate_h4_clusters(y1_extraction),
        evaluate_h5_physical(y1_extraction),
    ]
