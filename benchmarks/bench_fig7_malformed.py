"""Fig. 7: correct vs malformed packets, with field-level explanation.

Paper: O37, O53, O58 and O28 show 100% invalid packets under a
standard parser; the tolerant parser attributes them to a 2-octet IOA
(O37) and a 1-octet COT (O53/O58/O28).
"""

from _common import record, run_once

from repro.analysis import analyze_compliance, field_diffs, render_table
from repro.datasets import NON_COMPLIANT


def test_fig7_malformed(benchmark, y1_capture, y2_capture):
    def analyze():
        reports = {}
        for label, capture in (("Y1", y1_capture), ("Y2", y2_capture)):
            reports[label] = analyze_compliance(capture)
        return reports

    reports = run_once(benchmark, analyze)

    rows = []
    flagged = {}
    for label, report in reports.items():
        for host in report.non_compliant_hosts():
            diffs = "; ".join(str(d) for d in
                              field_diffs(host.inferred_profile))
            rows.append((label, host.host, host.frames,
                         f"{100 * host.strict_malformed_fraction:.0f}%",
                         diffs))
            flagged.setdefault(host.host, set()).add(label)
    record("fig7_malformed", render_table(
        ["Year", "RTU", "I-frames", "standard-parser malformed",
         "field diff (Fig. 7)"], rows,
        title="Fig. 7 — non-compliant frames and their explanation"))

    # All four of the paper's legacy RTUs are caught in their years.
    assert flagged.get("O37") == {"Y1", "Y2"}
    assert flagged.get("O28") == {"Y1"}   # removed in Y2
    assert flagged.get("O53") == {"Y2"}   # added in Y2
    assert flagged.get("O58") == {"Y2"}
    assert set(flagged) == set(NON_COMPLIANT)
    # Every flagged host is 100% malformed for the strict baseline.
    for label, report in reports.items():
        for host in report.non_compliant_hosts():
            assert host.strict_malformed_fraction == 1.0
            # ... while the tolerant parser decodes every frame.
            assert host.tolerant_decoded == host.frames
