"""Table 3: short-lived vs long-lived TCP flow counts, both years.

Paper: Y1 74.4% short-lived (99.8% of them sub-second), Y2 93.8%
short-lived. The shape to hold: short-lived flows dominate both years,
almost all of them sub-second, and the long-lived share collapses from
Y1 to Y2.
"""

from _common import record, run_once

from repro.analysis import FlowAnalysis, render_table


def test_table3_flow_counts(benchmark, y1_capture, y2_capture):
    def analyze():
        summaries = {}
        for label, capture in (("Y1", y1_capture), ("Y2", y2_capture)):
            analysis = FlowAnalysis.from_packets(label, capture)
            summaries[label] = analysis.summary()
        return summaries

    summaries = run_once(benchmark, analyze)

    y1_rows = dict(summaries["Y1"].rows())
    rows = [(label, y1_rows[label], dict(summaries["Y2"].rows())[label])
            for label in y1_rows]
    record("table3_flow_counts", render_table(
        ["Flow class", "Y1", "Y2"], rows,
        title=f"Table 3 — TCP flows (paper: Y1 74.4%/99.8% sub-second, "
              f"Y2 93.8% short-lived)"))

    y1, y2 = summaries["Y1"], summaries["Y2"]
    assert y1.short_fraction > 0.5 and y2.short_fraction > 0.5
    assert y1.sub_second_fraction_of_short > 0.9
    assert y2.sub_second_fraction_of_short > 0.8
    # Long-lived count collapses between years (paper: 10898 -> 560).
    assert y2.long_lived < 0.5 * y1.long_lived
    # Y2 is more short-dominated than Y1 (paper: 74.4% -> 93.8%). At
    # small time scales the fixed per-window connection setup washes
    # this out, so allow slack; run with REPRO_BENCH_SCALE=0.1 or more
    # to see the paper's gap open up.
    assert y2.short_fraction > y1.short_fraction - 0.05
