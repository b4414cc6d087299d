"""Fig. 8: log-scale histogram of Y1 short-lived flow durations.

Paper shape: a large mass of very short flows (tens of milliseconds),
with a thin tail of longer short-lived flows.
"""

from _common import record, run_once

from repro.analysis import FlowAnalysis, render_histogram


def test_fig8_flow_durations(benchmark, y1_capture):
    def analyze():
        analysis = FlowAnalysis.from_packets("Y1", y1_capture)
        return analysis, analysis.duration_histogram(bins_per_decade=3)

    analysis, bins = run_once(benchmark, analyze)

    record("fig8_flow_durations", render_histogram(
        bins, title="Fig. 8 — Y1 short-lived flow durations "
                    "(log-scale bins)"))

    durations = analysis.short_lived_durations()
    assert durations
    # The bulk of short-lived flows lasts well under a second...
    sub_second = sum(1 for d in durations if d < 1.0)
    assert sub_second / len(durations) > 0.9
    # ...with most mass below 100 ms (handshake + TESTFR + RST).
    sub_100ms = sum(1 for d in durations if d < 0.1)
    assert sub_100ms / len(durations) > 0.5
    assert sum(count for _, _, count in bins) == len(durations)
