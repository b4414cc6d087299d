"""Section 5: the paper's five hypotheses, evaluated end to end.

Paper verdicts: H1 mixed ("the answer is not clear"), H2 rejected
(legacy field widths), H3 rejected (sub-second flows dominate), H4
supported (clear clusters), H5 supported (DPI reveals physics).
"""

from _common import record, run_once

from repro.analysis import Verdict, evaluate_all, render_table


def test_hypotheses(benchmark, y1_capture, y1_extraction,
                    y2_extraction):
    def evaluate():
        return evaluate_all(y1_capture, y1_extraction, y2_extraction)

    results = run_once(benchmark, evaluate)

    rows = [(result.hypothesis, result.statement,
             result.verdict.value, result.evidence)
            for result in results]
    record("hypotheses", render_table(
        ["H", "Statement", "Verdict", "Evidence"], rows,
        title="Section 5 hypotheses — paper: mixed / rejected / "
              "rejected / supported / supported"))

    verdicts = {result.hypothesis: result.verdict
                for result in results}
    assert verdicts["H1"] is Verdict.MIXED
    assert verdicts["H2"] is Verdict.REJECTED
    assert verdicts["H3"] is Verdict.REJECTED
    assert verdicts["H4"] is Verdict.SUPPORTED
    assert verdicts["H5"] is Verdict.SUPPORTED
