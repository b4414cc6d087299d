"""Fig. 9: outstations rejecting backup connections with RST/FIN.

Paper: a subset of outstations answers the backup server's TESTFR act
with a TCP reset; C2-O30 does so at a 430 s interval, an order of
magnitude above the others' ~tens of seconds.
"""

from _common import record, run_once

from repro.analysis import FlowAnalysis, render_table
from repro.datasets import Y1_RESET_CONNECTIONS


def test_fig9_reset_backup(benchmark, y1_capture):
    def analyze():
        analysis = FlowAnalysis.from_packets("Y1", y1_capture)
        return analysis.rejecting_pairs()

    pairs = run_once(benchmark, analyze)

    rows = [(pair.server, pair.outstation, pair.attempts,
             pair.rst_count, pair.fin_count,
             f"{pair.median_interval:.1f}s")
            for pair in pairs]
    record("fig9_reset_backup", render_table(
        ["Server", "Outstation", "Attempts", "RST", "FIN",
         "Median interval"], rows,
        title="Fig. 9 — backup-connection rejection (paper: 10 pairs, "
              "C2-O30 at 430 s)"))

    observed = {(pair.server, pair.outstation) for pair in pairs}
    allowed = {tuple(connection)
               for connection in Y1_RESET_CONNECTIONS}
    # Every detected pair is on the paper's list...
    assert observed <= allowed
    # ...and the fast RST/FIN rejectors are all present.
    expected = {("C1", "O5"), ("C1", "O6"), ("C1", "O7"), ("C1", "O8"),
                ("C1", "O9"), ("C1", "O35"), ("C2", "O24")}
    assert expected <= observed
    # O24 rejects with FIN, the rest with RST (paper: "FIN or RST").
    by_pair = {(p.server, p.outstation): p for p in pairs}
    assert by_pair[("C2", "O24")].fin_count > 0
    assert by_pair[("C1", "O5")].rst_count > 0
