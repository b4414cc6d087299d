"""CLI tests: generate a pcap, analyze it back."""

import io
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    pcap = directory / "y1.pcap"
    out = io.StringIO()
    code = main(["generate", "--year", "1", "--scale", "0.005",
                 "--seed", "7", "--out", str(pcap)], out=out)
    assert code == 0
    return pcap, out.getvalue()


class TestGenerate:
    def test_writes_pcap_and_names(self, generated):
        pcap, output = generated
        assert pcap.exists() and pcap.stat().st_size > 1000
        names_path = pcap.with_suffix(".names.json")
        assert names_path.exists()
        names = json.loads(names_path.read_text())
        assert "C1" in names.values()
        assert "wrote" in output

    def test_pcap_is_readable(self, generated):
        from repro.netstack.pcap import read_pcap
        pcap, _ = generated
        records = read_pcap(pcap)
        assert len(records) > 100


class TestAnalyze:
    def run(self, generated, *reports):
        pcap, _ = generated
        out = io.StringIO()
        args = ["analyze", str(pcap),
                "--names", str(pcap.with_suffix(".names.json"))]
        if reports:
            args += ["--report", *reports]
        code = main(args, out=out)
        assert code == 0
        return out.getvalue()

    def test_default_reports(self, generated):
        text = self.run(generated)
        assert "TCP flows" in text
        assert "compliance" in text
        assert "typeIDs" in text

    def test_flows_report(self, generated):
        text = self.run(generated, "flows")
        assert "Short-lived flows" in text

    def test_compliance_report(self, generated):
        text = self.run(generated, "compliance")
        assert "legacy IEC 101" in text  # O37/O28 flagged

    def test_classify_report(self, generated):
        text = self.run(generated, "classify")
        assert "U-format only" in text

    def test_markov_report(self, generated):
        text = self.run(generated, "markov")
        assert "Nodes" in text

    def test_symbols_report(self, generated):
        text = self.run(generated, "symbols")
        assert "AGC-SP" in text

    def test_timing_report(self, generated):
        text = self.run(generated, "timing")
        assert "Session" in text

    def test_missing_pcap_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "nope.pcap")],
                 out=io.StringIO())

    def test_unknown_report_rejected(self, generated):
        pcap, _ = generated
        with pytest.raises(SystemExit):
            main(["analyze", str(pcap), "--report", "bogus"],
                 out=io.StringIO())


class TestFilter:
    def test_filter_narrows_analysis(self, generated):
        pcap, _ = generated
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--names", str(pcap.with_suffix(".names.json")),
                     "--filter", "host == O37",
                     "--report", "compliance"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "packets kept" in text
        assert "O37" in text
        # Only O37's frames remain: no other RTU shows in the table.
        assert "O28 " not in text

    def test_filter_that_matches_nothing(self, generated):
        pcap, _ = generated
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--filter", "tcp.dstport == 9999"], out=out)
        assert code == 1
        assert "no TCP/IPv4 packets" in out.getvalue()


class TestAttackCommand:
    def test_scan_mode(self, tmp_path):
        pcap = tmp_path / "attack.pcap"
        out = io.StringIO()
        code = main(["attack", "--mode", "scan", "--points", "4",
                     "--scan-range", "12", "--out", str(pcap)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "probes sent: 12" in text
        assert "IOAs discovered: 4" in text
        assert pcap.exists()

    def test_interrogation_mode(self, tmp_path):
        pcap = tmp_path / "attack.pcap"
        out = io.StringIO()
        code = main(["attack", "--mode", "interrogation",
                     "--points", "6", "--out", str(pcap)], out=out)
        assert code == 0
        assert "IOAs discovered: 6" in out.getvalue()

    def test_attack_capture_analyzable(self, tmp_path):
        pcap = tmp_path / "attack.pcap"
        main(["attack", "--mode", "scan", "--out", str(pcap)],
             out=io.StringIO())
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--names", str(pcap.with_suffix(".names.json")),
                     "--report", "typeids"], out=out)
        assert code == 0
        assert "I102" in out.getvalue()  # the read probes


class TestScenarioCommand:
    def test_list_names_every_family(self):
        out = io.StringIO()
        assert main(["scenario", "list"], out=out) == 0
        text = out.getvalue()
        for name in ("spoofed-interrogation", "rogue-master",
                     "value-injection", "command-flooding",
                     "switchover-abuse", "stale-data-masking"):
            assert name in text

    def test_emit_writes_capture_and_sidecars(self, tmp_path):
        pcap = tmp_path / "rogue.pcap"
        out = io.StringIO()
        code = main(["scenario", "emit", "rogue-master",
                     "--out", str(pcap), "--scale", "0.5"], out=out)
        assert code == 0
        assert pcap.exists()
        assert pcap.with_suffix(".names.json").exists()
        truth = json.loads(
            pcap.with_suffix(".truth.json").read_text())
        assert truth["scenario"] == "rogue-master"
        assert truth["attacker_endpoints"] == ["ATTACKER"]

    def test_emitted_capture_analyzable(self, tmp_path):
        pcap = tmp_path / "rogue.pcap"
        main(["scenario", "emit", "rogue-master", "--out", str(pcap),
              "--scale", "0.5"], out=io.StringIO())
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--names", str(pcap.with_suffix(".names.json")),
                     "--report", "typeids"], out=out)
        assert code == 0
        assert "I102" in out.getvalue()  # the rogue read probes


class TestBenchDetectCommand:
    def test_record_and_gate(self, tmp_path):
        path = tmp_path / "BENCH_detect.json"
        out = io.StringIO()
        code = main(["bench", "detect", "--quick",
                     "--out", str(path)], out=out)
        assert code == 0
        document = json.loads(path.read_text())
        assert len(document["modes"]["quick"]["results"]) >= 6
        out = io.StringIO()
        code = main(["bench", "detect", "--quick", "--check",
                     "--out", str(path)], out=out)
        assert code == 0
        assert "detection gate ok" in out.getvalue()


class TestHypothesesCommand:
    def test_runs_on_two_captures(self, generated, tmp_path):
        pcap_y1, _ = generated
        pcap_y2 = tmp_path / "y2.pcap"
        main(["generate", "--year", "2", "--scale", "0.005",
              "--seed", "7", "--out", str(pcap_y2)], out=io.StringIO())
        out = io.StringIO()
        code = main(["hypotheses", str(pcap_y1), str(pcap_y2),
                     "--names", str(pcap_y1.with_suffix(
                         ".names.json"))], out=out)
        assert code == 0
        text = out.getvalue()
        for hypothesis in ("H1", "H2", "H3", "H4", "H5"):
            assert hypothesis in text
        assert "rejected" in text  # H2/H3 at least

    def test_each_capture_named_by_its_own_sidecar(self, generated,
                                                   tmp_path,
                                                   monkeypatch):
        """Without --names, each year reads its own sidecar: the two
        years number their outstations differently, so one merged map
        would give Y1 hosts their Y2 names."""
        import repro.analysis
        pcap_y1, _ = generated
        pcap_y2 = tmp_path / "y2.pcap"
        main(["generate", "--year", "2", "--scale", "0.005",
              "--seed", "7", "--out", str(pcap_y2)], out=io.StringIO())
        sidecars = {year: json.loads(
                        pcap.with_suffix(".names.json").read_text())
                    for year, pcap in (("y1", pcap_y1),
                                       ("y2", pcap_y2))}
        assert any(sidecars["y2"].get(address) not in (None, name)
                   for address, name in sidecars["y1"].items())
        seen = {}

        def record(y1_capture, y1, y2):
            seen.update(y1=y1, y2=y2)
            return []

        monkeypatch.setattr(repro.analysis, "evaluate_all", record)
        assert main(["hypotheses", str(pcap_y1), str(pcap_y2)],
                    out=io.StringIO()) == 0
        hosts = {year: {host for event in seen[year].events
                        for host in event.session}
                 for year in ("y1", "y2")}
        for year in ("y1", "y2"):
            assert hosts[year] <= set(sidecars[year].values())
        assert "O2" in hosts["y1"]  # Y1 only (paper Table 2)
        assert "O2" not in hosts["y2"]


class TestJsonOutput:
    def test_json_document(self, generated):
        pcap, _ = generated
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--names", str(pcap.with_suffix(".names.json")),
                     "--report", "flows", "compliance", "typeids",
                     "classify",
                     "--json"], out=out)
        assert code == 0
        document = json.loads(out.getvalue())
        assert document["packets"] > 0
        assert document["flows"]["short_lived"] >= 0
        assert "O37" in document["compliance"]
        assert document["typeids"]["I36"]["count"] > 0
        assert "3" in document["outstation_types"]

    def test_json_timing_and_markov(self, generated):
        pcap, _ = generated
        out = io.StringIO()
        code = main(["analyze", str(pcap),
                     "--names", str(pcap.with_suffix(".names.json")),
                     "--report", "markov", "timing", "--json"], out=out)
        assert code == 0
        document = json.loads(out.getvalue())
        assert any(value["nodes"] >= 1
                   for value in document["markov"].values())
        assert document["timing"]

    def test_names_default_to_the_sidecar(self, generated):
        """Without --names, analyze reads <capture>.names.json, as
        monitor and serve do, so the per-link profiles are keyed by
        the same host names either way."""
        pcap, _ = generated
        reports = ["--report", "compliance", "typeids", "markov",
                   "timing", "--json"]
        documents = []
        for names in ([], ["--names",
                           str(pcap.with_suffix(".names.json"))]):
            out = io.StringIO()
            assert main(["analyze", str(pcap), *names, *reports],
                        out=out) == 0
            documents.append(json.loads(out.getvalue()))
        assert documents[0] == documents[1]
        assert documents[0]["markov"]
        assert not any(":" in connection
                       for connection in documents[0]["markov"])
