"""Regression tests for the staticcheck linter.

Each rule gets at least one positive fixture (the rule fires) and one
negative fixture (clean code passes).  The reporters are checked for
format stability, the constants-consistency rule against deliberately
broken fixture tables, and the CLI for its exit-code contract
(``repro lint --self`` must exit 0 on this tree).
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.staticcheck import (Finding, Severity,
                                        SuppressionIndex, build_rules,
                                        format_json, format_sarif,
                                        format_text, lint_paths,
                                        registered_rule_ids)
from repro.devtools.staticcheck.engine import module_path_for
from repro.devtools.staticcheck.rules.consistency import (
    ConstantsConsistencyRule)

ALL_RULES = ("bare-except", "constants-consistency", "determinism",
             "float-timestamp-eq", "mutable-default", "silent-swallow",
             "struct-format")


def lint_snippet(tmp_path: Path, code: str, *, rule: str,
                 package: str = "simnet") -> list[Finding]:
    """Lint ``code`` as a file inside a synthetic ``package``."""
    pkg = tmp_path / package
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "snippet.py").write_text(textwrap.dedent(code))
    result = lint_paths([pkg], select=[rule])
    return result.findings


def test_registry_lists_expected_rules():
    assert set(ALL_RULES) <= set(registered_rule_ids())


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        build_rules(["no-such-rule"])


# -- determinism -----------------------------------------------------

DETERMINISM_BAD = """
    import random
    import time


    def sample():
        return time.time() + random.random()
"""

DETERMINISM_GOOD = """
    import random


    def sample(rng: random.Random, now: float):
        generator = random.Random(7)
        return now + rng.random() + generator.gauss(0.0, 1.0)
"""


def test_determinism_flags_wall_clock_and_ambient_rng(tmp_path):
    findings = lint_snippet(tmp_path, DETERMINISM_BAD,
                            rule="determinism")
    messages = [finding.message for finding in findings]
    assert len(findings) == 2
    assert any("wall clock" in message for message in messages)
    assert any("module-level RNG" in message for message in messages)


def test_determinism_accepts_injected_rng(tmp_path):
    assert lint_snippet(tmp_path, DETERMINISM_GOOD,
                        rule="determinism") == []


def test_determinism_ignores_files_outside_scoped_packages(tmp_path):
    assert lint_snippet(tmp_path, DETERMINISM_BAD, rule="determinism",
                        package="analysis") == []


def test_determinism_flags_from_random_import(tmp_path):
    findings = lint_snippet(
        tmp_path, "from random import randint\n", rule="determinism")
    assert len(findings) == 1
    assert "from random import randint" in findings[0].message


# -- struct-format ---------------------------------------------------

def test_struct_native_order_flagged(tmp_path):
    findings = lint_snippet(
        tmp_path, "import struct\nstruct.pack('HH', 1, 2)\n",
        rule="struct-format")
    assert len(findings) == 1
    assert "native byte order" in findings[0].message


def test_struct_invalid_format_flagged(tmp_path):
    findings = lint_snippet(
        tmp_path, "import struct\nstruct.calcsize('<Z')\n",
        rule="struct-format")
    assert len(findings) == 1
    assert "invalid struct format" in findings[0].message


def test_struct_pack_arity_mismatch_flagged(tmp_path):
    findings = lint_snippet(
        tmp_path, "import struct\nstruct.pack('<HH', 1)\n",
        rule="struct-format")
    assert [f.message for f in findings] \
        == ["struct.pack('<HH', ...) takes 2 value(s) but 1 supplied"]


def test_struct_unpack_target_arity_flagged(tmp_path):
    code = """
        import struct
        a, b = struct.unpack('<HHH', data)
    """
    findings = lint_snippet(tmp_path, code, rule="struct-format")
    assert len(findings) == 1
    assert "3 value(s) into 2 target(s)" in findings[0].message


def test_struct_width_annotation_enforced(tmp_path):
    code = """
        import struct
        _F = struct.Struct('<f')  # staticcheck: width=7
    """
    findings = lint_snippet(tmp_path, code, rule="struct-format")
    assert len(findings) == 1
    assert "annotated width=7" in findings[0].message
    assert "computes to 4" in findings[0].message


def test_struct_clean_wire_formats_pass(tmp_path):
    code = """
        import struct
        _H = struct.Struct('!HHIIBBHHH')  # staticcheck: width=20
        payload = struct.pack('<HH', 1, 2)
        a, b = struct.unpack('<HH', payload)
        values = struct.unpack(endianness + 'IIII', raw)
    """
    assert lint_snippet(tmp_path, code, rule="struct-format") == []


# -- hygiene: bare-except / silent-swallow ---------------------------

def test_bare_except_flagged(tmp_path):
    code = """
        try:
            decode()
        except:
            count += 1
    """
    findings = lint_snippet(tmp_path, code, rule="bare-except")
    assert len(findings) == 1


def test_narrow_except_passes(tmp_path):
    code = """
        try:
            decode()
        except ValueError:
            count += 1
    """
    assert lint_snippet(tmp_path, code, rule="bare-except") == []


def test_silent_swallow_flagged(tmp_path):
    code = """
        try:
            decode()
        except Exception:
            pass
    """
    findings = lint_snippet(tmp_path, code, rule="silent-swallow")
    assert len(findings) == 1


def test_broad_except_with_handling_passes(tmp_path):
    code = """
        try:
            decode()
        except Exception as exc:
            errors.append(exc)
    """
    assert lint_snippet(tmp_path, code, rule="silent-swallow") == []


# -- hygiene: mutable-default ----------------------------------------

def test_mutable_default_flagged(tmp_path):
    code = """
        def collect(into=[], lookup={}, *, seen=set()):
            return into
    """
    findings = lint_snippet(tmp_path, code, rule="mutable-default")
    assert len(findings) == 3


def test_none_default_passes(tmp_path):
    code = """
        def collect(into=None, count=0, name="x", key=()):
            return into
    """
    assert lint_snippet(tmp_path, code, rule="mutable-default") == []


# -- hygiene: float-timestamp-eq -------------------------------------

def test_float_timestamp_eq_flagged(tmp_path):
    code = """
        def due(event, now):
            return event.timestamp == now
    """
    findings = lint_snippet(tmp_path, code, rule="float-timestamp-eq")
    assert len(findings) == 1
    assert findings[0].severity is Severity.ERROR


def test_tick_names_exempt_from_timestamp_eq(tmp_path):
    code = """
        def due(event, now_us):
            return event.time_us == now_us or event.start_us != now_us
    """
    findings = lint_snippet(tmp_path, code, rule="float-timestamp-eq")
    assert findings == []


def test_timestamp_tolerance_compare_passes(tmp_path):
    code = """
        def due(event, now, eps=1e-9):
            return abs(event.timestamp - now) < eps \\
                and event.timestamp is not None
    """
    assert lint_snippet(tmp_path, code,
                        rule="float-timestamp-eq") == []


def test_non_time_names_pass(tmp_path):
    code = """
        def check(count, total):
            return count == total
    """
    assert lint_snippet(tmp_path, code,
                        rule="float-timestamp-eq") == []


# -- constants-consistency -------------------------------------------

BROKEN_CONSTANTS = """
    import enum


    class TypeID(enum.IntEnum):
        M_SP_NA_1 = 1
        M_DP_NA_1 = 3
        M_ME_TF_1 = 36

    TYPE_ID_DESCRIPTIONS = {TypeID.M_SP_NA_1: "Single-point"}
    OBSERVED_TYPE_IDS = (TypeID.M_ME_TF_1,)
    TYPE_ID_SYMBOLS = {TypeID.M_DP_NA_1: ("Bogus",)}
"""

BROKEN_CODECS = """
    from staticcheck_fixture_constants import TypeID


    class _Codec:
        def encode(self, element):
            return b""

        def decode(self, data, offset):
            return None, 0

    ELEMENT_CODECS = {TypeID.M_SP_NA_1: _Codec(), 99: _Codec()}
"""


@pytest.fixture
def broken_tables(tmp_path, monkeypatch):
    (tmp_path / "staticcheck_fixture_constants.py").write_text(
        textwrap.dedent(BROKEN_CONSTANTS))
    (tmp_path / "staticcheck_fixture_codecs.py").write_text(
        textwrap.dedent(BROKEN_CODECS))
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in ("staticcheck_fixture_constants",
                 "staticcheck_fixture_codecs"):
        sys.modules.pop(name, None)
    yield ConstantsConsistencyRule(
        constants_module="staticcheck_fixture_constants",
        codecs_module="staticcheck_fixture_codecs")
    for name in ("staticcheck_fixture_constants",
                 "staticcheck_fixture_codecs"):
        sys.modules.pop(name, None)


def test_consistency_rule_flags_broken_fixture(broken_tables):
    messages = [finding.message
                for finding in broken_tables.check_project([])]
    assert any("has no ELEMENT_CODECS dispatch entry" in message
               for message in messages)
    assert any("orphan dispatch entry" in message
               for message in messages)
    assert any("has no Table 5 description" in message
               for message in messages)
    assert any("has no Table 8 physical-symbol row" in message
               for message in messages)
    assert any("orphan symbol row" in message for message in messages)
    assert any("unknown physical symbol 'Bogus'" in message
               for message in messages)


def test_consistency_rule_passes_on_real_tables():
    rule = ConstantsConsistencyRule()
    assert list(rule.check_project([])) == []


def test_consistency_rule_reports_unimportable_module():
    rule = ConstantsConsistencyRule(
        constants_module="repro.no_such_module")
    findings = list(rule.check_project([]))
    assert len(findings) == 1
    assert "cannot import" in findings[0].message


# -- suppressions ----------------------------------------------------

def test_line_suppression_by_rule_id(tmp_path):
    code = """
        import random
        import time

        now = time.time()  # staticcheck: ignore[determinism]
        jitter = random.random()
    """
    findings = lint_snippet(tmp_path, code, rule="determinism")
    assert len(findings) == 1
    assert "random.random" in findings[0].message


def test_line_suppression_without_ids_covers_all_rules(tmp_path):
    code = """
        import time

        now = time.time()  # staticcheck: ignore
    """
    assert lint_snippet(tmp_path, code, rule="determinism") == []


def test_file_wide_suppression(tmp_path):
    code = """
        # staticcheck: ignore-file[determinism]
        import time

        now = time.time()
    """
    assert lint_snippet(tmp_path, code, rule="determinism") == []


def test_suppressions_are_counted(tmp_path):
    pkg = tmp_path / "simnet"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\n"
        "now = time.time()  # staticcheck: ignore[determinism]\n")
    result = lint_paths([pkg], select=["determinism"])
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_index_parses_id_lists():
    index = SuppressionIndex.scan(
        "x = 1  # staticcheck: ignore[a, b]\n")
    assert index.by_line[1] == frozenset({"a", "b"})


# -- engine ----------------------------------------------------------

def test_syntax_error_becomes_parse_error_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    result = lint_paths([bad])
    assert [finding.rule_id for finding in result.findings] \
        == ["parse-error"]
    assert result.exit_code == 1


def test_module_path_for_maps_src_layout():
    path = Path(__file__).resolve().parents[2] \
        / "src" / "repro" / "simnet" / "clock.py"
    assert module_path_for(path) == "repro.simnet.clock"


def test_findings_sorted_by_location(tmp_path):
    code = """
        import time

        def f(xs=[]):
            return time.time()
    """
    pkg = tmp_path / "simnet"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(code))
    result = lint_paths([pkg],
                        select=["determinism", "mutable-default"])
    lines = [finding.line for finding in result.findings]
    assert lines == sorted(lines)


# -- reporters -------------------------------------------------------

@pytest.fixture
def sample_result(tmp_path):
    pkg = tmp_path / "simnet"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\nnow = time.time()\n")
    return lint_paths([pkg], select=["determinism"],
                      root=tmp_path)


def test_text_reporter_format(sample_result):
    report = format_text(sample_result)
    assert "simnet/mod.py:2:7: error [determinism]" in report
    assert "1 finding(s) (1 error, 0 warning, 0 note)" in report


def test_json_reporter_schema(sample_result):
    document = json.loads(format_json(sample_result))
    assert document["tool"]["name"] == "repro-staticcheck"
    assert document["files_checked"] == 2
    assert document["rules"] == ["determinism"]
    (finding,) = document["findings"]
    assert finding["path"] == "simnet/mod.py"
    assert finding["line"] == 2
    assert finding["rule"] == "determinism"
    assert finding["severity"] == "error"
    assert "wall clock" in finding["message"]


def test_sarif_reporter_schema(sample_result):
    document = json.loads(format_sarif(sample_result))
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-staticcheck"
    assert {rule["id"] for rule in driver["rules"]} \
        >= {"determinism"}
    (result,) = run["results"]
    assert result["ruleId"] == "determinism"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "simnet/mod.py"
    assert location["region"]["startLine"] == 2


def test_sarif_on_clean_run_has_no_results(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    document = json.loads(format_sarif(lint_paths([clean])))
    assert document["runs"][0]["results"] == []


# -- CLI -------------------------------------------------------------

def test_cli_self_lint_is_clean():
    out = io.StringIO()
    assert repro_main(["lint", "--self"], out=out) == 0
    assert "0 finding(s)" in out.getvalue()


def test_cli_exits_nonzero_on_findings(tmp_path):
    pkg = tmp_path / "grid"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\nnow = time.time()\n")
    out = io.StringIO()
    assert repro_main(["lint", str(pkg)], out=out) == 1
    assert "[determinism]" in out.getvalue()


def test_cli_json_format_and_output_file(tmp_path):
    target = tmp_path / "report.json"
    out = io.StringIO()
    code = repro_main(["lint", "--self", "--format", "json",
                       "--output", str(target)], out=out)
    assert code == 0
    document = json.loads(target.read_text())
    assert document["findings"] == []
    assert "0 finding(s)" in out.getvalue()


def test_cli_list_rules():
    out = io.StringIO()
    assert repro_main(["lint", "--list-rules"], out=out) == 0
    for rule_id in ALL_RULES:
        assert rule_id in out.getvalue()


def test_cli_unknown_select_is_usage_error():
    assert repro_main(["lint", "--self",
                       "--select", "no-such-rule"]) == 2


def test_cli_seeded_violation_per_rule_fails(tmp_path):
    """Acceptance: a fixture violating each rule must exit non-zero."""
    fixtures = {
        "determinism": "import time\nnow = time.time()\n",
        "struct-format": "import struct\nstruct.pack('HH', 1, 2)\n",
        "bare-except":
            "try:\n    x = 1\nexcept:\n    x = 2\n",
        "silent-swallow":
            "try:\n    x = 1\nexcept Exception:\n    pass\n",
        "mutable-default": "def f(xs=[]):\n    return xs\n",
        "float-timestamp-eq":
            "def f(timestamp, now):\n"
            "    return timestamp == now\n",
    }
    for rule_id, code in fixtures.items():
        pkg = tmp_path / rule_id.replace("-", "_") / "simnet"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(code)
        exit_code = repro_main(
            ["lint", str(pkg), "--select", rule_id])
        assert exit_code == 1, rule_id


class TestResultCache:
    """The mtime-keyed per-file findings cache (cache.py)."""

    @staticmethod
    def _write_pkg(tmp_path: Path, body: str) -> Path:
        pkg = tmp_path / "simnet"
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(textwrap.dedent(body))
        return pkg

    @staticmethod
    def _cache(tmp_path: Path):
        from repro.devtools.staticcheck.cache import ResultCache
        return ResultCache(path=tmp_path / "store" / "cache.json")

    def test_hit_reproduces_findings(self, tmp_path):
        pkg = self._write_pkg(tmp_path, """
            import time
            def now():
                return time.time()
        """)
        cache = self._cache(tmp_path)
        fresh = lint_paths([pkg], select=["determinism"], cache=cache)
        assert fresh.findings
        cache.save()
        rerun = lint_paths([pkg], select=["determinism"],
                           cache=self._cache(tmp_path))
        assert rerun.findings == fresh.findings
        assert rerun.files_checked == fresh.files_checked

    def test_edit_invalidates(self, tmp_path):
        import os
        pkg = self._write_pkg(tmp_path, """
            import time
            def now():
                return time.time()
        """)
        cache = self._cache(tmp_path)
        assert lint_paths([pkg], select=["determinism"],
                          cache=cache).findings
        target = pkg / "mod.py"
        target.write_text("def now():\n    return 0.0\n")
        os.utime(target, ns=(12345, 12345))  # force a new signature
        clean = lint_paths([pkg], select=["determinism"], cache=cache)
        assert clean.findings == []

    def test_rule_set_changes_signature(self, tmp_path):
        from repro.devtools.staticcheck.cache import rules_signature
        assert rules_signature(["determinism"]) \
            != rules_signature(["determinism", "bare-except"])
        assert rules_signature(["b", "a"]) == rules_signature(["a", "b"])

    def test_suppressions_cached(self, tmp_path):
        pkg = self._write_pkg(tmp_path, """
            import time
            def now():
                return time.time()  # staticcheck: ignore[determinism]
        """)
        cache = self._cache(tmp_path)
        first = lint_paths([pkg], select=["determinism"], cache=cache)
        assert (first.findings, first.suppressed) == ([], 1)
        second = lint_paths([pkg], select=["determinism"], cache=cache)
        assert (second.findings, second.suppressed) == ([], 1)

    def test_second_checkout_gets_its_own_crossfile_verdict(self,
                                                            tmp_path):
        """Two copies of one package share a cache, and the first is
        deleted before the second is linted: the second keeps its
        in-source suppression, and every cross-file finding cached
        for it names its own files."""
        files = {
            "clockapi.py": "def schedule(event, time_us):\n"
                           "    return (event, time_us)\n",
            "caller.py": "from .clockapi import schedule\n\n\n"
                         "def run(timestamp):\n"
                         "    return schedule('x', timestamp)"
                         "  # staticcheck: ignore[time-unit-flow]\n",
        }
        copies = []
        for name in ("first", "second"):
            pkg = tmp_path / name / "timing"
            pkg.mkdir(parents=True)
            (pkg / "__init__.py").write_text("")
            for rel, code in files.items():
                (pkg / rel).write_text(code)
            copies.append(pkg)
        first, second = copies

        def lint(pkg: Path):
            return lint_paths([pkg], select=["time-unit-flow"],
                              cache=self._cache(tmp_path))

        result = lint(first)
        assert (result.findings, result.suppressed) == ([], 1)
        shutil.rmtree(first.parent)
        result = lint(second)
        assert (result.findings, result.suppressed) == ([], 1)
        stored = json.loads(
            (tmp_path / "store" / "cache.json").read_text())["crossfile"]
        paths = [location["path"]
                 for entry in stored.values()
                 for finding in entry["findings"]
                 for location in (finding, *finding.get("related", ()))]
        assert paths
        assert all(Path(path).is_relative_to(second) for path in paths)

    def test_custom_rule_objects_bypass_cache(self, tmp_path):
        pkg = self._write_pkg(tmp_path, "x = 1\n")
        cache = self._cache(tmp_path)
        rules = build_rules(["determinism"])
        lint_paths([pkg], rules=rules, cache=cache)
        cache.save()
        assert not (tmp_path / "store" / "cache.json").exists()

    def test_cli_no_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        pkg = self._write_pkg(tmp_path, "x = 1\n")
        out = io.StringIO()
        assert repro_main(["lint", str(pkg)], out=out) == 0
        assert (tmp_path / "cc" / "staticcheck-cache.json").exists()
        (tmp_path / "cc" / "staticcheck-cache.json").unlink()
        out = io.StringIO()
        assert repro_main(["lint", "--no-cache", str(pkg)],
                          out=out) == 0
        assert not (tmp_path / "cc"
                    / "staticcheck-cache.json").exists()
