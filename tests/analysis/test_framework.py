"""Framework-level tests: suppressions, report rendering, driver, CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import RULES, analyze_project
from repro.analysis.cli import main as cli_main
from repro.analysis.driver import role_of, run
from repro.analysis.report import render_human, render_json, rule_catalog

VIOLATION = """
from repro.db.types import MISSING

def is_empty(value):
    return value == MISSING
"""


def analyze(sources: dict[str, str], **kwargs):
    return analyze_project(
        {path: textwrap.dedent(code) for path, code in sources.items()}, **kwargs
    )


class TestRegistry:
    def test_at_least_eight_rules_registered(self):
        import repro.analysis.rules  # noqa: F401

        assert len(RULES) >= 8

    def test_catalog_entries_are_complete(self):
        for entry in rule_catalog():
            assert entry["id"]
            assert entry["summary"]
            assert entry["rationale"]
            assert entry["roles"]


class TestSuppressions:
    def test_inline_named_suppression(self):
        report = analyze(
            {
                "src/repro/db/x.py": """
                from repro.db.types import MISSING

                def is_empty(value):
                    # The sentinel's own unit test needs the == form.
                    return value == MISSING  # reprolint: disable=missing-identity
                """
            },
            select=["missing-identity"],
        )
        assert report.unsuppressed == []
        assert len(report.suppressed) == 1
        assert report.ok

    def test_inline_blanket_suppression(self):
        report = analyze(
            {
                "src/repro/db/x.py": """
                from repro.db.types import MISSING

                def is_empty(value):
                    return value == MISSING  # reprolint: disable
                """
            },
            select=["missing-identity"],
        )
        assert report.unsuppressed == []

    def test_suppression_for_other_rule_does_not_apply(self):
        report = analyze(
            {
                "src/repro/db/x.py": """
                from repro.db.types import MISSING

                def is_empty(value):
                    return value == MISSING  # reprolint: disable=seeded-rng
                """
            },
            select=["missing-identity"],
        )
        assert len(report.unsuppressed) == 1

    def test_file_level_suppression(self):
        report = analyze(
            {
                "src/repro/db/x.py": """
                # reprolint: disable-file=missing-identity
                from repro.db.types import MISSING

                def is_empty(value):
                    return value == MISSING

                def also_empty(value):
                    return MISSING == value
                """
            },
            select=["missing-identity"],
        )
        assert report.unsuppressed == []
        assert len(report.suppressed) == 2


class TestDriver:
    def test_role_inference(self):
        assert role_of("src/repro/db/wal.py") == "src"
        assert role_of("tests/db/test_wal.py") == "tests"
        assert role_of("benchmarks/test_bench_inserts.py") == "benchmarks"

    def test_parse_error_is_a_finding(self):
        report = analyze({"src/repro/broken.py": "def broken(:\n"})
        assert any(finding.rule == "parse-error" for finding in report.findings)
        assert not report.ok

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            analyze({"src/repro/x.py": "x = 1\n"}, select=["no-such-rule"])

    def test_findings_sorted_by_location(self):
        report = analyze(
            {
                "src/repro/b.py": VIOLATION,
                "src/repro/a.py": VIOLATION,
            },
            select=["missing-identity"],
        )
        paths = [finding.path for finding in report.unsuppressed]
        assert paths == sorted(paths)


class TestRendering:
    def test_human_output_mentions_location_and_rule(self):
        report = analyze({"src/repro/a.py": VIOLATION}, select=["missing-identity"])
        text = render_human(report)
        assert "src/repro/a.py:" in text
        assert "missing-identity" in text
        assert "1 finding(s)" in text

    def test_json_output_is_self_describing(self):
        report = analyze({"src/repro/a.py": VIOLATION}, select=["missing-identity"])
        payload = json.loads(render_json(report))
        assert payload["tool"] == "reprolint"
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["ok"] is False
        assert {entry["id"] for entry in payload["rules"]} >= {
            "lock-order",
            "lock-blocking",
            "charge-once",
            "fill-provenance",
            "missing-identity",
            "seeded-rng",
            "wal-coverage",
            "thread-chokepoint",
        }
        finding = payload["findings"][0]
        assert finding["rule"] == "missing-identity"
        assert finding["suppressed"] is False


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "ok.py").write_text("def fine():\n    return 1\n")
        assert cli_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "bad.py").write_text(textwrap.dedent(VIOLATION))
        assert cli_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "missing-identity" in out

    def test_json_report_written_to_file(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "bad.py").write_text(textwrap.dedent(VIOLATION))
        output = tmp_path / "report.json"
        code = cli_main([str(target), "--format", "json", "--output", str(output)])
        assert code == 1
        payload = json.loads(output.read_text())
        assert payload["summary"]["findings"] == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert cli_main([str(tmp_path), "--select", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-order" in out
        assert "wal-coverage" in out

    def test_run_over_real_src_is_clean(self, monkeypatch):
        # The CI gate in miniature, over the same paths CI scans: the real
        # tree must carry zero unsuppressed findings.
        from pathlib import Path

        monkeypatch.chdir(Path(__file__).resolve().parent.parent.parent)
        report = run(["src", "tests", "benchmarks"])
        assert report.ok, "\n".join(f.render() for f in report.unsuppressed)
        assert report.files_scanned > 50
