"""Self-check: the shipped ``repro`` package is lint-clean.

This is the analyzer's own acceptance gate — the same invocation CI
runs.  If a change to ``src/repro`` trips a rule, this test fails with
the findings in the assertion message; either fix the violation or (for
a reviewed false positive) add an inline
``# repro-lint: disable=RULE`` with a justification comment.

The full-tree analysis takes seconds, so it runs once per module (the
``shipped_lint`` fixture) and every shipped-tree assertion reads that
one run.
"""

import contextlib
import io
import json

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def shipped_lint():
    """``repro lint --format=json`` on the shipped tree, run once.

    Returns ``(exit_code, document)``.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exit_code = main(["lint", "--format", "json"])
    return exit_code, json.loads(out.getvalue())


class TestShippedTreeIsClean:
    def test_analyzer_reports_no_findings(self, shipped_lint):
        _, document = shipped_lint
        findings = document["findings"]
        assert findings == [], "\n".join(
            "%s:%d:%d: %s %s" % (finding["path"], finding["line"],
                                 finding["col"], finding["rule"],
                                 finding["message"])
            for finding in findings
        )

    def test_cli_lint_exits_zero(self, shipped_lint):
        exit_code, document = shipped_lint
        assert exit_code == 0
        assert document["summary"]["errors"] == 0

    def test_cli_lint_json_document(self, shipped_lint):
        _, document = shipped_lint
        assert document["version"] == 2
        assert document["findings"] == []
        assert document["summary"]["errors"] == 0
        assert document["summary"]["checked_files"] > 40
        assert document["summary"]["suppressed"] == 0
        # Per-rule stats cover every registered rule, with timings.
        stats = document["rule_stats"]
        for rule_id in ("DET001", "COV001", "FLO001", "GEN003"):
            assert rule_id in stats
            assert stats[rule_id]["findings"] == 0
            assert stats[rule_id]["time_s"] >= 0.0

    def test_list_rules_marks_project_rules(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        kinds = {row["id"]: row["kind"] for row in document["rules"]}
        for rule_id in ("COV001", "COV002", "COV003", "GEN002", "GEN003",
                        "ENV003"):
            assert kinds[rule_id] == "project"
        for rule_id in ("DET001", "FLO001", "FLO002", "FLO003"):
            assert kinds[rule_id] == "module"


class TestCliSurface:
    def test_lint_fails_on_fixture_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\nSTART = time.time()\n"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_lint_json_findings_parse(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\nSTART = time.time()\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] >= 1
        rules = {finding["rule"] for finding in document["findings"]}
        assert "DET001" in rules

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "ENV001", "PAR001", "GEN001"):
            assert rule_id in out

    def test_select_unknown_rule_errors(self, tmp_path):
        try:
            main(["lint", str(tmp_path), "--select", "NOPE"])
        except SystemExit as exc:
            assert "unknown rule selector" in str(exc)
        else:
            raise AssertionError("expected SystemExit")

    def test_select_family_filters(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import os\nimport time\n"
            "START = time.time()\n"
            "LIMIT = os.environ.get('REPRO_LIMIT')\n"
        )
        assert main(["lint", str(tmp_path), "--select", "ENV"]) == 1
        out = capsys.readouterr().out
        assert "ENV" in out
        assert "DET001" not in out

    def test_clean_tree_reports_no_findings(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("X = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no findings in 1 files" in capsys.readouterr().out
