"""SARIF 2.1.0 exporter: structural conformance checks that run
offline (CI additionally validates against the official schema) plus
the --sarif CLI end-to-end path."""

import json
from pathlib import Path

from repro.analysis import Linter
from repro.analysis.cli import main
from repro.analysis.report import LintReport
from repro.analysis.rules import ALL_RULES
from repro.analysis.sarif import (
    FINGERPRINT_KEY,
    SARIF_VERSION,
    to_sarif,
)

FIXTURES = Path(__file__).parent / "fixtures"


def report_for(fixture):
    return LintReport(violations=Linter(FIXTURES / fixture).run(),
                      files_checked=1)


class TestLogShape:
    def test_version_and_schema(self):
        log = to_sarif(report_for("bad_bare_assert.py"))
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1

    def test_driver_describes_every_registered_rule(self):
        (run,) = to_sarif(report_for("bad_bare_assert.py"))["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [r.id for r in ALL_RULES]
        for descriptor in rules:
            assert descriptor["shortDescription"]["text"]
            assert descriptor["fullDescription"]["text"]
            assert descriptor["defaultConfiguration"] == {
                "level": "error"}

    def test_rule_index_points_at_the_right_descriptor(self):
        (run,) = to_sarif(report_for("bad_bare_assert.py"))["runs"]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_result_location_region_and_fingerprint(self):
        report = report_for("bad_bare_assert.py")
        (violation,) = report.violations
        (run,) = to_sarif(report, uri_prefix="src/repro")["runs"]
        (result,) = run["results"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            f"src/repro/{violation.path}"
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
        region = location["region"]
        assert region["startLine"] == violation.line
        assert region["startColumn"] == violation.column
        assert region["snippet"]["text"] == violation.snippet
        assert result["partialFingerprints"][FINGERPRINT_KEY] == \
            violation.fingerprint
        assert "SRCROOT" in run["originalUriBaseIds"]

    def test_empty_prefix_leaves_paths_bare(self):
        report = report_for("bad_bare_assert.py")
        (run,) = to_sarif(report)["runs"]
        (result,) = run["results"]
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri == report.violations[0].path


class TestSuppressions:
    def test_new_findings_carry_no_suppressions(self):
        (run,) = to_sarif(report_for("bad_bare_assert.py"))["runs"]
        assert "suppressions" not in run["results"][0]


class TestCliEndToEnd:
    def test_sarif_flag_writes_a_loadable_log(self, tmp_path, capsys):
        out = tmp_path / "out.sarif"
        code = main([str(FIXTURES / "bad_bare_assert.py"),
                     "--sarif", str(out)])
        assert code == 1  # gating is unchanged by the export
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RPL004"
        assert result["level"] == "error"
