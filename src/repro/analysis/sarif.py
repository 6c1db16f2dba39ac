"""SARIF 2.1.0 export for reprolint findings.

Produces a single-run SARIF log consumable by GitHub code scanning:
every registered rule is described under ``tool.driver.rules`` (so the
UI can show the paper-facing rationale) and every finding becomes an
``error`` result.  ``partialFingerprints`` carries each finding's
line-independent fingerprint, so code scanning tracks a finding across
unrelated edits.
"""

from __future__ import annotations

from posixpath import join as url_join

from repro.analysis.report import LintReport
from repro.analysis.rules import ALL_RULES, Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
#: The fingerprint scheme name; bump the suffix if the recipe changes.
FINGERPRINT_KEY = "reprolintFingerprint/v1"
_TOOL_INFO_URI = "https://github.com/repro/sgx-integrity-tree-repro"

def _rules_table(report: LintReport) -> tuple[list, dict[str, int]]:
    """The run's rule table: every registered reprolint rule, extended
    with any foreign rules (e.g. the crash explorer's REX rules) that
    appear among the report's findings, plus a name -> index map."""
    rules = list(ALL_RULES)
    index = {rule.name: i for i, rule in enumerate(rules)}
    for violation in report.violations:
        if violation.rule.name not in index:
            index[violation.rule.name] = len(rules)
            rules.append(violation.rule)
    return rules, index


def _rule_descriptor(rule) -> dict:
    return {
        "id": rule.id,
        "name": rule.name,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "helpUri": _TOOL_INFO_URI,
        "defaultConfiguration": {"level": "error"},
    }


def _result(violation: Violation, uri_prefix: str,
            rule_index: dict[str, int]) -> dict:
    uri = url_join(uri_prefix, violation.path) if uri_prefix \
        else violation.path
    return {
        "ruleId": violation.rule.id,
        "ruleIndex": rule_index[violation.rule.name],
        "level": "error",
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": uri,
                                     "uriBaseId": "SRCROOT"},
                "region": {
                    "startLine": violation.line,
                    "startColumn": violation.column,
                    "snippet": {"text": violation.snippet},
                },
            },
        }],
        "partialFingerprints": {FINGERPRINT_KEY: violation.fingerprint},
    }


def to_sarif(report: LintReport, uri_prefix: str = "") -> dict:
    """Convert a lint report into a SARIF 2.1.0 log dictionary.

    ``uri_prefix`` is the scan root's path relative to the repository
    root (e.g. ``src/repro``), so result URIs resolve from the repo
    root as code scanning expects."""
    rules, rule_index = _rules_table(report)
    results = [_result(v, uri_prefix, rule_index)
               for v in report.violations]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "reprolint",
                    "informationUri": _TOOL_INFO_URI,
                    "version": "2.0.0",
                    "rules": [_rule_descriptor(r) for r in rules],
                },
            },
            "columnKind": "unicodeCodePoints",
            "originalUriBaseIds": {
                "SRCROOT": {"description": {
                    "text": "repository root"}},
            },
            "results": results,
        }],
    }
