"""Text and JSON rendering of a lint run for humans and CI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.rules import ALL_RULES, Violation


@dataclass
class LintReport:
    """Everything one lint run produced, ready to render."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def exit_code(self) -> int:
        """Gate: any violation fails the run."""
        return 1 if self.violations else 0

    # ------------------------------------------------------------------
    def as_text(self) -> str:
        lines: list[str] = []
        for violation in self.violations:
            lines.append(violation.format())
            if violation.snippet:
                lines.append(f"    {violation.snippet}")
        lines.append("")
        lines.append(f"{len(self.violations)} violation(s) in "
                     f"{self.files_checked} file(s)")
        return "\n".join(lines)

    def as_json(self) -> str:
        by_rule: dict[str, int] = {}
        for violation in self.violations:
            by_rule[violation.rule.name] = \
                by_rule.get(violation.rule.name, 0) + 1
        return json.dumps({
            "clean": self.clean,
            "files_checked": self.files_checked,
            "violations": [v.as_dict() for v in self.violations],
            "by_rule": by_rule,
        }, indent=2)


def rules_text() -> str:
    """Human-readable rule listing for ``--list-rules``."""
    lines: list[str] = []
    for rule in ALL_RULES:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"    {rule.summary}")
        lines.append(f"    rationale: {rule.rationale}")
        lines.append("")
    return "\n".join(lines).rstrip()
