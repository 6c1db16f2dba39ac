"""``python -m repro.analysis`` — run reprolint with exit-code gating.

::

    python -m repro.analysis                   # lint src/repro, text out
    python -m repro.analysis --strict          # the CI gate
    python -m repro.analysis --format json     # machine-readable
    python -m repro.analysis --sarif out.sarif # SARIF 2.1.0 log for
                                               # code scanning
    python -m repro.analysis --select RPL004   # run only this rule
    python -m repro.analysis --list-rules      # what is enforced & why

Every run is one pass over the whole tree: the project rules
(torn-file-write and blocking-call-in-async, which follow call edges
across modules) are only sound over the full package.  Exit code 0 means no finding, 1 means at least one
violation, 2 a usage or I/O error.  An accepted finding carries an
inline ``# reprolint: disable=<rule>`` comment.  Designed to run in CI
next to the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.lint import Linter
from repro.analysis.report import LintReport, rules_text
from repro.errors import ConfigError


def default_scan_root() -> Path:
    """The installed ``repro`` package directory — lint ourselves."""
    return Path(__file__).resolve().parents[1]


def find_repo_root(start: Path) -> Path | None:
    """Nearest ancestor carrying a ``pyproject.toml`` (the checkout
    root, which SARIF URIs resolve from)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: persist-ordering and simulator-domain "
                    "invariants as named, suppressible lint rules")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: the repro package)")
    parser.add_argument("--strict", action="store_true",
                        help="accepted for compatibility: every run "
                             "fails on any finding")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--sarif", type=Path, default=None,
                        metavar="PATH",
                        help="also write a SARIF 2.1.0 log to PATH")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="run only this rule (repeatable; name or "
                             "RPLnnn id)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    return parser


def _sarif_uri_prefix(scan_root: Path) -> str:
    """Scan root relative to the repo root, so SARIF URIs resolve from
    the checkout root as code scanning expects."""
    resolved = Path(scan_root).resolve()
    repo_root = find_repo_root(resolved)
    if repo_root is None or resolved == repo_root:
        return ""
    try:
        return resolved.relative_to(repo_root).as_posix()
    except ValueError:
        return ""


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(rules_text())
        return 0

    for path in args.paths:
        if not path.exists():
            print(f"no such file or directory: {path}", file=sys.stderr)
            return 2

    roots = args.paths or [default_scan_root()]
    report = LintReport()
    try:
        # Relpaths are computed per root.
        for root in roots:
            linter = Linter(root, select=args.select)
            files = list(linter.iter_files())
            report.files_checked += len(files)
            report.violations.extend(linter.run(files))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"cannot lint {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot lint: {exc}", file=sys.stderr)
        return 2

    if args.sarif is not None:
        from repro.analysis.sarif import to_sarif
        log = to_sarif(report, uri_prefix=_sarif_uri_prefix(roots[0]))
        args.sarif.write_text(json.dumps(log, indent=2) + "\n")

    if args.format == "json":
        print(report.as_json())
    else:
        print(report.as_text())
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
