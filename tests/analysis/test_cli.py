"""``python -m repro.analysis`` exit-code gating and output formats."""

import json
import subprocess
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "bad_bare_assert.py")
GOOD = str(FIXTURES / "good_clean.py")


class TestExitCodes:
    def test_known_bad_fixture_fails(self, capsys):
        assert main([BAD, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPL004" in out
        assert "bare-assert" in out

    def test_known_good_fixture_passes(self, capsys):
        assert main([GOOD, "--no-baseline"]) == 0

    def test_select_unrelated_rule_passes(self, capsys):
        assert main([BAD, "--no-baseline",
                     "--select", "stat-counter-discipline"]) == 0

    def test_select_by_id_still_fails(self, capsys):
        assert main([BAD, "--no-baseline", "--select", "RPL004"]) == 1

    def test_select_retired_rule_is_a_usage_error(self, capsys):
        # RPL002/003/006/008 were retired in favour of the runtime
        # checks that already enforce their invariants.
        for rule_id in ("RPL002", "RPL003", "RPL006", "RPL008"):
            assert main([BAD, "--no-baseline", "--select", rule_id]) == 2


class TestJsonOutput:
    def test_machine_readable_shape(self, capsys):
        main([BAD, "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["by_rule"] == {"bare-assert": 1}
        (violation,) = payload["violations"]
        assert violation["id"] == "RPL004"
        assert violation["path"] == "sim/bad_bare_assert.py"
        assert violation["fingerprint"]


class TestBaselineFlow:
    def test_write_then_gate_then_stale(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        assert main([BAD, "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        assert baseline.is_file()
        # Baselined finding no longer gates...
        assert main([BAD, "--baseline", str(baseline)]) == 0
        # ...a stale baseline passes lax mode but fails --strict.
        assert main([GOOD, "--baseline", str(baseline)]) == 0
        assert main([GOOD, "--baseline", str(baseline),
                     "--strict"]) == 1


class TestListRules:
    def test_every_rule_described(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL001", "RPL004", "RPL005", "RPL007",
                        "RPL009", "RPL010", "RPL011", "RPL012",
                        "RPL013", "RPL014"):
            assert rule_id in out
        for rule_id in ("RPL002", "RPL003", "RPL006", "RPL008"):
            assert rule_id not in out


class TestRepoGate:
    def test_package_is_strict_clean(self, capsys):
        """The acceptance criterion: the shipped tree (plus its
        committed baseline) passes ``--strict`` with exit 0."""
        assert main(["--strict"]) == 0


class TestChangedOnly:
    """``--changed-only`` filters the report to files differing from
    ``--base`` — the whole-tree analysis still runs, but an unrelated
    pre-existing finding cannot block a commit."""

    @staticmethod
    def _git(repo, *argv):
        subprocess.run(
            ["git", "-c", "user.email=t@example.invalid",
             "-c", "user.name=t", *argv],
            cwd=repo, check=True, capture_output=True)

    def _repo(self, tmp_path):
        repo = tmp_path / "checkout"
        pkg = repo / "pkg"
        pkg.mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\n")
        (pkg / "old.py").write_text(
            "def f(x):\n    assert x\n")
        self._git(repo, "init", "-q")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-qm", "seed")
        return repo, pkg

    def test_untracked_finding_gates_committed_one_does_not(
            self, tmp_path, capsys):
        repo, pkg = self._repo(tmp_path)
        (pkg / "new.py").write_text(
            "def g(x):\n    assert x\n")
        # Plain run sees both findings...
        assert main([str(pkg), "--no-baseline"]) == 1
        assert "old.py" in capsys.readouterr().out
        # ...changed-only reports only the untracked file.
        assert main([str(pkg), "--no-baseline", "--changed-only"]) == 1
        out = capsys.readouterr().out
        assert "new.py" in out
        assert "old.py" not in out

    def test_clean_diff_passes_despite_old_findings(self, tmp_path,
                                                    capsys):
        repo, pkg = self._repo(tmp_path)
        assert main([str(pkg), "--no-baseline"]) == 1
        capsys.readouterr()
        assert main([str(pkg), "--no-baseline", "--changed-only"]) == 0

    def test_base_ref_widens_the_window(self, tmp_path, capsys):
        repo, pkg = self._repo(tmp_path)
        (pkg / "new.py").write_text(
            "def g(x):\n    assert x\n")
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-qm", "second")
        # vs HEAD nothing changed; vs HEAD~1 the new file did.
        assert main([str(pkg), "--no-baseline", "--changed-only"]) == 0
        capsys.readouterr()
        assert main([str(pkg), "--no-baseline", "--changed-only",
                     "--base", "HEAD~1"]) == 1
        assert "new.py" in capsys.readouterr().out

    def test_unknown_ref_errors(self, tmp_path, capsys):
        repo, pkg = self._repo(tmp_path)
        assert main([str(pkg), "--no-baseline", "--changed-only",
                     "--base", "no-such-ref"]) == 2
        assert "failed" in capsys.readouterr().err
