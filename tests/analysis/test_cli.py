"""``python -m repro.analysis`` exit-code gating and output formats."""

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "bad_bare_assert.py")
GOOD = str(FIXTURES / "good_clean.py")


class TestExitCodes:
    def test_known_bad_fixture_fails(self, capsys):
        assert main([BAD]) == 1
        out = capsys.readouterr().out
        assert "RPL004" in out
        assert "bare-assert" in out

    def test_known_good_fixture_passes(self, capsys):
        assert main([GOOD]) == 0

    def test_select_unrelated_rule_passes(self, capsys):
        assert main([BAD, "--select", "stat-counter-discipline"]) == 0

    def test_select_by_id_still_fails(self, capsys):
        assert main([BAD, "--select", "RPL004"]) == 1

    def test_select_retired_rule_is_a_usage_error(self, capsys):
        # RPL001/002/003/006/007/008/012 were retired in favour of the
        # runtime checks that already enforce their invariants.
        for rule in ("RPL001", "RPL002", "RPL003", "RPL006", "RPL007",
                     "RPL008", "RPL012", "nvm-direct-store",
                     "persist-protocol", "await-atomicity"):
            assert main([BAD, "--select", rule]) == 2


class TestJsonOutput:
    def test_machine_readable_shape(self, capsys):
        main([BAD, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["by_rule"] == {"bare-assert": 1}
        (violation,) = payload["violations"]
        assert violation["id"] == "RPL004"
        assert violation["path"] == "sim/bad_bare_assert.py"
        assert violation["fingerprint"]


class TestListRules:
    def test_every_rule_described(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL004", "RPL005", "RPL009", "RPL010",
                        "RPL011", "RPL013", "RPL014"):
            assert rule_id in out
        for rule_id in ("RPL001", "RPL002", "RPL003", "RPL006",
                        "RPL007", "RPL008", "RPL012"):
            assert rule_id not in out


class TestRepoGate:
    def test_package_is_strict_clean(self, capsys):
        """The acceptance criterion: the shipped tree passes
        ``--strict`` with exit 0."""
        assert main(["--strict"]) == 0
