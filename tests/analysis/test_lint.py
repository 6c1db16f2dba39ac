"""reprolint engine: every rule fires exactly once on its known-bad
fixture, stays quiet on the known-good twin, and honours suppressions;
fingerprints ignore line shifts."""

from pathlib import Path

import pytest

from repro.analysis import Linter
from repro.analysis.rules import Violation, get_rule
from repro.errors import ConfigError

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> the one rule it must trip.
BAD = {
    "bad_bare_assert.py": "bare-assert",
    "bad_stat_counter.py": "stat-counter-discipline",
    "bad_hot_path_alloc.py": "hot-path-allocation",
    "bad_await_race.py": "await-atomicity",
    "bad_torn_write.py": "torn-file-write",
    "bad_blocking_async.py": "blocking-call-in-async",
}


def lint_file(path, select=None):
    return Linter(Path(path), select=select).run()


class TestKnownBadFixtures:
    @pytest.mark.parametrize("fixture,rule", sorted(BAD.items()))
    def test_rule_fires_exactly_once(self, fixture, rule):
        violations = lint_file(FIXTURES / fixture)
        assert [v.rule.name for v in violations] == [rule]

    @pytest.mark.parametrize("fixture,rule", sorted(BAD.items()))
    def test_fixture_path_header_pins_scoping(self, fixture, rule):
        (violation,) = lint_file(FIXTURES / fixture)
        # Path-scoped rules saw the pinned in-package path, not the
        # fixture's real location under tests/.
        assert violation.path.startswith(
            ("secure/", "sim/", "serve/", "campaign/"))
        assert "fixtures" not in violation.path


class TestKnownGoodFixture:
    def test_near_miss_twins_stay_clean(self):
        assert lint_file(FIXTURES / "good_clean.py") == []


class TestHotPathCoversTheCpuHierarchy:
    """RPL009 also scopes ``mem/hierarchy.py``, whose ``load``,
    ``store`` and ``persist`` both engines call on every access.  Its
    fixture pins a ``mem/`` path, which the BAD map's path check does
    not list, so it rides here."""

    def test_fixture_fires_once_in_the_hierarchy(self):
        (violation,) = lint_file(FIXTURES / "bad_hierarchy_alloc.py")
        assert violation.rule.name == "hot-path-allocation"
        assert violation.path == "mem/hierarchy.py"
        assert "'load'" in violation.message

    def test_the_rest_of_mem_stays_out_of_scope(self, tmp_path):
        path = tmp_path / "cache.py"
        path.write_text(
            "# reprolint-fixture-path: mem/cache.py\n"
            "class Cache:\n"
            "    def load(self, line_addr):\n"
            "        return []\n")
        assert lint_file(path, select=("RPL009",)) == []


class TestUnexploredPersistBoundary:
    """RPL010 flags persistence the crash explorer cannot observe.  The
    fixture fires twice (a shadow root register and a poke_line), so it
    cannot ride in the exactly-once BAD map above."""

    def test_fixture_fires_twice(self):
        violations = lint_file(FIXTURES / "unexplored_scheme.py")
        assert [v.rule.name for v in violations] == \
            ["unexplored-persist-boundary"] * 2
        register, poke = sorted(violations, key=lambda v: v.line)
        assert "shadow_root" in register.message
        assert "poke_line" in poke.message

    def test_select_isolates_the_rule(self):
        violations = lint_file(FIXTURES / "unexplored_scheme.py",
                               select=("RPL010",))
        assert len(violations) == 2

    def test_registered_seams_stay_clean(self, tmp_path):
        path = tmp_path / "clean_scheme.py"
        path.write_text(
            "# reprolint-fixture-path: secure/clean_scheme.py\n"
            "from repro.secure.roots import RootRegister\n\n\n"
            "class Ok:\n"
            "    def __init__(self):\n"
            "        self.running_root = RootRegister(\n"
            "            'running_root', 8, 56)\n"
            "        self.recovery_root = RootRegister(\n"
            "            'recovery_root', 8, 56)\n")
        assert lint_file(path, select=("RPL010",)) == []


class TestNondeterministicReport:
    """RPL011 keeps entropy out of repro.viz.  The fixture fires five
    times (global RNG, two argless Random constructors, two wall-clock
    reads), so it cannot ride in the exactly-once BAD map above."""

    def test_fixture_fires_five_times(self):
        violations = lint_file(
            FIXTURES / "bad_nondeterministic_report.py")
        assert [v.rule.name for v in violations] == \
            ["nondeterministic-report"] * 5
        messages = [v.message for v in
                    sorted(violations, key=lambda v: v.line)]
        assert "random.shuffle" in messages[0]
        assert "random.Random" in messages[1]
        assert "time.time" in messages[2]
        assert "datetime.datetime.now" in messages[3]
        assert "Random() with no seed" in messages[4]

    def test_fixture_path_pins_viz_scoping(self):
        violations = lint_file(
            FIXTURES / "bad_nondeterministic_report.py")
        assert all(v.path.startswith("viz/") for v in violations)

    def test_seeded_random_stays_clean(self, tmp_path):
        path = tmp_path / "clean_report.py"
        path.write_text(
            "# reprolint-fixture-path: viz/clean_report.py\n"
            "import random\n"
            "from random import Random\n\n\n"
            "def resample(values, seed):\n"
            "    rng = random.Random(seed)\n"
            "    alt = Random(seed=seed + 1)\n"
            "    return rng.choice(values), alt.choice(values)\n")
        assert lint_file(path, select=("RPL011",)) == []

    def test_rule_is_scoped_to_viz(self, tmp_path):
        path = tmp_path / "elsewhere.py"
        path.write_text(
            "# reprolint-fixture-path: serve/events.py\n"
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()\n")
        assert lint_file(path, select=("RPL011",)) == []

    def test_repro_viz_package_is_clean(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        violations = Linter(src, select=("RPL011",)).run()
        assert violations == []


class TestConcurrencyRules:
    """RPL012/013/014 exact locations on the seeded concurrency
    fixtures — the BAD map above already asserts exactly-once firing;
    these pin the rule to the precise line so a drift in the engine's
    reporting point (read vs write, open vs dump) fails loudly."""

    def test_await_race_flags_the_clobbering_write(self):
        (violation,) = lint_file(FIXTURES / "bad_await_race.py")
        assert violation.rule.id == "RPL012"
        assert violation.path == "serve/broken_scheduler.py"
        # The finding anchors on the write-back, naming the read and
        # the await it straddles.
        assert violation.line == 25
        assert violation.snippet.startswith("self.completed = count")
        assert "read at line 23" in violation.message
        assert "await at line 24" in violation.message

    def test_torn_write_flags_the_open(self):
        (violation,) = lint_file(FIXTURES / "bad_torn_write.py")
        assert violation.rule.id == "RPL013"
        assert violation.path == "campaign/torn_manifest.py"
        assert violation.line == 15
        assert "open(..., 'w')" in violation.message
        assert "os.replace" in violation.message

    def test_blocking_call_flags_the_sleep(self):
        (violation,) = lint_file(FIXTURES / "bad_blocking_async.py")
        assert violation.rule.id == "RPL014"
        assert violation.path == "serve/blocking.py"
        assert violation.line == 14
        assert "'time.sleep()'" in violation.message
        assert "lazy_poll" in violation.message
        assert "asyncio.to_thread" in violation.message


class TestSuppression:
    def test_disable_comment_silences_the_rule(self, tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "def f(x):\n"
            "    assert x  # reprolint: disable=bare-assert\n")
        assert lint_file(path) == []

    def test_disable_all(self, tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "def f(x):\n"
            "    assert x  # reprolint: disable=all\n")
        assert lint_file(path) == []

    def test_unrelated_disable_does_not_silence(self, tmp_path):
        path = tmp_path / "still_bad.py"
        path.write_text(
            "def f(x):\n"
            "    assert x  # reprolint: disable=stat-counter-discipline\n")
        (violation,) = lint_file(path)
        assert violation.rule.name == "bare-assert"


class TestSelect:
    def test_select_by_name(self):
        violations = lint_file(FIXTURES / "bad_bare_assert.py",
                               select=["bare-assert"])
        assert len(violations) == 1

    def test_select_by_id(self):
        violations = lint_file(FIXTURES / "bad_bare_assert.py",
                               select=["RPL004"])
        assert len(violations) == 1

    def test_select_other_rule_finds_nothing(self):
        assert lint_file(FIXTURES / "bad_bare_assert.py",
                         select=["stat-counter-discipline"]) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            lint_file(FIXTURES / "bad_bare_assert.py",
                      select=["no-such-rule"])


class TestBaseline:
    def test_fingerprint_survives_line_shifts(self):
        rule = get_rule("bare-assert")
        a = Violation(rule=rule, path="sim/x.py", line=5, column=5,
                      message="m", snippet="assert x")
        b = Violation(rule=rule, path="sim/x.py", line=50, column=5,
                      message="m", snippet="assert x")
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_changes_with_the_line(self):
        rule = get_rule("bare-assert")
        a = Violation(rule=rule, path="sim/x.py", line=5, column=5,
                      message="m", snippet="assert x")
        b = Violation(rule=rule, path="sim/x.py", line=5, column=5,
                      message="m", snippet="assert y")
        assert a.fingerprint != b.fingerprint


class TestPackageTree:
    def test_package_has_no_unbaselined_violations(self):
        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        found = Linter(repo_src).run()
        assert found == [], "\n".join(v.format() for v in found)
