"""Incremental cache: warm runs hit per-file and project entries and
return the identical violations, edits invalidate precisely, the cache
note reports honestly, --update-baseline is byte-stable, and a warm
full-tree run stays under the 2 s budget."""

import time
from pathlib import Path

from repro.analysis import Linter
from repro.analysis.cache import AnalysisCache
from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BAD = ('# reprolint-fixture-path: sim/a.py\n'
       'def f(x):\n'
       '    assert x\n')
CLEAN = ('# reprolint-fixture-path: sim/b.py\n'
         'def g(x):\n'
         '    return x\n')


def tree(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "a.py").write_text(BAD)
    (root / "b.py").write_text(CLEAN)
    return root


def run(root, cache_path):
    linter = Linter(root, cache=AnalysisCache(cache_path))
    return linter.run(), linter.cache_stats


class TestWarmRuns:
    def test_cold_then_warm_hits_everything(self, tmp_path):
        root, cache = tree(tmp_path), tmp_path / "cache.json"
        cold, cold_stats = run(root, cache)
        assert cold_stats.files_hit == 0 and cold_stats.project_ran
        warm, warm_stats = run(root, cache)
        assert warm_stats.files_hit == warm_stats.files_total == 2
        assert warm_stats.project_hit and not warm_stats.project_ran

    def test_warm_violations_are_identical(self, tmp_path):
        root, cache = tree(tmp_path), tmp_path / "cache.json"
        cold, _ = run(root, cache)
        warm, _ = run(root, cache)
        assert [v.format() for v in warm] == \
            [v.format() for v in cold]
        assert [v.fingerprint for v in warm] == \
            [v.fingerprint for v in cold]

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        root, cache = tree(tmp_path), tmp_path / "cache.json"
        run(root, cache)
        (root / "b.py").write_text(CLEAN + "\n# touched\n")
        _, stats = run(root, cache)
        assert stats.files_hit == 1  # a.py still hits
        assert stats.project_ran     # tree digest changed

    def test_new_finding_in_the_edited_file_surfaces(self, tmp_path):
        root, cache = tree(tmp_path), tmp_path / "cache.json"
        before, _ = run(root, cache)
        (root / "b.py").write_text(BAD.replace("sim/a.py", "sim/b.py"))
        after, _ = run(root, cache)
        assert len(after) == len(before) + 1

    def test_select_bypasses_the_cache(self, tmp_path):
        root = tree(tmp_path)
        linter = Linter(root, select=["bare-assert"],
                        cache=AnalysisCache(tmp_path / "cache.json"))
        linter.run()
        assert linter.cache is None and linter.cache_stats is None


class TestCacheNote:
    def test_warm_note_reports_the_hit_rate(self, tmp_path):
        root, cache = tree(tmp_path), tmp_path / "cache.json"
        run(root, cache)
        _, stats = run(root, cache)
        note = stats.describe()
        assert "hit rate 100% (2/2 files)" in note
        assert "project phase reused" in note


class TestUpdateBaseline:
    def test_unchanged_tree_rewrites_byte_identically(self, tmp_path,
                                                      capsys):
        baseline = tmp_path / "baseline.txt"
        args = [str(FIXTURES / "bad_bare_assert.py"),
                "--update-baseline", "--baseline", str(baseline)]
        assert main(args) == 0
        first = baseline.read_bytes()
        assert main(args) == 0
        assert baseline.read_bytes() == first
        assert "(+0 added, -0 removed)" in capsys.readouterr().out

    def test_diff_counts_report_what_changed(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        main([str(FIXTURES / "bad_bare_assert.py"),
              "--update-baseline", "--baseline", str(baseline)])
        capsys.readouterr()
        assert main([str(FIXTURES / "bad_stat_counter.py"),
                     "--update-baseline", "--baseline",
                     str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "+1 added" in out and "-1 removed" in out


class TestJobs:
    def test_parallel_flat_phase_matches_serial(self, tmp_path):
        serial = Linter(FIXTURES).run()
        parallel = Linter(FIXTURES, jobs=2).run()
        assert [v.format() for v in parallel] == \
            [v.format() for v in serial]


class TestWarmBudget:
    def test_warm_full_tree_run_is_under_two_seconds(self, tmp_path):
        cache = tmp_path / "cache.json"
        Linter(REPO_SRC, cache=AnalysisCache(cache)).run()  # prime
        linter = Linter(REPO_SRC, cache=AnalysisCache(cache))
        start = time.monotonic()
        linter.run()
        elapsed = time.monotonic() - start
        stats = linter.cache_stats
        assert stats.files_hit == stats.files_total
        assert stats.project_hit
        assert elapsed < 2.0, f"warm run took {elapsed:.2f}s"
