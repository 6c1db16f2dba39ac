"""The campaign executor: serial path, worker pool, failure modes,
resume (ISSUE satellite: raising worker / hang / corrupted cache /
kill-and-resume must all be survivable)."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    RunManifest,
    cell_key,
    run_campaign,
)
from repro.campaign.executor import execute_cell
from repro.errors import CampaignError

from tests.campaign._fakes import (
    FinishedCounts,
    TinyScale,
    dying_once_cell,
    fake_spec,
    invocations,
    make_result,
    ok_cell,
    poison_cell,
    poison_sleeping_cell,
    raising_cell,
    second_try_cell,
    sleeping_cell,
    tracking_cell,
)


@pytest.fixture()
def scratch(tmp_path, monkeypatch):
    """REPRO_TEST_DIR for the marker-file fakes (inherited by workers)."""
    monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path))
    return tmp_path


class TestSerial:
    def test_all_cells_complete_in_spec_order(self, tmp_path):
        spec = fake_spec(3)
        manifest_path = tmp_path / "manifest.json"
        outcome = run_campaign(spec, cell_fn=ok_cell,
                               manifest_path=manifest_path)
        assert outcome.ok
        assert [cell.group for cell, _ in outcome.iter_results()] == \
            ["cell0", "cell1", "cell2"]
        saved = RunManifest.load(manifest_path)
        assert saved.finished and saved.counts()["done"] == 3
        assert saved.wall_time >= 0.0

    def test_failure_recorded_and_campaign_continues(self, scratch):
        spec = CampaignSpec("mixed", fake_spec(1).cells
                            + fake_spec(1, group_prefix="poison").cells)
        outcome = run_campaign(spec, cell_fn=poison_cell)
        assert not outcome.ok
        counts = outcome.manifest.counts()
        assert counts["done"] == 1 and counts["failed"] == 1
        record = outcome.manifest.failures()[0]
        assert "poisoned cell" in record.error
        with pytest.raises(CampaignError, match="poison"):
            outcome.raise_on_failure()

    def test_fail_fast_reraises_original_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_campaign(fake_spec(2), cell_fn=raising_cell,
                         fail_fast=True)

    def test_serial_retry_then_success(self, scratch):
        outcome = run_campaign(fake_spec(1), cell_fn=second_try_cell,
                               retries=2, backoff=0.0)
        assert outcome.ok
        record = outcome.manifest.cells[0]
        assert record.status == "done" and record.retries == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(CampaignError, match="jobs"):
            run_campaign(fake_spec(1), jobs=0, cell_fn=ok_cell)


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path, scratch):
        spec = fake_spec(3)
        cache_dir = str(tmp_path / "cache")   # str: coercion path
        first = run_campaign(spec, cache=cache_dir, cell_fn=tracking_cell)
        second = run_campaign(spec, cache=cache_dir, cell_fn=tracking_cell)
        assert first.ok and second.ok
        assert second.manifest.counts()["cached"] == 3
        assert dict(second.results) == dict(first.results)
        assert all(invocations(cell) == 1 for cell in spec)

    def test_cache_artifact_recorded_in_manifest(self, tmp_path):
        spec = fake_spec(1)
        outcome = run_campaign(spec, cache=tmp_path / "cache",
                               cell_fn=ok_cell)
        artifact = outcome.manifest.cells[0].artifact
        assert artifact.startswith("objects/")
        assert (tmp_path / "cache" / artifact).is_file()

    def test_corrupted_entry_rerun_and_repaired(self, tmp_path):
        spec = fake_spec(2)
        cache = ResultCache(tmp_path / "cache")
        run_campaign(spec, cache=cache, cell_fn=ok_cell)
        victim = cache.path_for(cell_key(spec.cells[0]))
        victim.write_text("garbage, not JSON")
        outcome = run_campaign(spec, cache=cache, cell_fn=ok_cell)
        assert outcome.ok
        statuses = [r.status for r in outcome.manifest.cells]
        assert statuses == ["done", "cached"]     # only the victim re-ran
        payload = json.loads(victim.read_text())  # repaired in place
        assert payload["key"] == cell_key(spec.cells[0])

    def test_torn_entry_resume_recomputes_exactly_once(self, tmp_path,
                                                       scratch):
        # Crash-mid-write resume: a truncated entry costs one recompute
        # for its cell only; a further resume is then all cache hits.
        spec = fake_spec(3)
        cache = ResultCache(tmp_path / "cache")
        run_campaign(spec, cache=cache, cell_fn=tracking_cell)
        victim = cache.path_for(cell_key(spec.cells[1]))
        text = victim.read_text()
        victim.write_text(text[:len(text) // 2])
        resumed = run_campaign(spec, cache=cache, cell_fn=tracking_cell)
        assert resumed.ok
        assert [r.status for r in resumed.manifest.cells] == \
            ["cached", "done", "cached"]
        third = run_campaign(spec, cache=cache, cell_fn=tracking_cell)
        assert third.manifest.counts()["cached"] == 3
        assert [invocations(cell) for cell in spec] == [1, 2, 1]


class TestParallel:
    def test_matches_serial_with_real_cells(self):
        spec = CampaignSpec.matrix(TinyScale(), ["array", "queue"],
                                   ["baseline", "scue"])
        serial = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2)
        assert serial.ok and parallel.ok
        assert dict(parallel.results) == dict(serial.results)

    def test_raising_worker_fails_after_retries(self, scratch):
        spec = fake_spec(2)
        outcome = run_campaign(spec, jobs=2, retries=1, backoff=0.0,
                               cell_fn=raising_cell)
        assert not outcome.ok
        for record in outcome.manifest.cells:
            assert record.status == "failed"
            assert record.retries == 1
            assert "RuntimeError: boom" in record.error
            assert "Traceback (most recent call last)" in record.error

    def test_mixed_failure_does_not_block_others(self, scratch):
        spec = CampaignSpec("mixed", fake_spec(2).cells
                            + fake_spec(1, group_prefix="poison").cells)
        outcome = run_campaign(spec, jobs=2, retries=0,
                               cell_fn=poison_cell)
        counts = outcome.manifest.counts()
        assert counts["done"] == 2 and counts["failed"] == 1

    def test_hung_worker_killed_at_timeout(self):
        spec = fake_spec(2)
        started = time.monotonic()
        outcome = run_campaign(spec, jobs=2, timeout=1.0, retries=0,
                               cell_fn=sleeping_cell)
        elapsed = time.monotonic() - started
        assert elapsed < 20.0       # nowhere near the 60s sleep
        assert not outcome.ok
        for record in outcome.manifest.cells:
            assert record.status == "failed"
            assert "timed out" in record.error

    def test_transient_worker_death_retried(self, scratch):
        spec = fake_spec(2)
        outcome = run_campaign(spec, jobs=2, retries=2, backoff=0.0,
                               cell_fn=dying_once_cell)
        assert outcome.ok
        for record in outcome.manifest.cells:
            assert record.status == "done"
            assert record.retries == 1

    def test_fail_fast_raises_campaign_error(self):
        with pytest.raises(CampaignError, match="failed after"):
            run_campaign(fake_spec(2), jobs=2, retries=0, fail_fast=True,
                         cell_fn=raising_cell)

    def test_more_threads_than_cores_record_each_cell_once(self, scratch):
        """Four supervisor threads switching every microsecond: each
        cell runs once, and the finished count loses no update."""
        spec = fake_spec(12)
        progress = FinishedCounts()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        started = time.monotonic()
        try:
            outcome = run_campaign(spec, jobs=4, retries=0,
                                   progress=progress, cell_fn=tracking_cell)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 60.0
        assert outcome.manifest.counts()["done"] == 12
        assert sorted(progress.finished) == list(range(1, 13))
        assert [invocations(cell) for cell in spec] == [1] * 12

    def test_fail_fast_kills_the_cells_in_flight(self, tmp_path):
        """The first permanent failure stops a sleeping cell in flight
        at once, records it as no failure and leaves no worker alive."""
        spec = CampaignSpec("in-flight",
                            fake_spec(1, group_prefix="poison").cells
                            + fake_spec(2).cells)
        manifest_path = tmp_path / "manifest.json"
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(CampaignError,
                           match=r"cell .*poison0.* failed after 1 "
                                 r"attempt\(s\): RuntimeError: poisoned"):
            run_campaign(spec, jobs=2, retries=0, fail_fast=True,
                         manifest_path=manifest_path,
                         cell_fn=poison_sleeping_cell)
        assert time.monotonic() - started < 10.0
        assert set(multiprocessing.active_children()) <= before
        statuses = [record.status
                    for record in RunManifest.load(manifest_path).cells]
        assert statuses[0] == "failed"
        assert "failed" not in statuses[1:]

    def test_sigint_leaves_no_worker_behind(self, scratch):
        """Ctrl-C of a two-worker campaign ends it promptly, and every
        worker it started is gone."""
        repo_root = Path(__file__).resolve().parents[2]
        script = textwrap.dedent(f"""
            import sys
            sys.path[:0] = [{str(repo_root / 'src')!r}, {str(repo_root)!r}]
            from repro.campaign import run_campaign
            from tests.campaign._fakes import fake_spec, pid_sleeping_cell
            run_campaign(fake_spec(2), jobs=2, cell_fn=pid_sleeping_cell)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ))
        try:
            deadline = time.monotonic() + 30.0
            while len(list(scratch.glob("*.pid"))) < 2:
                if proc.poll() is not None:
                    pytest.fail("campaign exited before the interrupt "
                                f"(rc={proc.returncode})")
                if time.monotonic() > deadline:
                    pytest.fail("the two workers never started")
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        pids = [int(path.read_text()) for path in scratch.glob("*.pid")]
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestResume:
    def test_resume_completes_only_missing_cells(self, tmp_path, scratch):
        spec = CampaignSpec("resume", fake_spec(2).cells
                            + fake_spec(2, group_prefix="poison").cells)
        cache = tmp_path / "cache"
        manifest_path = tmp_path / "manifest.json"
        first = run_campaign(spec, cache=cache,
                             manifest_path=manifest_path,
                             cell_fn=poison_cell)
        assert not first.ok
        assert first.manifest.counts() == pytest.approx(
            {"pending": 0, "running": 0, "cached": 0, "done": 2,
             "failed": 2})
        (scratch / "antidote").touch()
        second = run_campaign(spec, cache=cache,
                              manifest_path=manifest_path,
                              cell_fn=poison_cell)
        assert second.ok
        counts = second.manifest.counts()
        assert counts["cached"] == 2 and counts["done"] == 2
        # The healthy cells ran exactly once, across both campaigns.
        for cell in spec:
            assert invocations(cell) == (2 if "poison" in cell.group
                                         else 1)
        saved = RunManifest.load(manifest_path)
        assert saved.finished and saved.complete

    def test_kill_minus_nine_then_resume(self, tmp_path, scratch):
        """SIGKILL a live campaign; a resumed run computes only the cells
        the dead one never finished."""
        cache = tmp_path / "cache"
        manifest_path = tmp_path / "manifest.json"
        repo_root = Path(__file__).resolve().parents[2]
        script = textwrap.dedent(f"""
            import sys
            sys.path[:0] = [{str(repo_root / 'src')!r}, {str(repo_root)!r}]
            from repro.campaign import run_campaign
            from tests.campaign._fakes import fake_spec, slow_after_first
            run_campaign(fake_spec(3, group_prefix="k"),
                         cache={str(cache)!r},
                         manifest_path={str(manifest_path)!r},
                         cell_fn=slow_after_first)
        """)
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ))
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if len(ResultCache(cache)) >= 1:   # cell k0 is durable
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign exited before it could be "
                                f"killed (rc={proc.returncode})")
                time.sleep(0.05)
            else:
                pytest.fail("first cell never reached the cache")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        assert len(ResultCache(cache)) == 1
        interrupted = RunManifest.load(manifest_path)
        assert not interrupted.finished

        spec = fake_spec(3, group_prefix="k")
        resumed = run_campaign(spec, cache=cache,
                               manifest_path=manifest_path,
                               cell_fn=tracking_cell)
        assert resumed.ok
        counts = resumed.manifest.counts()
        assert counts["cached"] == 1 and counts["done"] == 2
        assert [invocations(cell) for cell in spec] == [0, 1, 1]


class TestExecuteCell:
    def test_runs_a_real_cell(self):
        spec = CampaignSpec.matrix(TinyScale(), ["array"], ["scue"])
        result = execute_cell(spec.cells[0])
        assert result.workload == "array"
        assert result.scheme == "scue"
        assert result.cycles > 0


class TestCampaignResult:
    def test_iter_results_spec_order_complete_only(self):
        spec = fake_spec(3)
        outcome = run_campaign(spec, cell_fn=ok_cell)
        outcome.results.pop(1)
        assert [c.group for c, _ in outcome.iter_results()] == \
            ["cell0", "cell2"]

    def test_make_result_matches_real_schema(self):
        from repro.sim.results import RunResult
        fake = make_result(fake_spec(1).cells[0])
        assert RunResult.from_dict(fake.to_dict()) == fake
