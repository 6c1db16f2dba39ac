"""Worker semantics: the service's per-cell contract must equal the
batch executor's — same retry budget, same backoff curve, same
timeout-kill, same failure message shape."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import signal
import socket
import threading
import time

import pytest

from repro.campaign.executor import WorkerSet, _backoff_delay, run_cell
from repro.errors import CampaignError
from repro.serve import api
from repro.serve.events import EventBus
from repro.serve.quotas import QuotaPolicy
from repro.serve import workers
from repro.serve.storage import CampaignStore
from repro.serve.workers import Scheduler

from tests.campaign._fakes import (
    dying_once_cell,
    fake_cells,
    fake_spec,
    ok_cell,
    pair_cell,
    poison_cell,
    raising_cell,
    sleeping_cell,
    tracking_cell,
    invocations,
)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path / "markers"))
    (tmp_path / "markers").mkdir()
    return tmp_path


# ======================================================================
# run_cell: the executor seam the service inherits
# ======================================================================
class TestRunCellParity:
    def test_success_first_attempt(self, scratch):
        cell = fake_cells(1)[0]
        outcome = run_cell(cell, cell_fn=ok_cell)
        assert outcome.attempts == 1
        assert outcome.result.workload == cell.workload
        assert outcome.wall_time >= 0.0

    def test_transient_death_retried_like_parallel_path(self, scratch):
        """A worker that dies without reporting is retried — the
        parallel campaign's transient-death semantics."""
        cell = fake_cells(1)[0]
        outcome = run_cell(cell, cell_fn=dying_once_cell, backoff=0.01)
        assert outcome.attempts == 2

    def test_default_retry_budget_matches_parallel_default(self, scratch):
        """retries defaults to 2 (the jobs>1 default in run_campaign):
        a deterministic failure is attempted exactly 3 times."""
        cell = fake_cells(1)[0]
        with pytest.raises(CampaignError) as excinfo:
            run_cell(cell, cell_fn=raising_cell, backoff=0.01)
        message = str(excinfo.value)
        assert "failed after 3 attempt(s)" in message
        # Message ends with the traceback's last line, like the
        # parallel path's CampaignError.
        assert "boom in" in message

    def test_timeout_kills_attempt(self, scratch):
        cell = fake_cells(1)[0]
        started = time.perf_counter()
        with pytest.raises(CampaignError) as excinfo:
            run_cell(cell, cell_fn=sleeping_cell, timeout=0.3,
                     retries=0, backoff=0.01)
        assert time.perf_counter() - started < 30.0
        assert "timed out after 0.3s" in str(excinfo.value)

    def test_on_retry_reports_each_attempt(self, scratch):
        cell = fake_cells(1)[0]
        seen: list[int] = []
        with pytest.raises(CampaignError):
            run_cell(cell, cell_fn=raising_cell, retries=2,
                     backoff=0.01,
                     on_retry=lambda attempt, error: seen.append(attempt))
        assert seen == [1, 2]

    def test_backoff_curve_is_the_executor_curve(self):
        """The service must not invent its own backoff: run_cell sleeps
        _backoff_delay, the very function the parallel path uses."""
        assert _backoff_delay(0.5, 1) == 0.5
        assert _backoff_delay(0.5, 2) == 1.0
        assert _backoff_delay(0.5, 3) == 2.0
        assert _backoff_delay(10.0, 10) == 30.0   # capped

    def test_halt_kills_the_attempt_without_a_retry(self, scratch):
        """A halted worker set kills the live attempt, and the call
        fails at once: the kill is not a transient death to retry."""
        cell = fake_cells(1)[0]
        workers = WorkerSet()
        retried: list[int] = []
        failure: list[BaseException] = []

        def supervise():
            try:
                run_cell(cell, cell_fn=sleeping_cell, retries=2,
                         backoff=0.01, workers=workers,
                         on_retry=lambda attempt, _: retried.append(attempt))
            except CampaignError as exc:
                failure.append(exc)

        thread = threading.Thread(target=supervise)
        thread.start()
        time.sleep(0.5)
        started = time.perf_counter()
        workers.halt()
        thread.join(10.0)
        assert not thread.is_alive()
        assert time.perf_counter() - started < 5.0
        assert retried == []
        assert "halted" in str(failure[0])

    def test_halt_cuts_a_backoff_sleep_short(self, scratch):
        cell = fake_cells(1)[0]
        workers = WorkerSet()
        retried: list[int] = []
        backing_off = threading.Event()
        failure: list[BaseException] = []

        def on_retry(attempt, _):
            retried.append(attempt)
            backing_off.set()

        def supervise():
            try:
                run_cell(cell, cell_fn=raising_cell, retries=2,
                         backoff=30.0, workers=workers, on_retry=on_retry)
            except CampaignError as exc:
                failure.append(exc)

        thread = threading.Thread(target=supervise)
        thread.start()
        # on_retry fires once the first attempt has failed, just before
        # its 30 s backoff sleep: halt only then.
        assert backing_off.wait(30.0)
        started = time.perf_counter()
        workers.halt()
        thread.join(10.0)
        assert not thread.is_alive()
        assert time.perf_counter() - started < 5.0
        assert retried == [1]
        assert "halted" in str(failure[0])

    def test_a_killed_worker_never_signals_through_its_parent(
            self, scratch):
        """A server's event loop turns SIGTERM into a byte on a wakeup
        fd, which a forked worker inherits.  Killing a timed-out worker
        must write nothing there, even when the kill lands before the
        worker has run at all (a 1 ms timeout)."""
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            for _ in range(5):
                with pytest.raises(CampaignError, match="timed out"):
                    run_cell(fake_cells(1)[0], cell_fn=sleeping_cell,
                             timeout=0.001, retries=0)
        finally:
            signal.signal(signal.SIGTERM, previous)
            signal.set_wakeup_fd(previous_fd)
        try:
            with pytest.raises(BlockingIOError):
                reader.recv(16)
        finally:
            reader.close()
            writer.close()

    def test_zero_retries_single_attempt(self, scratch):
        cell = fake_cells(1)[0]
        with pytest.raises(CampaignError) as excinfo:
            run_cell(cell, cell_fn=raising_cell, retries=0, backoff=0.01)
        assert "failed after 1 attempt(s)" in str(excinfo.value)


# ======================================================================
# Scheduler: dedup + fairness over the pool
# ======================================================================
def _run(coro):
    return asyncio.run(coro)


async def _with_scheduler(tmp_path, coro_fn, *, slots=2, policy=None,
                          cell_fn=ok_cell, timeout=None, retries=None):
    store = CampaignStore(tmp_path / "store")
    bus = EventBus()
    scheduler = Scheduler(store, bus, slots=slots, policy=policy,
                          cell_fn=cell_fn, timeout=timeout,
                          retries=retries, backoff=0.01)
    await scheduler.start()
    try:
        return await coro_fn(scheduler, store, bus)
    finally:
        await scheduler.stop()
        store.close()


class TestSchedulerDedup:
    def test_store_hit_costs_no_compute(self, scratch):
        async def body(scheduler, store, bus):
            spec = fake_spec(3)
            job1 = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job1.done.wait(), 30)
            computed = scheduler.counters["cells_computed"]
            job2 = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job2.done.wait(), 30)
            assert scheduler.counters["cells_computed"] == computed
            assert job2.view.counts()["cached"] == 3
            assert job2.view.state == api.JOB_DONE
        _run(_with_scheduler(scratch, body))

    def test_inflight_dedup_single_execution(self, scratch):
        """Two jobs racing on the same cells share one execution."""
        async def body(scheduler, store, bus):
            spec = fake_spec(2)
            job1 = scheduler.submit(
                api.SubmitRequest(tenant="a", spec=spec))
            job2 = scheduler.submit(
                api.SubmitRequest(tenant="b", spec=spec))
            await asyncio.wait_for(job1.done.wait(), 30)
            await asyncio.wait_for(job2.done.wait(), 30)
            for cell in spec.cells:
                assert invocations(cell) == 1
            assert scheduler.counters["inflight_hits"] == 2
            assert job2.view.state == api.JOB_DONE
        _run(_with_scheduler(scratch, body, cell_fn=tracking_cell))

    def test_failed_cell_fails_job_but_not_others(self, scratch):
        async def body(scheduler, store, bus):
            spec = fake_spec(2)
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job.done.wait(), 30)
            assert job.view.state == api.JOB_FAILED
            counts = job.view.counts()
            assert counts["failed"] == 2
            events = bus.history(job.view.job_id)
            finished = [e for e in events
                        if e["event"] == api.EV_CELL_FINISHED]
            assert all(e["status"] == api.CELL_FAILED for e in finished)
            assert all("boom in" in e["error"] for e in finished)
        _run(_with_scheduler(scratch, body, cell_fn=raising_cell,
                             retries=0))


class TestSchedulerAwaitDiscipline:
    """The scheduler's bookkeeping is atomic only between awaits: a
    count read before ``_run_task`` awaits its cell and written back
    after it loses the updates other tasks made meanwhile.  Once every
    job is done, each ledger must read zero again."""

    def test_overlapping_jobs_come_to_rest(self, scratch):
        async def body(scheduler, store, bus):
            shared = fake_spec(8)
            others = fake_spec(2, group_prefix="other")
            poisoned = fake_spec(2, group_prefix="poison")
            jobs = [scheduler.submit(api.SubmitRequest(tenant=tenant,
                                                       spec=spec))
                    for tenant, spec in (("a", shared), ("b", shared),
                                         ("c", others), ("c", poisoned))]

            async def until_rest():
                peak = 0
                while not all(job.done.is_set() for job in jobs):
                    peak = max(peak, scheduler.describe()["running"])
                    await asyncio.sleep(0)
                return peak

            peak = await asyncio.wait_for(until_rest(), 60)
            described = scheduler.describe()
            assert (described["running"], described["queued"],
                    described["inflight"]) == (0, 0, 0)
            assert peak <= scheduler.slots
            assert scheduler.quotas.snapshot() == {}
            assert scheduler.counters["cells_computed"] == 10
            assert scheduler.counters["cells_failed"] == 2
            for cell in shared.cells + others.cells:
                assert invocations(cell) == 1
            assert [job.view.state for job in jobs] == [
                api.JOB_DONE, api.JOB_DONE, api.JOB_DONE, api.JOB_FAILED]
        _run(_with_scheduler(scratch, body, cell_fn=poison_cell,
                             retries=0))

    def test_a_same_tenant_pair_releases_its_quota(self, scratch):
        """``pair_cell`` holds each cell until both have started, so
        the tenant still has two cells running when the first ends."""
        async def body(scheduler, store, bus):
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=fake_spec(2)))
            await asyncio.wait_for(job.done.wait(), 60)
            assert job.view.state == api.JOB_DONE
            assert scheduler.quotas.snapshot() == {}
            assert scheduler.describe()["running"] == 0
        _run(_with_scheduler(scratch, body, cell_fn=pair_cell))


class TestJobRetention:
    def test_finished_jobs_beyond_the_limit_are_dropped(self, scratch,
                                                        monkeypatch):
        monkeypatch.setattr(workers, "FINISHED_JOB_RETENTION", 2)

        async def body(scheduler, store, bus):
            ids = []
            for _ in range(4):
                job = scheduler.submit(
                    api.SubmitRequest(tenant="t", spec=fake_spec(1)))
                await asyncio.wait_for(job.done.wait(), 30)
                ids.append(job.view.job_id)
            assert list(scheduler.jobs) == ids[2:]
            for job_id in ids[:2]:
                with pytest.raises(api.NotFoundError):
                    scheduler.job(job_id)
                assert bus.history(job_id) == []
            assert bus.stats()["jobs_tracked"] == 2
            assert bus.stats()["jobs_closed"] == 2
            # Cumulative counters keep counting dropped jobs.
            assert scheduler.counters["jobs"] == 4
            assert scheduler.counters["cells_submitted"] == 4
        _run(_with_scheduler(scratch, body))

    def test_an_open_stream_of_a_dropped_job_still_ends(self, scratch,
                                                        monkeypatch):
        monkeypatch.setattr(workers, "FINISHED_JOB_RETENTION", 0)

        async def body(scheduler, store, bus):
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=fake_spec(2)))
            job_id = job.view.job_id
            subscription = bus.subscribe(job_id)
            await asyncio.wait_for(job.done.wait(), 30)
            assert job_id not in scheduler.jobs
            events = []
            while not events or events[-1] is not None:
                events += await asyncio.wait_for(
                    subscription.next_batch(), 30)
            subscription.close()
            assert events[-2]["event"] == api.EV_JOB_FINISHED
        _run(_with_scheduler(scratch, body))


class TestSchedulerQuotas:
    def test_running_quota_caps_concurrency(self, scratch):
        """A tenant capped at 1 running cell never occupies both
        slots, even with the pool idle."""
        async def body(scheduler, store, bus):
            spec = fake_spec(4)
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            peak = 0
            while not job.done.is_set():
                peak = max(peak,
                           scheduler.quotas.usage("t")["running"])
                await asyncio.sleep(0.005)
            assert peak == 1
        policy = QuotaPolicy(max_running_cells=1)
        _run(_with_scheduler(scratch, body, policy=policy,
                             cell_fn=tracking_cell))

    def test_submit_past_queue_quota_raises_429(self, scratch):
        async def body(scheduler, store, bus):
            with pytest.raises(api.ServeError) as excinfo:
                scheduler.submit(api.SubmitRequest(
                    tenant="t", spec=fake_spec(5)))
            assert excinfo.value.status == 429
            # The rejected job charged nothing and left no state.
            assert scheduler.quotas.usage("t")["queued"] == 0
            assert len(scheduler.jobs) == 0
        policy = QuotaPolicy(max_queued_cells=4)
        _run(_with_scheduler(scratch, body, policy=policy))

    def test_cached_cells_charge_no_quota(self, scratch):
        """Dedup economics: resubmitting a fully-cached grid admits
        even when the quota would reject it as fresh compute."""
        async def body(scheduler, store, bus):
            spec = fake_spec(4)
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job.done.wait(), 30)
            # Queue quota is 4; a second 4-cell job fits only because
            # its cells are all cache hits (charge 0).
            scheduler.submit(api.SubmitRequest(tenant="t", spec=spec))
            with pytest.raises(api.ServeError):
                scheduler.submit(api.SubmitRequest(
                    tenant="t", spec=fake_spec(5, group_prefix="new")))
        policy = QuotaPolicy(max_queued_cells=4)
        _run(_with_scheduler(scratch, body, policy=policy))


class TestSchedulerTimeouts:
    def test_timeout_fails_cell_with_executor_message(self, scratch):
        async def body(scheduler, store, bus):
            spec = fake_spec(1)
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job.done.wait(), 60)
            assert job.view.state == api.JOB_FAILED
            assert "timed out after 0.3s" in job.view.cells[0].error
        _run(_with_scheduler(scratch, body, cell_fn=sleeping_cell,
                             timeout=0.3, retries=0))


class TestSchedulerStop:
    def test_stop_kills_the_cell_in_flight(self, scratch):
        """Stopping with a cell running returns promptly: the cell's
        worker is killed (its supervising thread would otherwise keep
        ``asyncio.run`` waiting for the whole cell) and the cell reads
        as failed by the shutdown."""
        seen: dict = {}

        async def main():
            store = CampaignStore(scratch / "store")
            scheduler = Scheduler(store, EventBus(), slots=1,
                                  cell_fn=sleeping_cell, backoff=0.01)
            await scheduler.start()
            before = {proc.pid for proc in multiprocessing.active_children()}
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=fake_spec(1)))
            while job.view.cells[0].state != api.CELL_RUNNING:
                await asyncio.sleep(0.05)
            await asyncio.sleep(1.5)
            seen["workers"] = [
                proc for proc in multiprocessing.active_children()
                if proc.pid not in before]
            await scheduler.stop()
            store.close()
            return job

        started = time.perf_counter()
        job = asyncio.run(main())
        assert time.perf_counter() - started < 10.0
        assert len(seen["workers"]) == 1
        assert not any(proc.is_alive() for proc in seen["workers"])
        assert job.view.cells[0].state == api.CELL_FAILED
        assert job.view.cells[0].error == "server shutting down"
        assert job.view.state == api.JOB_FAILED


class TestJobResultsOffload:
    """Regression for the RPL014 burn-down: ``job_results`` is async
    (store payload reads happen in a worker thread, off the loop) and
    still returns every completed payload in spec order, as the JSON
    body the route sends."""

    def test_job_results_is_a_coroutine_function(self):
        # Reverting to a sync method would put disk reads back
        # on the event loop; the route in app.py awaits it.
        assert asyncio.iscoroutinefunction(Scheduler.job_results)

    def test_payloads_in_spec_order(self, scratch):
        async def body(scheduler, store, bus):
            spec = fake_spec(3)
            job = scheduler.submit(
                api.SubmitRequest(tenant="t", spec=spec))
            await asyncio.wait_for(job.done.wait(), 30)
            results = json.loads(
                await scheduler.job_results(job.view.job_id))
            assert results["state"] == api.JOB_DONE
            assert [c["cell_id"] for c in results["cells"]] == \
                [cell.cell_id for cell in spec.cells]
            assert all("result" in c for c in results["cells"])
        _run(_with_scheduler(scratch, body))
