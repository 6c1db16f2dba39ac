"""The asyncio scheduler + bounded worker pool.

One :class:`Scheduler` owns the whole execution side of the service:

* **dedup** — a submitted cell is satisfied, in order of preference,
  by an *in-flight* task computing the same key (attach as a waiter),
  by the shared :class:`~repro.serve.storage.CampaignStore` (cache
  hit, zero compute), or by a new :class:`CellTask` pushed to the
  fair queue.  Checking in-flight before the store closes the window
  where a cell completes between the two checks: an in-flight waiter
  is always notified, and a store hit is always durable.
* **fairness + quotas** — tasks are drawn round-robin across tenants
  (:class:`~repro.serve.queue.FairQueue`) with the tenant's
  running-cell quota as the eligibility check, so the pool can never
  be monopolized.
* **execution** — each task runs through
  :func:`repro.campaign.executor.run_cell` in a worker thread
  (``asyncio.to_thread``), which supervises a real worker process
  with exactly the batch executor's timeout-kill, transient-death
  retry and exponential-backoff semantics.  At most ``slots`` tasks
  run at once.

All bookkeeping mutations happen on the event-loop thread (submission
is loop-synchronous, completion resumes on the loop), so the scheduler
needs no locks; only ``run_cell`` and ``store.put`` leave the loop.

Finished jobs are retained only up to :data:`FINISHED_JOB_RETENTION`;
past that the oldest finished job is dropped, and its routes answer 404.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any

from repro.campaign.executor import CellFn, WorkerSet, execute_cell, run_cell
from repro.errors import CampaignError
from repro.serve import api
from repro.serve.events import EventBus, result_obs_summary
from repro.serve.queue import CellTask, FairQueue
from repro.serve.quotas import QuotaPolicy, TenantQuotas
from repro.serve.storage import CampaignStore
from repro.campaign.cache import canonical_json, cell_key

#: Most recent finished jobs kept answerable.  Finishing one more drops
#: the oldest finished job from ``Scheduler.jobs`` and its event history
#: from the bus, so a long-running server's memory stays bounded.
FINISHED_JOB_RETENTION = 256


class Job:
    """One submission's live bookkeeping."""

    def __init__(self, view: api.JobView) -> None:
        self.view = view
        self.done = asyncio.Event()
        self._started = time.perf_counter()

    @property
    def finished(self) -> bool:
        return self.view.state in (api.JOB_DONE, api.JOB_FAILED)

    def complete_if_ready(self) -> bool:
        if self.finished:
            return False
        if any(cell.state in (api.CELL_WAITING, api.CELL_RUNNING)
               for cell in self.view.cells):
            return False
        failed = any(cell.state == api.CELL_FAILED
                     for cell in self.view.cells)
        self.view.state = api.JOB_FAILED if failed else api.JOB_DONE
        self.view.wall_time = time.perf_counter() - self._started
        self.done.set()
        return True


class Scheduler:
    """Owns jobs, the fair queue, the quota ledger and the pool."""

    def __init__(self, store: CampaignStore, bus: EventBus, *,
                 slots: int = 2,
                 timeout: float | None = None,
                 retries: int | None = None,
                 backoff: float = 0.5,
                 policy: QuotaPolicy | None = None,
                 cell_fn: CellFn = execute_cell) -> None:
        self.store = store
        self.bus = bus
        self.slots = max(1, slots)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.quotas = TenantQuotas(policy)
        self.queue = FairQueue()
        self.jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self.inflight: dict[str, CellTask] = {}
        self.cell_fn = cell_fn
        self._job_seq = 0
        self._running = 0
        self._wake = asyncio.Event()
        self._stopping = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pump: asyncio.Task | None = None
        self._cell_tasks: set[asyncio.Task] = set()
        self._workers = WorkerSet()
        self.counters = {"jobs": 0, "cells_submitted": 0,
                         "store_hits": 0, "inflight_hits": 0,
                         "cells_computed": 0, "cells_failed": 0}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pump = asyncio.create_task(self._pump_loop(),
                                         name="serve-scheduler")

    async def stop(self) -> None:
        self._stopping = True
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
        cells = list(self._cell_tasks)
        for task in cells:
            task.cancel()
        # Each cancelled cell's thread still supervises its worker, and
        # asyncio.run waits for that thread: kill the workers so the
        # threads return now, not when the cells would have ended.
        self._workers.halt()
        await asyncio.gather(*cells, return_exceptions=True)

    # -- submission (event-loop thread) ---------------------------------
    def submit(self, request: api.SubmitRequest) -> Job:
        if self._stopping:
            raise api.ShuttingDownError("server is shutting down")
        tenant, spec = request.tenant, request.spec
        keys = [cell_key(cell) for cell in spec.cells]
        # Classify every cell up front (submission is loop-synchronous,
        # so the classification cannot change before we act on it):
        # quota admission charges only genuinely new cells, and the
        # job_accepted event can lead the stream with correct counts.
        plan: list[str] = []
        fresh: set[str] = set()
        for key in keys:
            if key in self.inflight or key in fresh:
                plan.append("inflight")
            elif self.store.contains_key(key):
                plan.append("store")
            else:
                plan.append("new")
                fresh.add(key)
        self.quotas.admit_job(tenant, len(fresh))

        self._job_seq += 1
        job_id = f"job-{self._job_seq:06d}"
        view = api.JobView(job_id=job_id, tenant=tenant, name=spec.name,
                           created=time.time(), state=api.JOB_QUEUED,
                           cells=[api.CellView(cell.cell_id, key)
                                  for cell, key in zip(spec.cells, keys)])
        job = Job(view)
        self.jobs[job_id] = job
        self.quotas.job_started(tenant)
        self.counters["jobs"] += 1
        self.counters["cells_submitted"] += len(keys)

        cached = plan.count("store")
        deduped = plan.count("inflight")
        queued = plan.count("new")
        self.bus.publish(job_id, api.EV_JOB_ACCEPTED, tenant=tenant,
                         cells=len(keys), cached=cached,
                         deduped=deduped, queued=queued)
        for index, (cell, key) in enumerate(zip(spec.cells, keys)):
            cell_view = view.cells[index]
            kind = plan[index]
            if kind == "inflight":
                # In-flight dedup: ride the execution already underway.
                task = self.inflight[key]
                task.add_waiter(job_id, index)
                self.counters["inflight_hits"] += 1
                self.bus.publish(job_id, api.EV_CELL_SCHEDULED,
                                 cell_id=cell_view.cell_id, key=key,
                                 dedup="inflight")
                if task.attempts:          # already started
                    cell_view.state = api.CELL_RUNNING
                    self.bus.publish(job_id, api.EV_CELL_STARTED,
                                     cell_id=cell_view.cell_id, key=key)
            elif kind == "store":
                cell_view.state = api.CELL_CACHED
                self.counters["store_hits"] += 1
                self.bus.publish(job_id, api.EV_CELL_SCHEDULED,
                                 cell_id=cell_view.cell_id, key=key,
                                 dedup="store")
                self.bus.publish(job_id, api.EV_CELL_FINISHED,
                                 cell_id=cell_view.cell_id, key=key,
                                 status=api.CELL_CACHED, wall_time=0.0)
            else:
                task = CellTask(key=key, cell=cell, tenant=tenant)
                task.add_waiter(job_id, index)
                self.inflight[key] = task
                self.queue.push(task)
                self.quotas.cell_queued(tenant)
                self.bus.publish(job_id, api.EV_CELL_SCHEDULED,
                                 cell_id=cell_view.cell_id, key=key,
                                 dedup="none")

        if not job.complete_if_ready():
            view.state = api.JOB_RUNNING if deduped or queued \
                else api.JOB_QUEUED
            self._wake.set()
        else:
            self._finish_job(job)
        return job

    # -- the pump: queue -> pool ---------------------------------------
    async def _pump_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._running < self.slots:
                task = self.queue.pop(eligible=self.quotas.can_run)
                if task is None:
                    break
                self._launch(task)

    def _launch(self, task: CellTask) -> None:
        self._running += 1
        self.quotas.cell_started(task.tenant)
        task.attempts = 1
        for job_id, index in task.waiters:
            job = self.jobs[job_id]
            cell_view = job.view.cells[index]
            cell_view.state = api.CELL_RUNNING
            if job.view.state == api.JOB_QUEUED:
                job.view.state = api.JOB_RUNNING
            self.bus.publish(job_id, api.EV_CELL_STARTED,
                             cell_id=cell_view.cell_id, key=task.key)
        runner = asyncio.create_task(self._run_task(task),
                                     name=f"cell-{task.key[:12]}")
        self._cell_tasks.add(runner)
        runner.add_done_callback(self._cell_tasks.discard)

    async def _run_task(self, task: CellTask) -> None:
        loop = asyncio.get_running_loop()

        def on_retry(attempt: int, error: str) -> None:
            # Called from the worker thread; hop back to the loop.
            loop.call_soon_threadsafe(self._note_retry, task, attempt,
                                      error)

        error = ""
        outcome = None
        try:
            outcome = await asyncio.to_thread(
                run_cell, task.cell, cell_fn=self.cell_fn,
                timeout=self.timeout, retries=self.retries,
                backoff=self.backoff, on_retry=on_retry,
                workers=self._workers)
            await asyncio.to_thread(self.store.put, task.cell,
                                    outcome.result, outcome.wall_time)
        except CampaignError as exc:
            error = str(exc)
        except asyncio.CancelledError:
            error = "server shutting down"
        except Exception as exc:  # pragma: no cover - defensive
            error = f"internal error: {exc!r}"
        finally:
            self._running -= 1
            self.quotas.cell_finished(task.tenant)
            self.inflight.pop(task.key, None)
            self._settle(task, outcome, error)
            self._wake.set()

    def _note_retry(self, task: CellTask, attempt: int,
                    error: str) -> None:
        task.attempts = attempt + 1
        last = error.strip().splitlines()[-1] if error.strip() else error
        for job_id, index in task.waiters:
            view = self.jobs[job_id].view.cells[index]
            view.retries = attempt
            self.bus.publish(job_id, api.EV_CELL_RETRY,
                             cell_id=view.cell_id, key=task.key,
                             attempt=attempt, error=last)

    def _settle(self, task: CellTask, outcome, error: str) -> None:
        if outcome is not None:
            self.counters["cells_computed"] += 1
            status, wall = api.CELL_DONE, outcome.wall_time
            summary = result_obs_summary(outcome.result)
        else:
            self.counters["cells_failed"] += 1
            status, wall, summary = api.CELL_FAILED, 0.0, None
        for job_id, index in task.waiters:
            job = self.jobs[job_id]
            cell_view = job.view.cells[index]
            cell_view.state = status
            cell_view.wall_time = wall
            cell_view.error = error
            extra: dict[str, Any] = {"obs": summary} if summary else {}
            if error:
                extra["error"] = error
            self.bus.publish(job_id, api.EV_CELL_FINISHED,
                             cell_id=cell_view.cell_id, key=task.key,
                             status=status, wall_time=wall, **extra)
            if job.complete_if_ready():
                self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        view = job.view
        self.quotas.job_finished(view.tenant)
        self.bus.publish(view.job_id, api.EV_JOB_FINISHED,
                         state=view.state, counts=view.counts(),
                         wall_time=view.wall_time)
        self.bus.close_job(view.job_id)
        self._finished.append(view.job_id)
        while len(self._finished) > FINISHED_JOB_RETENTION:
            dropped = self._finished.popleft()
            del self.jobs[dropped]
            self.bus.forget_job(dropped)

    # -- queries --------------------------------------------------------
    def job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise api.NotFoundError(f"unknown job {job_id!r}")
        return job

    async def job_results(self, job_id: str) -> bytes:
        """The results body: completed cells' stored payloads, in spec
        order.

        The view rows are snapshotted loop-synchronously (no await
        touches them); then one worker-thread hop reads every completed
        cell's entry, so a large job's results never stall the event
        loop."""
        job = self.job(job_id)
        rows = [(cell_view.cell_id, cell_view.key, cell_view.state)
                for cell_view in job.view.cells]
        return await asyncio.to_thread(self._results_body, job_id,
                                       job.view.state, rows)

    def _results_body(self, job_id: str, state: str,
                      rows: list[tuple[str, str, str]]) -> bytes:
        """``canonical_json`` of the results document plus a newline,
        built in its key order around each shard's ``result`` bytes, so
        nothing is decoded or re-encoded.  A completed cell whose shard
        is gone reads ``null``."""
        def text(value: str) -> bytes:
            return canonical_json(value).encode()

        cells = []
        for cell_id, key, cell_state in rows:
            entry = b'{"cell_id":%s,"key":%s,' % (text(cell_id), text(key))
            if cell_state in (api.CELL_CACHED, api.CELL_DONE):
                result = self.store.get_result_raw(key)
                entry += b'"result":%s,' % (result or b"null")
            cells.append(entry + b'"state":%s}' % text(cell_state))
        return b'{"cells":[%s],"job_id":%s,"state":%s}\n' % (
            b",".join(cells), text(job_id), text(state))

    def describe(self) -> dict[str, Any]:
        return {
            "slots": self.slots,
            "running": self._running,
            "queued": len(self.queue),
            "inflight": len(self.inflight),
            "jobs": {
                "total": len(self.jobs),
                "active": sum(1 for j in self.jobs.values()
                              if not j.finished),
            },
            "counters": dict(self.counters),
            "quotas": {
                "policy": {
                    "max_queued_cells":
                        self.quotas.policy.max_queued_cells,
                    "max_running_cells":
                        self.quotas.policy.max_running_cells,
                    "max_active_jobs":
                        self.quotas.policy.max_active_jobs,
                },
                "tenants": self.quotas.snapshot(),
            },
        }
