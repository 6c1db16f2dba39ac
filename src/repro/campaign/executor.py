"""The campaign executor: run a declared cell grid, resumably.

Two modes share all bookkeeping:

* ``jobs == 1`` — the graceful serial fallback: cells run in-process in
  spec order, exceptions optionally propagate unchanged (``fail_fast``),
  nothing forks.  This is the path unit tests and the classic
  ``run_matrix`` call take, so parallelism can never perturb them.
  With the default cell function it also runs one pass per *row*: the
  consecutive cells that share a trace (one workload of a matrix or a
  hash sweep) build that trace once, and the first of them the epoch
  engine runs records what the CPU caches returned, which the row's
  later cells with the same caches and warm-up replay (:class:`GridRow`).
  A replayed ``System`` never leaves :meth:`GridRow.run`.
* ``jobs > 1`` — up to ``jobs`` threads each run one cell at a time
  through :func:`run_cell`, the one supervisor of a forked cell (which
  ``repro-sim serve`` calls too): a per-cell ``timeout`` kills hung
  workers, transient worker deaths and cell errors are retried with
  exponential backoff, and the manifest is kept current after every
  transition — so ``kill -9`` of the whole campaign loses at most the
  cells in flight.  Each forked cell runs alone: the pool shares no
  row.

Completed cells go to the :class:`~repro.campaign.cache.ResultCache`
(when one is given) *before* the manifest records them done; resume is
therefore driven by the cache, and the manifest is pure provenance.

Workers are handed the :class:`CellSpec` itself, never live simulator
state: the cell function rebuilds workload and system from the spec, so
results are identical whichever process — or campaign invocation —
computes them.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

from repro.campaign.cache import ResultCache, cell_key
from repro.campaign.manifest import (
    CACHED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    CellRecord,
    RunManifest,
)
from repro.campaign.progress import NullReporter, ProgressReporter
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.errors import CampaignError
from repro.sim.driver import run_workload
from repro.sim.results import RunResult
from repro.sim.system import System
from repro.workloads import make_workload

CellFn = Callable[[CellSpec], RunResult]


def execute_cell(cell: CellSpec) -> RunResult:
    """The real cell function: one workload on one config, from scratch.

    Mirrors the classic serial harness exactly — ``record()`` when the
    workload caches its trace, a fresh generator otherwise — so a cell
    run here is bit-identical to one run by the old in-process loop.  It
    keeps nothing between calls.  A serial campaign runs its cells
    through :meth:`GridRow.run` instead, which shares the row's trace
    and records or replays the row's CPU-cache pass; a replaying cell's
    ``System`` keeps empty CPU caches and never leaves that call, which
    returns only the ``RunResult``, bit-identical to this function's.
    """
    return run_workload(cell.config, trace_of(cell),
                        workload_name=cell.workload,
                        warmup_accesses=cell.warmup_accesses)


def trace_of(cell: CellSpec) -> list:
    """The cell's access trace: ``record()`` when the workload caches
    its trace, the generator's output otherwise."""
    workload = make_workload(cell.workload, cell.config.data_capacity,
                             cell.operations, seed=cell.seed)
    return workload.record() if hasattr(workload, "record") \
        else list(workload.trace())


class GridRow:
    """The row one serial campaign is in: the run of consecutive cells
    that share a trace, which ``CampaignSpec.matrix`` and ``.hash_sweep``
    emit back to back for each workload.

    It holds at most one row: the trace of the last cell run, keyed by
    ``(workload, data_capacity, operations, seed)``, and the
    :class:`~repro.sim.epoch.CachePass` of that trace under one
    ``(HierarchyConfig, warmup_accesses)``.  The schemes differ only
    behind the memory controller, so the CPU caches return the same
    misses and writebacks in every cell of a row.  The first cell the
    epoch engine can run records that pass while it runs the caches;
    each later one with the same hierarchy and warm-up replays it
    instead.  A cell the engine cannot run (``bmt-eager``,
    ``leaf_write_through=False``, ...) shares only the trace.  A pass is
    kept only once its cell has returned, so a raising cell leaves no
    record and the next eligible cell records instead.

    ``run_campaign(jobs=1)`` runs :meth:`run` in place of its default
    cell function, :func:`execute_cell`; nothing else does, so parallel
    workers and ``repro-sim serve`` run each cell alone.
    """

    def __init__(self) -> None:
        self.trace_key: tuple | None = None
        self.trace: list | None = None
        self.pass_key: tuple | None = None
        self.cache_pass = None

    def run(self, cell: CellSpec) -> RunResult:
        """:func:`execute_cell`, sharing this row's trace and pass."""
        # Lazy, as in System.run: the engine pulls in every scheme.
        from repro.sim import epoch

        trace_key = (cell.workload, cell.config.data_capacity,
                     cell.operations, cell.seed)
        if trace_key != self.trace_key:
            # Let go of the old row before building the next trace.
            self.trace_key = self.trace = self.pass_key = \
                self.cache_pass = None
            self.trace = trace_of(cell)
            self.trace_key = trace_key
        system = System(cell.config)
        if epoch.ineligible_reason(system) is not None:
            return run_workload(cell.config, self.trace,
                                workload_name=cell.workload,
                                warmup_accesses=cell.warmup_accesses,
                                system=system)
        pass_key = (cell.config.hierarchy, cell.warmup_accesses)
        replay = self.cache_pass if pass_key == self.pass_key else None
        record = epoch.CachePass() if replay is None else None
        engine = epoch.EpochEngine(system, record=record, replay=replay)
        # run_workload's warm-up split, on one engine across both runs.
        rows = iter(self.trace)
        if cell.warmup_accesses:
            engine.run(islice(rows, cell.warmup_accesses))
            system.reset_stats()
        engine.run(rows)
        result = system.result(cell.workload)
        if record is not None:
            self.pass_key, self.cache_pass = pass_key, record
        return result


@dataclass
class CampaignResult:
    """What a campaign invocation produced."""

    spec: CampaignSpec
    manifest: RunManifest
    #: Cell index → result, for every complete (done or cached) cell.
    results: dict[int, RunResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.manifest.complete

    def iter_results(self) -> Iterator[tuple[CellSpec, RunResult]]:
        """(cell, result) pairs in *spec* order, complete cells only."""
        for index, cell in enumerate(self.spec.cells):
            if index in self.results:
                yield cell, self.results[index]

    def raise_on_failure(self) -> None:
        failures = self.manifest.failures()
        if failures:
            worst = failures[0]
            raise CampaignError(
                f"{len(failures)} cell(s) failed; first: "
                f"{worst.cell_id}: {_last_line(worst.error)}")


def run_campaign(spec: CampaignSpec, *,
                 jobs: int = 1,
                 cache: ResultCache | str | Path | None = None,
                 manifest_path: str | Path | None = None,
                 timeout: float | None = None,
                 retries: int | None = None,
                 backoff: float = 0.5,
                 fail_fast: bool = False,
                 progress: ProgressReporter | None = None,
                 cell_fn: CellFn = execute_cell) -> CampaignResult:
    """Run every cell of ``spec``; skip cells already in ``cache``.

    ``timeout`` (seconds, per attempt) and transient-death retry only
    apply on the parallel path — a serial cell runs inline and cannot be
    killed.  ``retries`` defaults to 0 serial (in-process exceptions are
    deterministic; re-raise immediately) and 2 parallel (worker death
    can be transient).  ``fail_fast`` re-raises the first permanent
    failure (the original exception when serial, :class:`CampaignError`
    when parallel); otherwise failures are recorded in the manifest and
    the campaign keeps going.
    """
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    if retries is None:
        retries = 0 if jobs == 1 else 2
    progress = progress or NullReporter()
    keys = [cell_key(cell) for cell in spec.cells]
    manifest = RunManifest.for_spec(spec, keys, jobs)
    outcome = CampaignResult(spec, manifest)
    state = _Bookkeeper(spec, manifest, outcome, cache, manifest_path,
                        progress)

    started = time.perf_counter()
    pending = state.resume_from_cache()
    progress.campaign_started(spec.name, len(spec.cells),
                              len(spec.cells) - len(pending), jobs)
    state.save()
    try:
        if jobs == 1:
            if cell_fn is execute_cell:
                cell_fn = GridRow().run
            _run_serial(state, pending, retries, backoff, fail_fast,
                        cell_fn)
        else:
            _run_parallel(state, pending, jobs, timeout, retries, backoff,
                          fail_fast, cell_fn)
    finally:
        manifest.finished = True
        manifest.wall_time = time.perf_counter() - started
        state.save()
        progress.campaign_finished(manifest.counts(), manifest.wall_time)
    return outcome


# ======================================================================
# Shared bookkeeping
# ======================================================================
class _Bookkeeper:
    """Cache lookups, manifest transitions, result collection."""

    def __init__(self, spec: CampaignSpec, manifest: RunManifest,
                 outcome: CampaignResult, cache: ResultCache | None,
                 manifest_path: str | Path | None,
                 progress: ProgressReporter) -> None:
        self.spec = spec
        self.manifest = manifest
        self.outcome = outcome
        self.cache = cache
        self.manifest_path = manifest_path
        self.progress = progress
        self.finished_cells = 0

    def record(self, index: int) -> CellRecord:
        return self.manifest.cells[index]

    def save(self) -> None:
        if self.manifest_path is not None:
            self.manifest.save(self.manifest_path)

    def resume_from_cache(self) -> list[int]:
        """Mark cached cells complete; return the indices left to run."""
        pending: list[int] = []
        for index, cell in enumerate(self.spec.cells):
            cached = self.cache.get(cell) if self.cache else None
            if cached is None:
                pending.append(index)
                continue
            record = self.record(index)
            record.status = CACHED
            record.artifact = self._artifact(cell)
            self.outcome.results[index] = cached
            self.finished_cells += 1
        return pending

    def _artifact(self, cell: CellSpec) -> str:
        if self.cache is None:
            return ""
        return str(self.cache.path_for(cell_key(cell))
                   .relative_to(self.cache.root))

    def mark_running(self, index: int) -> None:
        self.record(index).status = RUNNING
        self.save()

    def mark_done(self, index: int, result: RunResult,
                  wall_time: float) -> None:
        cell = self.spec.cells[index]
        if self.cache is not None:
            self.cache.put(cell, result, wall_time)
        record = self.record(index)
        record.status = DONE
        record.wall_time = wall_time
        record.error = ""
        record.artifact = self._artifact(cell)
        self.outcome.results[index] = result
        self.finished_cells += 1
        self.save()
        self.progress.cell_finished(record, self.finished_cells)

    def mark_failed(self, index: int, error: str) -> None:
        record = self.record(index)
        record.status = FAILED
        record.error = error
        self.finished_cells += 1
        self.save()
        self.progress.cell_finished(record, self.finished_cells)

    def note_retry(self, index: int, attempt: int, error: str) -> None:
        record = self.record(index)
        record.status = PENDING
        record.retries = attempt
        record.error = error
        self.save()


# ======================================================================
# Serial path
# ======================================================================
def _run_serial(state: _Bookkeeper, pending: list[int], retries: int,
                backoff: float, fail_fast: bool, cell_fn: CellFn) -> None:
    for index in pending:
        attempt = 0
        while True:
            state.mark_running(index)
            started = time.perf_counter()
            try:
                result = cell_fn(state.spec.cells[index])
            except Exception as exc:
                error = traceback.format_exc()
                if attempt < retries:
                    attempt += 1
                    state.note_retry(index, attempt, error)
                    time.sleep(_backoff_delay(backoff, attempt))
                    continue
                state.mark_failed(index, error)
                if fail_fast:
                    raise exc
                break
            state.mark_done(index, result,
                            time.perf_counter() - started)
            break


# ======================================================================
# Parallel path: supervisor threads over run_cell
# ======================================================================
def _run_parallel(state: _Bookkeeper, pending_ids: list[int], jobs: int,
                  timeout: float | None, retries: int, backoff: float,
                  fail_fast: bool, cell_fn: CellFn) -> None:
    """Threads that take the next pending cell and record its outcome
    under one lock, sharing one :class:`WorkerSet`.  The first permanent
    failure under ``fail_fast``, an error in a thread or an interrupt
    halts the set: the workers in flight die, their cells stay
    ``running``, no further cell starts, and the first error is raised
    here."""
    lock = threading.Lock()
    pending: deque[int] = deque(pending_ids)
    workers = WorkerSet()
    raised: list[Exception] = []

    def halt(exc: Exception) -> None:
        if not raised:
            raised.append(exc)
        workers.halt()

    def note_retry(index: int, attempt: int, error: str) -> None:
        with lock:
            state.note_retry(index, attempt, error)

    def supervise() -> None:
        try:
            while True:
                with lock:
                    if not pending or workers.halted:
                        return
                    index = pending.popleft()
                    state.mark_running(index)
                try:
                    outcome = run_cell(
                        state.spec.cells[index], cell_fn=cell_fn,
                        timeout=timeout, retries=retries, backoff=backoff,
                        on_retry=partial(note_retry, index),
                        workers=workers)
                except CampaignError as exc:
                    if not exc.error:
                        return      # stopped by a halt: stays running
                    with lock:
                        state.mark_failed(index, exc.error)
                        if fail_fast:
                            halt(exc)
                    continue
                with lock:
                    state.mark_done(index, outcome.result,
                                    outcome.wall_time)
        except Exception as exc:
            with lock:
                halt(exc)

    threads = [threading.Thread(target=supervise, daemon=True)
               for _ in range(min(jobs, len(pending)))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        # A no-op once every thread has ended; after an interrupt it
        # kills the workers in flight, and their threads end at once.
        workers.halt()
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if raised:
        raise raised[0]


# ======================================================================
# The cell supervisor: run_cell is the only code that forks and
# supervises a cell, for parallel campaigns and ``repro.serve`` alike.
# ======================================================================
#: Signals a worker must not handle the way its parent does.
_WORKER_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def _start_worker(proc) -> None:
    """Start ``proc`` with :data:`_WORKER_SIGNALS` blocked in the
    forking thread, so the child begins with them blocked too.

    A worker forked from ``repro-sim serve`` inherits its event loop's
    signal handling: a no-op handler and the loop's wakeup fd.  A
    timeout's SIGTERM would then not stop the worker but reach the
    server through that fd and run the server's shutdown.  Blocked, a
    SIGTERM sent before :func:`_worker_main` has restored the defaults,
    even one sent before the child first runs, waits for them."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
    try:
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


def _worker_main(cell: CellSpec, cell_fn: CellFn, conn) -> None:
    """Worker entry: one cell, one message on its private pipe, exit.
    It first restores the default handling of the signals
    :func:`_start_worker` blocked, then unblocks them."""
    signal.set_wakeup_fd(-1)
    for signum in _WORKER_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    try:
        started = time.perf_counter()
        result = cell_fn(cell)
        conn.send(("ok", result, time.perf_counter() - started))
    except BaseException:
        conn.send(("error", traceback.format_exc(), 0.0))
    finally:
        conn.close()


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


@dataclass(frozen=True)
class CellOutcome:
    """What one supervised cell execution produced."""

    result: RunResult
    wall_time: float
    attempts: int


class WorkerSet:
    """The live worker processes of the :func:`run_cell` calls sharing
    this set (a parallel campaign's, or a serve scheduler's), so that
    their owner can stop without waiting out its cells.  After
    :meth:`halt`, each of those calls fails at once instead of retrying
    its killed worker."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: set = set()
        self._halted = threading.Event()

    @property
    def halted(self) -> bool:
        return self._halted.is_set()

    def start(self, proc) -> None:
        """Start ``proc``; once halted, kill it straight away."""
        with self._lock:
            _start_worker(proc)
            if self._halted.is_set():
                proc.kill()
            else:
                self._live.add(proc)

    def discard(self, proc) -> None:
        with self._lock:
            self._live.discard(proc)

    def sleep(self, seconds: float) -> None:
        """A backoff sleep that :meth:`halt` cuts short."""
        self._halted.wait(seconds)

    def halt(self) -> None:
        """Kill every live worker with SIGKILL: a halt stops the cells
        in flight at once, whatever they are running, and never waits
        for a worker to act on a signal."""
        with self._lock:
            self._halted.set()
            for proc in self._live:
                proc.kill()


def run_cell(cell: CellSpec, *,
             cell_fn: CellFn = execute_cell,
             timeout: float | None = None,
             retries: int | None = None,
             backoff: float = 0.5,
             on_retry: Callable[[int, str], None] | None = None,
             workers: WorkerSet | None = None
             ) -> CellOutcome:
    """Run one cell in a supervised worker process, with retries.

    ``retries`` defaults to 2 (worker death can be transient), a
    ``timeout`` kills the attempt's process, and failed attempts back
    off with :func:`_backoff_delay`, holding the caller's slot.
    ``on_retry`` is called as ``(attempt, error)`` before each backoff
    sleep.  Raises :class:`CampaignError` once the retry budget is
    spent, its ``error`` the last attempt's full text, and at once,
    with no retry and an empty ``error``, when ``workers`` is halted.

    Each worker reports on a *private pipe*, never a shared queue: a
    ``multiprocessing.Queue`` serialises puts through one cross-process
    lock, and a worker killed while holding it would deadlock every
    later put.  A kill can only poison the victim's own pipe.
    """
    if retries is None:
        retries = 2
    if workers is None:
        workers = WorkerSet()
    ctx = _mp_context()
    attempts = 0
    while True:
        attempts += 1
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(cell, cell_fn, child_conn), daemon=True)
        workers.start(proc)
        child_conn.close()
        error: str
        try:
            # Wait on the pipe *and* the process sentinel: a worker
            # that dies without reporting would otherwise block an
            # unbounded pipe poll forever.
            ready = multiprocessing.connection.wait(
                [parent_conn, proc.sentinel], timeout)
            if parent_conn.poll(0):
                kind, payload, wall_time = parent_conn.recv()
                proc.join(5.0)
                if kind == "ok":
                    return CellOutcome(payload, wall_time, attempts)
                error = payload
            elif not ready:
                # Nothing became ready before the deadline (``ready``
                # can only be empty when ``timeout`` is set): kill the
                # attempt.  An exiting worker can close its sentinel
                # before it is reapable, so ``is_alive()`` is not a
                # reliable discriminator here.
                error = (f"cell timed out after {timeout:g}s "
                         f"(attempt killed)")
                proc.terminate()
                proc.join(1.0)
                if proc.is_alive():
                    proc.kill()
                proc.join(5.0)
            else:
                # Exited with an empty pipe: genuine worker death (the
                # exit machinery flushes the pipe first, so a sent
                # result would have been visible above).
                proc.join(5.0)
                error = (f"worker died without reporting "
                         f"(exit code {proc.exitcode})")
        except (EOFError, OSError) as exc:
            error = f"worker channel broke: {exc!r}"
            if proc.is_alive():
                proc.terminate()
            proc.join(5.0)
        finally:
            parent_conn.close()
            workers.discard(proc)
        if workers.halted:
            raise CampaignError(
                f"cell {cell.cell_id} stopped: its workers were halted")
        if attempts > retries:
            raise CampaignError(
                f"cell {cell.cell_id} failed after {attempts} "
                f"attempt(s): {_last_line(error)}", error)
        if on_retry is not None:
            on_retry(attempts, error)
        workers.sleep(_backoff_delay(backoff, attempts))


def _backoff_delay(backoff: float, attempt: int) -> float:
    return min(backoff * (2 ** (attempt - 1)), 30.0)


def _last_line(error: str) -> str:
    lines = [line for line in error.strip().splitlines() if line.strip()]
    return lines[-1] if lines else error
