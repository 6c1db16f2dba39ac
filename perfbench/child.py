"""One timed body or one traced pass, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py '<task JSON>'

``run.py`` starts one of these per timed run, so every run pays the
cold start a ``repro-sim figures`` user pays: the module-level memos of
``repro.cme.counters`` and ``repro.tree.node`` outlive a ``System`` and
would make a second run in one interpreter faster than any user's.
The result is printed as one JSON object on the last stdout line.

A body imports, before its first timed call, only what the user's entry
point has loaded by then: ``repro.bench.harness`` for the figure
workloads, ``repro.crash``/``repro.sim`` for crash-recover.  Everything
the benchmark needs to check outputs (``repro.perf.harness``, which
loads numpy) is imported after the timed calls, so the program's own
lazy imports land in ``wall_s`` as they do for a user.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prepare_fig(task: dict):
    from repro.bench.harness import run_matrix

    from units import grid
    return run_matrix, grid(task["workload"])


def _prepare_crash(task: dict):
    from units import crash_trials, run_trial
    return run_trial, crash_trials(task["seed"])


def fig_body(task: dict) -> dict:
    """``run_matrix`` over one grid with ``jobs=1``, as ``repro-sim
    figures`` runs it.  An operation is one measured trace record."""
    run_matrix, (scale, workloads, schemes) = _prepare_fig(task)
    first = time.monotonic()
    start = time.perf_counter()
    matrix = run_matrix(scale, workloads, schemes, seed=task["seed"])
    wall = time.perf_counter() - start
    from repro.perf.harness import result_digest
    results = [(f"{workload}/{scheme}", result)
               for workload, row in matrix.results.items()
               for scheme, result in row.items()]
    return {"setup_s": first - task["launched"], "wall_s": wall,
            "ops": sum(r.loads + r.stores + r.persists
                       for _, r in results),
            "ops_s": wall, "rss_mib": _rss_mib(),
            "digests": {cell: result_digest(r) for cell, r in results},
            "failures": []}


def crash_body(task: dict) -> dict:
    """Every crash trial and Table I attack through the user's calls.
    An operation is one metadata read inside ``System.recover()``; the
    wall time is the trials' own, without the benchmark's digests."""
    run_trial, trials = _prepare_crash(task)
    first = time.monotonic()
    records = [run_trial(trial, "user") for trial in trials]
    return {"setup_s": first - task["launched"],
            "wall_s": sum(r.times["unit"] for r in records),
            "ops": sum(r.metadata_reads for r in records),
            "ops_s": sum(r.times["crash.recovery"] for r in records),
            "rss_mib": _rss_mib(),
            "digests": {r.unit: r.digest for r in records},
            "failures": [f"{r.unit}: {r.detail}" for r in records
                         if not r.ok]}


def serve_body(task: dict) -> dict:
    from serve import serve_body
    return serve_body(task["seed"], task["trips"], Path(task["workdir"]),
                      probe=task.get("probe", False))


def setup_probe(task: dict) -> dict:
    """Launch to the point where a body would start timing, then stop."""
    if task["workload"] == "serve":
        from serve import Server
        server = Server(Path(task["workdir"]))
        try:
            return {"setup_s": server.start()}
        finally:
            server.stop()
            server.remove()
    if task["workload"] == "crash-recover":
        _prepare_crash(task)
    else:
        _prepare_fig(task)
    return {"setup_s": time.monotonic() - task["launched"]}


def run_pass(task: dict) -> dict:
    """One traced pass (mode ``auto``, ``scalar`` or ``inner``) over a
    grid's cells or the crash trials."""
    import dataclasses

    from tracer import Tracer, calibrate
    from units import GRIDS, crash_trials, fig_cells, run_cell, run_trial
    mode = task["mode"]
    tracer = calibration = None
    if mode == "auto":
        # System.run imports the engine (and numpy) on first use; pay
        # that here so it does not land in one scheme's run time.
        from repro.sim import epoch  # noqa: F401
    elif mode == "inner":
        calibration = calibrate()
        tracer = Tracer()
    if task["units"] in GRIDS:
        units = [(run_cell, cell)
                 for cell in fig_cells(task["units"], task["seed"])]
    else:
        units = [(run_trial, trial) for trial in crash_trials(
            task["seed"], probe=task["units"] == "crash-probe")]
    records = [fn(unit, mode, tracer) for fn, unit in units]
    out = {"records": [dataclasses.asdict(r) for r in records],
           "calibration": calibration}
    if tracer is not None:
        out["sites"] = tracer.site_table()
        out["layers"] = tracer.snapshot()
        out["spans"] = tracer.spans
    return out


def local_digests(task: dict) -> dict:
    """The grid computed in this process, cell by cell."""
    from repro.campaign.executor import execute_cell
    from repro.perf.harness import result_digest

    from units import fig_cells
    return {"digests": {cell.cell_id: result_digest(execute_cell(cell))
                        for cell in fig_cells(task["grid"], task["seed"])}}


BODIES = {"fig-persist": fig_body, "fig-spec": fig_body,
          "crash-recover": crash_body, "serve": serve_body}
TASKS = {"body": lambda task: BODIES[task["workload"]](task),
         "serve-body": serve_body, "setup": setup_probe, "pass": run_pass,
         "local": local_digests}

if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    print(json.dumps(TASKS[request["task"]](request)))
