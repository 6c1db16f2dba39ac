"""The ``serve`` workload: one closed-loop client against a fresh
``repro-sim serve`` subprocess.

The server starts on an empty store with ``nproc - 1`` worker slots (at
least one).  The client submits one cold grid, follows its NDJSON
stream to ``job_finished`` and fetches the results; it then resubmits
the same grid ``trips`` times, each one answered entirely from the
store.  Every trip is timed in three parts: the POST, the stream from
open to ``job_finished``, and the results GET.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.campaign.cache import cell_key
from repro.campaign.spec import CampaignSpec
from repro.perf.harness import result_digest
from repro.serve.api import EV_CELL_FINISHED, EV_JOB_FINISHED
from repro.serve.client import ClientError, ServeClient, discover_url
from repro.serve.storage import CampaignStore
from repro.sim.results import RunResult

from units import fig_cells

HEALTH_TIMEOUT_S = 60.0
#: Warm results are compared with the cold ones on every n-th trip,
#: outside the timed interval.
CHECK_EVERY = 10


def worker_slots() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


class Server:
    """A ``repro-sim serve`` subprocess on a store of its own."""

    def __init__(self, workdir: Path) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        self.proc: subprocess.Popen | None = None
        self.client: ServeClient | None = None

    def start(self) -> float:
        """Spawn the server; return seconds until ``/healthz`` answers."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--dir", str(self.root), "--port", "0",
             "-j", str(worker_slots())],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = started + HEALTH_TIMEOUT_S
        while True:
            try:
                self.client = ServeClient(discover_url(self.root),
                                          timeout=HEALTH_TIMEOUT_S)
                self.client.health()
                return time.perf_counter() - started
            except ClientError:
                if self.proc.poll() is not None \
                        or time.perf_counter() > deadline:
                    raise RuntimeError(
                        f"repro-sim serve did not answer /healthz "
                        f"(exit code {self.proc.poll()})") from None
                time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        """The server process's peak resident set (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict[str, float]:
        """Unlabelled samples of ``/v1/metrics``."""
        with urllib.request.urlopen(self.client.url + "/v1/metrics",
                                    timeout=HEALTH_TIMEOUT_S) as response:
            text = response.read().decode()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.split()
                samples[name] = float(value)
        return samples

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _round_trip(client: ServeClient, spec: dict) -> dict:
    """One submit -> ``job_finished`` -> results trip, timed in parts."""
    start = time.perf_counter()
    job_id = client.submit(spec)["job_id"]
    submitted = time.perf_counter()
    cell_s, finished = 0.0, None
    for event in client.events(job_id):
        if event.get("event") == EV_CELL_FINISHED:
            cell_s += event.get("wall_time", 0.0)
        elif event.get("event") == EV_JOB_FINISHED:
            finished = event
    streamed = time.perf_counter()
    results = client.results(job_id)
    done = time.perf_counter()
    return {"submit_s": submitted - start, "events_s": streamed - submitted,
            "results_s": done - streamed, "rt_s": done - start,
            "cell_s": cell_s, "finished": finished or {},
            "results": results}


def _digests(results: dict) -> dict[str, str]:
    return {cell["cell_id"]: result_digest(RunResult.from_dict(cell["result"]))
            for cell in results["cells"] if "result" in cell}


def serve_body(seed: int, trips: int, workdir: Path,
               probe: bool = False) -> dict:
    """One timed run of the serve workload, from an empty store."""
    cells = fig_cells("serve-probe" if probe else "serve", seed)
    spec = CampaignSpec("serve", tuple(cells)).to_dict()
    server = Server(workdir)
    try:
        setup_s = server.start()
        cold = _round_trip(server.client, spec)
        digests = _digests(cold["results"])
        failures = [f"cold job ended {cold['finished'].get('state')}"] \
            if cold["finished"].get("state") != "done" else []
        warm = []
        for trip in range(trips):
            result = _round_trip(server.client, spec)
            results = result.pop("results")
            counts = result["finished"].get("counts", {})
            if counts.get("cached") != len(cells):
                failures.append(f"warm trip {trip}: {counts}")
            elif trip % CHECK_EVERY == 0 and _digests(results) != digests:
                failures.append(f"warm trip {trip}: results differ from "
                                f"the cold job's")
            warm.append(result)
        metrics = server.metrics()
        rss_mib = server.peak_rss_mib()
    finally:
        server.stop()
    try:
        store = CampaignStore(server.root)
        fetches = []
        try:
            for cell in cells:
                key = cell_key(cell)
                for _ in range(20):
                    start = time.perf_counter()
                    data = store.get_raw(key)
                    fetches.append(time.perf_counter() - start)
                if data is None:
                    failures.append(f"{cell.cell_id} missing from the "
                                    f"served store")
        finally:
            store.close()
    finally:
        server.remove()
    hits = metrics.get("repro_serve_hot_cache_hits_total", 0.0)
    misses = metrics.get("repro_serve_hot_cache_misses_total", 0.0)
    warm_ms = [r["rt_s"] * 1e3 for r in warm]
    median_ms = statistics.median(warm_ms)
    return {
        "setup_s": setup_s,
        "cold_rt_s": cold["rt_s"],
        "cold_cell_s": cold["cell_s"],
        "wall_s": cold["rt_s"] + sum(warm_ms) / 1e3,
        # Trips per second at the median trip: on two cores a few trips
        # wait out the scheduler, and a mean would follow them.
        "ops": trips,
        "ops_s": trips * median_ms / 1e3,
        "warm_rt_ms_p50": median_ms,
        "warm_rt_ms_p95": statistics.quantiles(warm_ms, n=20)[-1],
        "submit_ms": statistics.median(r["submit_s"] for r in warm) * 1e3,
        "events_ms": statistics.median(r["events_s"] for r in warm) * 1e3,
        "results_ms": statistics.median(r["results_s"] for r in warm) * 1e3,
        "hot_cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "cells_computed": metrics.get("repro_serve_cells_computed_total",
                                      0.0),
        "get_raw_us": statistics.median(fetches) * 1e6,
        "rss_mib": rss_mib,
        "digests": digests,
        "trips": trips,
        "failures": failures,
    }
