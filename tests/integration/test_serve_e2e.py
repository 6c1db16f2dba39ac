"""Service acceptance: real server process, real cells, real kills.

Three flows, all through subprocesses and the public CLI/client:

* cold grid → every cell computes → warm resubmit → zero recomputes,
  and every served result is byte-identical to what
  ``repro-sim campaign run`` produces for the same grid;
* the NDJSON event stream a submission writes validates against the
  published schema;
* SIGKILL the server mid-grid, restart it over the same store → the
  resumed submission computes only the cells the dead server never
  durably finished.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.serve import api
from repro.serve.client import ClientError, ServeClient, discover_url

REPO_ROOT = Path(__file__).resolve().parents[2]
GRID = ["--grid", "matrix", "--scale", "quick",
        "--workloads", "array,btree", "--schemes", "scue,baseline"]


def _cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})


def _wait_for_server(root: Path, proc, timeout=30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited rc={proc.returncode}: "
                f"{proc.stderr.read() if proc.stderr else ''}")
        try:
            url = discover_url(root)
            ServeClient(url, timeout=5).health()
            return url
        except ClientError:
            time.sleep(0.1)
    raise AssertionError("server never became healthy")


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(15)
    for pipe in (proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


@pytest.fixture
def server(tmp_path):
    root = tmp_path / "serve"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dir", str(root),
         "--port", "0", "-j", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    try:
        yield root, _wait_for_server(root, proc)
    finally:
        _stop(proc)


class TestColdWarmIdentity:
    def test_grid_roundtrip_and_batch_identity(self, server, tmp_path):
        root, url = server
        events_file = tmp_path / "events.ndjson"

        cold = _cli("submit", "--dir", str(root), *GRID,
                    "--events", str(events_file))
        assert cold.returncode == 0, cold.stderr
        assert "cache hits: 0/4" in cold.stdout
        assert "computed  : 4" in cold.stdout

        # Warm resubmit: zero recomputed, all four served from store.
        warm = _cli("submit", "--dir", str(root), *GRID)
        assert warm.returncode == 0, warm.stderr
        assert "cache hits: 4/4" in warm.stdout
        assert "computed  : 0" in warm.stdout

        # Every streamed event matches the published NDJSON schema.
        events = [json.loads(line)
                  for line in events_file.read_text().splitlines()]
        assert events, "submission streamed no events"
        for event in events:
            api.validate_event(event)
        assert events[0]["event"] == api.EV_JOB_ACCEPTED
        assert events[-1]["event"] == api.EV_JOB_FINISHED
        assert events[-1]["state"] == api.JOB_DONE

        # The batch CLI over the same grid produces byte-identical
        # result payloads (the server is a cache for `campaign run`,
        # not a different simulator).
        batch_dir = tmp_path / "batch"
        batch = _cli("campaign", "run", *GRID, "--dir", str(batch_dir))
        assert batch.returncode == 0, batch.stderr

        client = ServeClient(url)
        job_id = events[0]["job"]
        served = client.results(job_id)
        assert len(served["cells"]) == 4
        for cell in served["cells"]:
            entry = json.loads(
                (batch_dir / "cache" / "objects" / cell["key"][:2]
                 / f"{cell['key']}.json").read_text())
            assert entry["key"] == cell["key"]
            canon = lambda p: json.dumps(p, sort_keys=True,  # noqa: E731
                                         separators=(",", ":"))
            assert canon(cell["result"]) == canon(entry["result"])

    def test_status_json_of_shared_store(self, server, tmp_path):
        """`campaign status --json` reads the dir a server ran in."""
        root, url = server
        submit = _cli("submit", "--dir", str(root), *GRID)
        assert submit.returncode == 0, submit.stderr
        batch = _cli("campaign", "run", *GRID, "--dir", str(root))
        assert batch.returncode == 0, batch.stderr
        assert "cache hits: 4/4" in batch.stdout
        status = _cli("campaign", "status", str(root), "--json")
        assert status.returncode == 0, status.stderr
        payload = json.loads(status.stdout)
        assert payload["complete"] is True
        assert payload["counts"]["cached"] == 4


def _fake_server_script(root: Path, cell_fn: str) -> str:
    return textwrap.dedent(f"""
        import asyncio, sys
        sys.path[:0] = [{str(REPO_ROOT / 'src')!r}, {str(REPO_ROOT)!r}]
        from repro.serve.app import ServeConfig, run_server
        from tests.campaign._fakes import {cell_fn}
        config = ServeConfig(root={str(root)!r}, port=0, slots=2,
                             backoff=0.01)
        asyncio.run(run_server(config, cell_fn={cell_fn}))
    """)


class TestKillRestartResume:
    def test_sigkill_mid_grid_then_resume(self, tmp_path, monkeypatch):
        """The root-crash-consistency property, lifted to the service:
        kill -9 at an arbitrary instant loses only in-flight cells."""
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv("REPRO_TEST_DIR", str(markers))
        root = tmp_path / "serve"
        env = {**os.environ, "REPRO_TEST_DIR": str(markers)}

        # Generation 1: cell k0 finishes instantly, k1/k2 hang for 30s.
        proc = subprocess.Popen(
            [sys.executable, "-c",
             _fake_server_script(root, "slow_after_first")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            url = _wait_for_server(root, proc)
            from tests.campaign._fakes import fake_spec
            spec = fake_spec(3, group_prefix="k")
            client = ServeClient(url)
            client.submit(spec.to_dict())

            objects = root / "cache" / "objects"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if list(objects.glob("*/*.json")):
                    break               # k0 is durable; k1/k2 in flight
                time.sleep(0.05)
            else:
                pytest.fail("first cell never reached the store")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            _stop(proc)
        assert len(list(objects.glob("*/*.json"))) == 1

        # Generation 2: same store, counting executions this time.
        proc = subprocess.Popen(
            [sys.executable, "-c",
             _fake_server_script(root, "tracking_cell")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            url = _wait_for_server(root, proc)
            client = ServeClient(url)
            from tests.campaign._fakes import fake_spec, invocations
            spec = fake_spec(3, group_prefix="k")
            job = client.submit(spec.to_dict())
            done = client.wait(job["job_id"], timeout=120)
            assert done["state"] == api.JOB_DONE
            assert done["counts"]["cached"] == 1    # k0 survived
            assert done["counts"]["done"] == 2      # k1, k2 recomputed
            # Only the missing cells ran, exactly once each.
            assert [invocations(cell) for cell in spec.cells] == \
                [0, 1, 1]
        finally:
            _stop(proc)
