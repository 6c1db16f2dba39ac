"""In-process HTTP server e2e: routes, dedup economics, streams.

The server runs on a private event loop in a daemon thread; the test
thread drives it through the blocking :class:`ServeClient`, exactly the
way the CLI does — so these tests cover the full wire path (request
parsing, routing, JSON envelopes, NDJSON/SSE streaming) without
spawning a subprocess.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.serve import api, workers
from repro.serve.app import ServeConfig, ServerApp
from repro.serve.client import ClientError, ServeClient, discover_url
from repro.serve.events import encode_ndjson, encode_sse

from tests.campaign._fakes import (
    fake_cells,
    fake_spec,
    make_result,
    ok_cell,
    poison_cell,
    raising_cell,
)


@contextmanager
def serving(tmp_path, cell_fn=ok_cell, **overrides):
    """A live ServerApp on a background loop + a client for it."""
    settings = dict(root=str(tmp_path / "serve"), port=0, slots=2,
                    backoff=0.01)
    settings.update(overrides)
    config = ServeConfig(**settings)
    app = ServerApp(config, cell_fn=cell_fn)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(app.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield app, ServeClient(f"http://127.0.0.1:{app.port}")
    finally:
        asyncio.run_coroutine_threadsafe(app.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_DIR", str(tmp_path / "markers"))
    (tmp_path / "markers").mkdir()
    return tmp_path


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _get(client: ServeClient, path: str) -> bytes:
    """The raw body of one GET."""
    with urllib.request.urlopen(client.url + path, timeout=30) as response:
        return response.read()


def _mixed_job(app, client) -> str:
    """A finished job with one cached, one computed and one failed cell
    (run with ``poison_cell``); returns its id."""
    cached, done = fake_cells(2)
    failed = fake_cells(1, group_prefix="poison")[0]
    app.store.put(cached, make_result(cached))
    spec = CampaignSpec("mixed", (cached, done, failed))
    return client.wait(client.submit(spec.to_dict())["job_id"],
                       timeout=60)["job_id"]


class TestRoutes:
    def test_healthz(self, scratch):
        with serving(scratch) as (app, client):
            health = client.health()
            assert health["status"] == "ok"
            assert health["store"]["journal_mode"] == "none"

    def test_unknown_routes_are_404(self, scratch):
        with serving(scratch) as (app, client):
            for path in ("/nope", "/v1/campaigns/job-999999",
                         "/v1/cells/" + "0" * 64):
                with pytest.raises(ClientError) as excinfo:
                    client._request("GET", path)
                assert excinfo.value.status == 404

    def test_malformed_submission_is_400(self, scratch):
        with serving(scratch) as (app, client):
            with pytest.raises(ClientError) as excinfo:
                client.submit({"name": "x", "cells": "nope"})
            assert excinfo.value.status == 400
            assert excinfo.value.payload["error"] == "bad_request"

    def test_non_json_body_is_400(self, scratch):
        with serving(scratch) as (app, client):
            request = urllib.request.Request(
                client.url + "/v1/campaigns", data=b"not json{",
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_malformed_content_length_is_400(self, scratch):
        """A Content-Length that is not a non-negative integer is the
        client's error, not an internal one."""
        with serving(scratch) as (app, client):
            for length in (b"abc", b"-5"):
                with socket.create_connection(("127.0.0.1", app.port),
                                              timeout=10) as sock:
                    sock.sendall(b"POST /v1/campaigns HTTP/1.1\r\n"
                                 b"Content-Length: " + length +
                                 b"\r\n\r\n")
                    reply = b""
                    while chunk := sock.recv(4096):
                        reply += chunk
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), (length, reply)
                assert json.loads(body)["error"] == "bad_request"


class TestSubmitLifecycle:
    def test_cold_then_warm_grid(self, scratch):
        spec = fake_spec(3).to_dict()
        with serving(scratch) as (app, client):
            accepted = client.submit(spec, tenant="alice")
            assert accepted["state"] in (api.JOB_QUEUED, api.JOB_RUNNING,
                                         api.JOB_DONE)
            done = client.wait(accepted["job_id"], timeout=60)
            assert done["state"] == api.JOB_DONE
            assert done["counts"]["done"] == 3

            warm = client.wait(client.submit(spec)["job_id"], timeout=60)
            assert warm["counts"]["cached"] == 3
            stats = client.stats()["scheduler"]["counters"]
            assert stats["cells_computed"] == 3
            assert stats["store_hits"] == 3

    def test_results_and_cell_fetch(self, scratch):
        spec = fake_spec(2)
        with serving(scratch) as (app, client):
            job = client.wait(
                client.submit(spec.to_dict())["job_id"], timeout=60)
            results = client.results(job["job_id"])
            assert [c["state"] for c in results["cells"]] == \
                [api.CELL_DONE] * 2
            entry = client.fetch_cell(results["cells"][0]["key"])
            assert entry["key"] == results["cells"][0]["key"]
            assert entry["result"] == results["cells"][0]["result"]

    def test_failed_grid_reports_failure(self, scratch):
        with serving(scratch, cell_fn=raising_cell, retries=0) \
                as (app, client):
            job = client.wait(
                client.submit(fake_spec(1).to_dict())["job_id"],
                timeout=60)
            assert job["state"] == api.JOB_FAILED
            assert "boom in" in job["cells"][0]["error"]

    def test_server_results_match_batch_campaign(self, scratch):
        """The acceptance identity: a cell served by the service is
        byte-identical to the same cell from `repro-sim campaign run`."""
        spec = fake_spec(3)
        batch = run_campaign(spec, cell_fn=ok_cell)
        with serving(scratch) as (app, client):
            job = client.wait(
                client.submit(spec.to_dict())["job_id"], timeout=60)
            served = client.results(job["job_id"])
        for index, (cell, result) in enumerate(batch.iter_results()):
            assert _canon(served["cells"][index]["result"]) == \
                _canon(result.to_dict())


class TestStoredBytes:
    """Job results are spliced from the stored entries, and a finished
    job's stream is its history, encoded."""

    def test_results_body_is_canonical_and_spliced(self, scratch):
        with serving(scratch, cell_fn=poison_cell, retries=0) \
                as (app, client):
            job_id = _mixed_job(app, client)
            body = _get(client, f"/v1/campaigns/{job_id}/results")
        document = json.loads(body)
        assert body == (_canon(document) + "\n").encode()
        cells = document["cells"]
        assert [cell["state"] for cell in cells] == \
            [api.CELL_CACHED, api.CELL_DONE, api.CELL_FAILED]
        assert "result" not in cells[2]
        for cell in cells[:2]:
            shard = app.store.path_for(cell["key"]).read_bytes()
            assert cell["result"] == json.loads(shard)["result"]

    def test_finished_streams_are_the_encoded_history(self, scratch):
        with serving(scratch, cell_fn=poison_cell, retries=0) \
                as (app, client):
            job_id = _mixed_job(app, client)
            history = app.bus.history(job_id)
            ndjson = _get(client, f"/v1/campaigns/{job_id}/events")
            sse = _get(client, f"/v1/campaigns/{job_id}/events?format=sse")
        assert ndjson == b"".join(map(encode_ndjson, history))
        assert sse == b"".join(map(encode_sse, history))

    def test_cleaned_cells_are_gone(self, scratch):
        """``repro-sim campaign clean`` on the served directory, after
        the job's results promoted its cells into the hot cache."""
        with serving(scratch) as (app, client):
            job_id = client.wait(
                client.submit(fake_spec(2).to_dict())["job_id"],
                timeout=60)["job_id"]
            keys = [cell["key"] for cell in client.results(job_id)["cells"]]
            assert ResultCache(app.store.base / "cache").clear() == 2
            with pytest.raises(ClientError) as excinfo:
                client.fetch_cell(keys[0])
            assert excinfo.value.status == 404
            body = _get(client, f"/v1/campaigns/{job_id}/results")
        assert body.count(b'"result":null') == 2


class TestQuotasOverHttp:
    def test_quota_exhaustion_is_429(self, scratch):
        with serving(scratch, max_queued_cells=2) as (app, client):
            with pytest.raises(ClientError) as excinfo:
                client.submit(fake_spec(3).to_dict(), tenant="greedy")
            assert excinfo.value.status == 429
            assert excinfo.value.payload["error"] == "quota_exceeded"
            # The rejected tenant can still submit within quota.
            ok = client.submit(fake_spec(2).to_dict(), tenant="greedy")
            assert client.wait(ok["job_id"],
                               timeout=60)["state"] == api.JOB_DONE


class TestEventStreams:
    def test_ndjson_stream_is_schema_valid_and_ordered(self, scratch):
        spec = fake_spec(2).to_dict()
        with serving(scratch) as (app, client):
            job_id = client.submit(spec)["job_id"]
            events = list(client.events(job_id))
        for event in events:
            api.validate_event(event)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert events[0]["event"] == api.EV_JOB_ACCEPTED
        assert events[-1]["event"] == api.EV_JOB_FINISHED
        finished = [e for e in events
                    if e["event"] == api.EV_CELL_FINISHED]
        assert len(finished) == 2
        assert all("obs" in e for e in finished)

    def test_no_follow_returns_history_snapshot(self, scratch):
        spec = fake_spec(1).to_dict()
        with serving(scratch) as (app, client):
            job_id = client.submit(spec)["job_id"]
            client.wait(job_id, timeout=60)
            events = list(client.events(job_id, follow=False))
            assert events[-1]["event"] == api.EV_JOB_FINISHED

    def test_sse_stream_frames(self, scratch):
        spec = fake_spec(1).to_dict()
        with serving(scratch) as (app, client):
            job_id = client.submit(spec)["job_id"]
            client.wait(job_id, timeout=60)
            with urllib.request.urlopen(
                    f"{client.url}/v1/campaigns/{job_id}/events"
                    f"?format=sse", timeout=30) as response:
                assert response.headers["Content-Type"] == \
                    "text/event-stream"
                body = response.read().decode()
        frames = [f for f in body.split("\n\n") if f.strip()]
        assert frames[0].startswith("id: ")
        assert any("event: job_finished" in f for f in frames)


class TestJobRetention:
    def test_a_dropped_job_is_404_on_every_route(self, scratch,
                                                 monkeypatch):
        monkeypatch.setattr(workers, "FINISHED_JOB_RETENTION", 1)
        spec = fake_spec(1).to_dict()
        with serving(scratch) as (app, client):
            old, new = (client.wait(client.submit(spec)["job_id"],
                                    timeout=60)["job_id"]
                        for _ in range(2))
            for suffix in ("", "/results", "/events", "/events?follow=0"):
                with pytest.raises(ClientError) as excinfo:
                    client._request("GET", f"/v1/campaigns/{old}{suffix}")
                assert excinfo.value.status == 404
                _get(client, f"/v1/campaigns/{new}{suffix}")
            assert app.scheduler.counters["jobs"] == 2


class TestDiscovery:
    def test_discovery_write_leaves_no_staging_residue(self, scratch):
        """Regression for the RPL013 burn-down: server.json publishes
        atomically (temp + replace), so the root directory never holds
        a torn or half-staged advertisement."""
        with serving(scratch) as (app, client):
            root = Path(app.config.root)
            assert (root / "server.json").is_file()
            assert not list(root.glob("server.json.*.tmp"))
            assert client.health()["status"] == "ok"

    def test_server_json_roundtrip(self, scratch):
        with serving(scratch) as (app, client):
            url = discover_url(app.config.root)
            assert url == client.url
            assert ServeClient(url).health()["status"] == "ok"
        # stop() withdraws the advertisement.
        with pytest.raises(ClientError, match="no running server"):
            discover_url(app.config.root)
