"""The ``GET /v1/metrics`` Prometheus endpoint.

Unit tests drive :func:`render_metrics` with small stand-in objects to
pin the exposition format (HELP/TYPE headers, sorted labels, escaping);
the e2e test scrapes a live server after a real campaign so the counter
values reflect actual scheduler traffic.
"""

from __future__ import annotations

import re
import urllib.request
from types import SimpleNamespace

from repro.serve.events import EventBus
from repro.serve.metrics import CONTENT_TYPE, render_metrics
from repro.serve.quotas import QuotaPolicy

from tests.campaign._fakes import fake_spec
from tests.serve.test_app import scratch, serving  # noqa: F401

#: ``name{labels} value`` — what every non-comment line must match.
SAMPLE_RE = re.compile(r"^[a-z_]+[a-z0-9_]*(\{[^}]*\})? \S+$")


def _fake_scheduler(tenants=None):
    return SimpleNamespace(
        counters={"jobs": 3, "cells_submitted": 12, "store_hits": 4,
                  "inflight_hits": 2, "cells_computed": 5,
                  "cells_failed": 1},
        queue=[1, 2],
        _running=1,
        inflight={"k1": None, "k2": None, "k3": None},
        slots=2,
        jobs={"job-1": SimpleNamespace(finished=False),
              "job-2": SimpleNamespace(finished=True)},
        quotas=SimpleNamespace(policy=QuotaPolicy(),
                               snapshot=lambda: dict(tenants or {})),
    )


def _fake_store(objects=7):
    return SimpleNamespace(
        hot=SimpleNamespace(stats=lambda: {"entries": 4, "bytes": 512,
                                           "hits": 9, "misses": 6}),
        cache=[None] * objects,
    )


class TestRenderMetrics:
    def test_families_and_values(self):
        bus = EventBus()
        bus.publish("job-1", "cell_finished")
        bus.publish("job-1", "job_finished")
        text = render_metrics(_fake_scheduler(), _fake_store(), bus)
        lines = text.splitlines()

        assert "repro_serve_jobs_total 3" in lines
        assert "repro_serve_cells_submitted_total 12" in lines
        assert 'repro_serve_cells_deduped_total{source="store"} 4' \
            in lines
        assert 'repro_serve_cells_deduped_total{source="inflight"} 2' \
            in lines
        assert "repro_serve_queue_depth 2" in lines
        assert "repro_serve_running_cells 1" in lines
        assert "repro_serve_inflight_cells 3" in lines
        assert "repro_serve_worker_slots 2" in lines
        assert "repro_serve_jobs_active 1" in lines
        assert "repro_serve_hot_cache_hits_total 9" in lines
        assert "repro_serve_hot_cache_misses_total 6" in lines
        assert "repro_serve_hot_cache_bytes 512" in lines
        assert "repro_serve_store_objects 7" in lines
        assert "repro_serve_events_published_total 2" in lines
        assert "repro_serve_event_jobs_tracked 1" in lines

    def test_every_family_has_help_and_type(self):
        text = render_metrics(_fake_scheduler(), _fake_store(),
                              EventBus())
        names = {line.split()[0] for line in text.splitlines()
                 if not line.startswith("#")}
        names = {name.split("{")[0] for name in names}
        helped = {line.split()[2] for line in text.splitlines()
                  if line.startswith("# HELP ")}
        typed = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert names <= helped
        assert names <= typed
        # Counters carry the conventional _total suffix; the TYPE
        # declarations agree with the names.
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind in ("counter", "gauge")
                if name.endswith("_total"):
                    assert kind == "counter"

    def test_sample_lines_are_well_formed(self):
        tenants = {"alice": {"queued": 2, "running": 1, "jobs": 1}}
        text = render_metrics(_fake_scheduler(tenants), _fake_store(),
                              EventBus())
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line.startswith("#"):
                assert SAMPLE_RE.match(line), line

    def test_per_tenant_quota_samples(self):
        tenants = {"bob": {"queued": 5, "running": 2, "jobs": 1},
                   "alice": {"queued": 1, "running": 0, "jobs": 1}}
        text = render_metrics(_fake_scheduler(tenants), _fake_store(),
                              EventBus())
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_serve_tenant_quota_usage")]
        assert ('repro_serve_tenant_quota_usage'
                '{resource="queued_cells",tenant="bob"} 5') in lines
        assert ('repro_serve_tenant_quota_usage'
                '{resource="active_jobs",tenant="alice"} 1') in lines
        # alice sorts before bob, labels sort alphabetically.
        assert lines.index(
            'repro_serve_tenant_quota_usage'
            '{resource="queued_cells",tenant="alice"} 1') \
            < lines.index(
            'repro_serve_tenant_quota_usage'
            '{resource="queued_cells",tenant="bob"} 5')

    def test_quota_limit_gauges_follow_policy(self):
        sched = _fake_scheduler()
        sched.quotas.policy = QuotaPolicy(max_queued_cells=99,
                                          max_running_cells=3,
                                          max_active_jobs=7)
        text = render_metrics(sched, _fake_store(), EventBus())
        assert 'repro_serve_quota_limit{resource="queued_cells"} 99' \
            in text
        assert 'repro_serve_quota_limit{resource="running_cells"} 3' \
            in text
        assert 'repro_serve_quota_limit{resource="active_jobs"} 7' \
            in text

    def test_label_escaping(self):
        tenants = {'we"ird\\ten\nant':
                   {"queued": 1, "running": 0, "jobs": 0}}
        text = render_metrics(_fake_scheduler(tenants), _fake_store(),
                              EventBus())
        assert 'tenant="we\\"ird\\\\ten\\nant"' in text
        assert "\n\\n" not in text  # newline escaped, not emitted


class TestMetricsEndpoint:
    def test_scrape_after_campaign(self, scratch):  # noqa: F811
        spec = fake_spec(3).to_dict()
        with serving(scratch) as (app, client):
            accepted = client.submit(spec, tenant="alice")
            client.wait(accepted["job_id"], timeout=60)
            with urllib.request.urlopen(client.url + "/v1/metrics",
                                        timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                text = response.read().decode()
        assert "repro_serve_jobs_total 1" in text.splitlines()
        assert "repro_serve_cells_submitted_total 3" in text.splitlines()
        assert "repro_serve_cells_computed_total 3" in text.splitlines()
        assert "repro_serve_store_objects 3" in text.splitlines()
        assert "repro_serve_events_published_total" in text
        for line in text.splitlines():
            if not line.startswith("#"):
                assert SAMPLE_RE.match(line), line
