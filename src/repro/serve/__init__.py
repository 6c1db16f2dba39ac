"""Simulation-as-a-service: the async layer over the campaign engine.

``repro.serve`` turns the batch campaign engine (:mod:`repro.campaign`)
into a long-running shared service — the ROADMAP's "millions of users"
architecture, where most requests are cache hits on a shared store and
only novel cells burn CPU:

* :mod:`repro.serve.storage` — :class:`CampaignStore`, the promoted
  storage layer: the content-addressed shards plus an in-memory hot
  cache, safe under concurrent writers.
* :mod:`repro.serve.queue` / :mod:`repro.serve.quotas` — fair
  round-robin queueing across tenants with quota admission control.
* :mod:`repro.serve.workers` — the asyncio scheduler + bounded worker
  pool; per-cell timeout/retry semantics come verbatim from
  :func:`repro.campaign.executor.run_cell`.
* :mod:`repro.serve.events` — progress streaming (NDJSON/SSE) with
  per-cell :mod:`repro.obs` attribution and latency-tail summaries.
* :mod:`repro.serve.app` / :mod:`repro.serve.api` /
  :mod:`repro.serve.client` — the stdlib HTTP server, its wire
  schemas, and the blocking client behind ``repro-sim submit/fetch``.

See docs/serving.md for the API walk-through and design rationale.
"""

from repro.serve.api import (
    JobView,
    ServeError,
    SubmitRequest,
    validate_event,
)
from repro.serve.app import ServeConfig, ServerApp, run_server
from repro.serve.client import ClientError, ServeClient, discover_url
from repro.serve.events import EventBus, result_obs_summary
from repro.serve.queue import CellTask, FairQueue
from repro.serve.quotas import QuotaExceeded, QuotaPolicy, TenantQuotas
from repro.serve.storage import CampaignStore, HotCache
from repro.serve.workers import Scheduler

__all__ = [
    "CampaignStore",
    "CellTask",
    "ClientError",
    "EventBus",
    "FairQueue",
    "HotCache",
    "JobView",
    "QuotaExceeded",
    "QuotaPolicy",
    "Scheduler",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerApp",
    "SubmitRequest",
    "TenantQuotas",
    "discover_url",
    "result_obs_summary",
    "run_server",
    "validate_event",
]
