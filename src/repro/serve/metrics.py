"""Prometheus text-exposition rendering for ``GET /v1/metrics``.

Zero dependencies: the text exposition format (version 0.0.4) is a
``# HELP`` / ``# TYPE`` header pair followed by ``name{labels} value``
sample lines, which a string builder covers completely.  Everything
exported here is pull-model state the server already tracks — the
:class:`~repro.serve.workers.Scheduler` counters and pool gauges,
per-tenant quota occupancy from
:class:`~repro.serve.quotas.TenantQuotas`, the
:class:`~repro.serve.storage.HotCache` hit/miss totals, and the
:class:`~repro.serve.events.EventBus` counters — so scraping is cheap
and never touches the event loop's hot path.

Metric names follow the Prometheus conventions: ``_total`` suffix on
monotonic counters, base units in the name (``_bytes``), gauges bare.
"""

from __future__ import annotations

from typing import Any, Iterable

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Writer:
    """Accumulates one metric family at a time."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str,
               samples: Iterable[tuple[dict[str, str], Any]]) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            label_str = ""
            if labels:
                inner = ",".join(
                    f'{key}="{_escape_label(str(val))}"'
                    for key, val in sorted(labels.items()))
                label_str = "{" + inner + "}"
            self.lines.append(
                f"{name}{label_str} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_metrics(scheduler: Any, store: Any, bus: Any, *,
                   store_objects: int | None = None) -> str:
    """The full ``/v1/metrics`` payload for one server instance.

    ``store_objects`` lets an async caller count the object shards off
    the event loop (``asyncio.to_thread(len, store.cache)``) and keep
    this function loop-synchronous — every other gauge reads
    loop-owned scheduler/bus state that must not be snapshotted from
    another thread.  Sync callers omit it and the count is taken
    inline."""
    w = _Writer()

    counters = scheduler.counters
    w.family("repro_serve_jobs_total", "counter",
             "Campaign jobs accepted since server start.",
             [({}, counters["jobs"])])
    w.family("repro_serve_cells_submitted_total", "counter",
             "Cells submitted across all jobs (before dedup).",
             [({}, counters["cells_submitted"])])
    w.family("repro_serve_cells_deduped_total", "counter",
             "Cells satisfied without new compute, by dedup source.",
             [({"source": "store"}, counters["store_hits"]),
              ({"source": "inflight"}, counters["inflight_hits"])])
    w.family("repro_serve_cells_computed_total", "counter",
             "Cells computed to completion by the worker pool.",
             [({}, counters["cells_computed"])])
    w.family("repro_serve_cells_failed_total", "counter",
             "Cells that exhausted retries and failed.",
             [({}, counters["cells_failed"])])

    w.family("repro_serve_queue_depth", "gauge",
             "Cells waiting in the fair queue.",
             [({}, len(scheduler.queue))])
    w.family("repro_serve_running_cells", "gauge",
             "Cells currently executing in the worker pool.",
             [({}, scheduler._running)])
    w.family("repro_serve_inflight_cells", "gauge",
             "Distinct cell keys queued or executing (dedup window).",
             [({}, len(scheduler.inflight))])
    w.family("repro_serve_worker_slots", "gauge",
             "Size of the worker pool.",
             [({}, scheduler.slots)])
    w.family("repro_serve_jobs_active", "gauge",
             "Jobs not yet finished.",
             [({}, sum(1 for job in scheduler.jobs.values()
                       if not job.finished))])

    policy = scheduler.quotas.policy
    w.family("repro_serve_quota_limit", "gauge",
             "Per-tenant quota limits (0 = unlimited).",
             [({"resource": "queued_cells"}, policy.max_queued_cells),
              ({"resource": "running_cells"}, policy.max_running_cells),
              ({"resource": "active_jobs"}, policy.max_active_jobs)])
    tenant_samples = []
    resource_keys = (("queued", "queued_cells"),
                     ("running", "running_cells"),
                     ("jobs", "active_jobs"))
    for tenant, usage in sorted(scheduler.quotas.snapshot().items()):
        for key, resource in resource_keys:
            tenant_samples.append(
                ({"tenant": tenant, "resource": resource}, usage[key]))
    w.family("repro_serve_tenant_quota_usage", "gauge",
             "Per-tenant quota occupancy by resource.",
             tenant_samples)

    hot = store.hot.stats()
    w.family("repro_serve_hot_cache_hits_total", "counter",
             "In-memory hot-cache hits.", [({}, hot["hits"])])
    w.family("repro_serve_hot_cache_misses_total", "counter",
             "In-memory hot-cache misses.", [({}, hot["misses"])])
    w.family("repro_serve_hot_cache_entries", "gauge",
             "Entries resident in the hot cache.",
             [({}, hot["entries"])])
    w.family("repro_serve_hot_cache_bytes", "gauge",
             "Bytes resident in the hot cache.", [({}, hot["bytes"])])
    objects = len(store.cache) if store_objects is None \
        else store_objects
    w.family("repro_serve_store_objects", "gauge",
             "Durable result objects in the campaign store.",
             [({}, objects)])

    bus_stats = bus.stats()
    w.family("repro_serve_events_published_total", "counter",
             "Events published on the bus since server start.",
             [({}, bus_stats["events_published"])])
    w.family("repro_serve_event_jobs_tracked", "gauge",
             "Jobs with retained event history.",
             [({}, bus_stats["jobs_tracked"])])
    w.family("repro_serve_event_subscribers", "gauge",
             "Live event-stream subscriptions.",
             [({}, bus_stats["subscribers"])])

    return w.render()
