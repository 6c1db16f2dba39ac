"""Progress event streaming: the bus behind ``/v1/campaigns/…/events``.

Events are plain dicts in the NDJSON vocabulary of
:data:`repro.serve.api.EVENT_FIELDS`.  The bus keeps a bounded
*history* per job so a client that connects after submission (the
normal case — submit returns the job id, then the client opens the
stream) replays everything it missed before following live events; and
it fans live events out to per-subscriber asyncio queues so one slow
consumer cannot stall the scheduler (a full subscriber queue drops the
oldest event and marks the subscription lossy rather than blocking).

The simulation-side payload comes from :mod:`repro.obs`: every
``cell_finished`` event carries :func:`result_obs_summary` — the cycle
attribution ledger and p50/p95/p99 snapshots of the run's latency
histograms — so a streaming consumer sees the same per-component
breakdown the span-tracing layer enforces on every result, without
fetching the full result object.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Any

from repro.sim.results import RunResult

#: Per-job history bound: enough for MAX_CELLS_PER_JOB cells with
#: scheduling + start + finish + a retry each, with headroom.
HISTORY_LIMIT = 20_000
#: Per-subscriber live-queue bound before it turns lossy.
SUBSCRIBER_QUEUE = 1024


def result_obs_summary(result: RunResult) -> dict[str, Any]:
    """The obs facts worth streaming: attribution + latency tails."""
    latencies = {}
    for name, data in sorted(result.histograms.items()):
        if not data.get("count"):
            continue
        latencies[name] = {"count": data.get("count"),
                           "p50": data.get("p50"),
                           "p95": data.get("p95"),
                           "p99": data.get("p99"),
                           "max": data.get("max")}
    return {"cycles": result.cycles,
            "attribution": dict(result.attribution),
            "latency": latencies}


class Subscription:
    """One consumer's view of a job's event stream."""

    def __init__(self, bus: "EventBus", job_id: str,
                 backlog: list[dict[str, Any]]) -> None:
        self._bus = bus
        self.job_id = job_id
        self._backlog = backlog
        self._queue: asyncio.Queue[dict[str, Any] | None] = \
            asyncio.Queue(maxsize=SUBSCRIBER_QUEUE)
        self.lossy = False

    def _offer(self, event: dict[str, Any] | None) -> None:
        try:
            self._queue.put_nowait(event)
        except asyncio.QueueFull:
            # Drop the oldest so the stream stays live; the consumer
            # can detect the gap from the seq numbers.
            self.lossy = True
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                pass
            try:
                self._queue.put_nowait(event)
            except asyncio.QueueFull:
                pass

    async def next_batch(self) -> list[dict[str, Any] | None]:
        """Every event available now, in order, waiting only while there
        is none; a trailing ``None`` means the stream is closed."""
        batch, self._backlog = self._backlog, []
        if not batch:
            batch.append(await self._queue.get())
        while batch[-1] is not None and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    def close(self) -> None:
        self._bus._unsubscribe(self)


class EventBus:
    """Publish/subscribe hub with per-job bounded history."""

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        self._history: dict[str, list[dict[str, Any]]] = {}
        self._closed: set[str] = set()
        self._subscribers: dict[str, list[Subscription]] = {}
        self.events_published = 0

    # -- producer side -------------------------------------------------
    def publish(self, job_id: str, event_type: str,
                **fields: Any) -> dict[str, Any]:
        event = {"seq": next(self._seq), "ts": time.time(),
                 "event": event_type, "job": job_id, **fields}
        self.events_published += 1
        history = self._history.setdefault(job_id, [])
        history.append(event)
        if len(history) > HISTORY_LIMIT:
            del history[: len(history) - HISTORY_LIMIT]
        for sub in self._subscribers.get(job_id, []):
            sub._offer(event)
        return event

    def close_job(self, job_id: str) -> None:
        """Mark the job's stream complete; live followers get EOF."""
        self._closed.add(job_id)
        for sub in self._subscribers.get(job_id, []):
            sub._offer(None)

    def forget_job(self, job_id: str) -> None:
        """Drop a finished job's history (retention policy's hook)."""
        self._history.pop(job_id, None)
        self._closed.discard(job_id)

    # -- consumer side -------------------------------------------------
    def subscribe(self, job_id: str) -> Subscription:
        """History replay + live follow for one job."""
        backlog = list(self._history.get(job_id, []))
        sub = Subscription(self, job_id, backlog)
        if job_id in self._closed:
            sub._offer(None)        # replay, then immediate EOF
        else:
            self._subscribers.setdefault(job_id, []).append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        subs = self._subscribers.get(sub.job_id)
        if subs and sub in subs:
            subs.remove(sub)
            if not subs:
                del self._subscribers[sub.job_id]

    def history(self, job_id: str) -> list[dict[str, Any]]:
        return list(self._history.get(job_id, []))

    def stats(self) -> dict[str, int]:
        """Bus counters for ``/v1/metrics``."""
        return {
            "events_published": self.events_published,
            "jobs_tracked": len(self._history),
            "jobs_closed": len(self._closed),
            "subscribers": sum(len(subs) for subs
                               in self._subscribers.values()),
        }


# -- wire encodings -----------------------------------------------------
def encode_ndjson(event: dict[str, Any]) -> bytes:
    return (json.dumps(event, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def encode_sse(event: dict[str, Any]) -> bytes:
    payload = json.dumps(event, sort_keys=True, separators=(",", ":"))
    return (f"id: {event.get('seq', 0)}\n"
            f"event: {event.get('event', 'message')}\n"
            f"data: {payload}\n\n").encode()
