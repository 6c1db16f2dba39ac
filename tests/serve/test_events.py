"""Event-bus units: history replay, EOF, lossiness, wire encodings."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import events as ev
from repro.serve.api import validate_event
from repro.serve.events import EventBus, encode_ndjson, encode_sse

from tests.campaign._fakes import make_result


def _publish_some(bus: EventBus, job: str, n: int) -> None:
    for i in range(n):
        bus.publish(job, "cell_started", cell_id=f"c{i}", key="k" * 64)


class TestHistoryReplay:
    """A subscription hands out every event available at once: the
    replayed history, then whatever arrived, with ``None`` at EOF."""

    def test_late_subscriber_replays_backlog(self):
        async def body():
            bus = EventBus()
            _publish_some(bus, "job-1", 3)
            sub = bus.subscribe("job-1")
            seen = await sub.next_batch()
            assert [e["cell_id"] for e in seen] == ["c0", "c1", "c2"]
            sub.close()
        asyncio.run(body())

    def test_replay_then_live_then_eof(self):
        async def body():
            bus = EventBus()
            _publish_some(bus, "job-1", 1)
            sub = bus.subscribe("job-1")
            [replayed] = await sub.next_batch()
            assert replayed["cell_id"] == "c0"
            bus.publish("job-1", "cell_finished", cell_id="c0",
                        key="k" * 64, status="done", wall_time=0.1)
            bus.close_job("job-1")
            live, eof = await sub.next_batch()
            assert live["event"] == "cell_finished"
            assert eof is None
            sub.close()
        asyncio.run(body())

    def test_subscribe_after_close_replays_then_eof(self):
        """The submit-then-stream race: a client opening the stream
        after the job finished still sees the full history."""
        async def body():
            bus = EventBus()
            _publish_some(bus, "job-1", 2)
            bus.close_job("job-1")
            sub = bus.subscribe("job-1")
            first, second, eof = await sub.next_batch()
            assert (first["cell_id"], second["cell_id"]) == ("c0", "c1")
            assert eof is None
        asyncio.run(body())

    def test_jobs_are_isolated(self):
        async def body():
            bus = EventBus()
            _publish_some(bus, "job-1", 2)
            _publish_some(bus, "job-2", 1)
            sub = bus.subscribe("job-2")
            assert [e["job"] for e in await sub.next_batch()] == ["job-2"]
            assert bus.history("job-1")[0]["job"] == "job-1"
            sub.close()
        asyncio.run(body())

    def test_seq_is_global_and_monotonic(self):
        bus = EventBus()
        _publish_some(bus, "a", 2)
        _publish_some(bus, "b", 2)
        seqs = [e["seq"] for job in ("a", "b") for e in bus.history(job)]
        assert seqs == [1, 2, 3, 4]

    def test_history_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ev, "HISTORY_LIMIT", 5)
        bus = EventBus()
        _publish_some(bus, "job-1", 9)
        history = bus.history("job-1")
        assert len(history) == 5
        assert history[0]["cell_id"] == "c4"    # oldest dropped

    def test_forget_job_drops_history(self):
        bus = EventBus()
        _publish_some(bus, "job-1", 2)
        bus.close_job("job-1")
        bus.forget_job("job-1")
        assert bus.history("job-1") == []


class TestLossySubscriber:
    def test_overflow_drops_oldest_not_newest(self, monkeypatch):
        async def body():
            monkeypatch.setattr(ev, "SUBSCRIBER_QUEUE", 1024)
            bus = EventBus()
            sub = bus.subscribe("job-1")
            sub._queue = asyncio.Queue(maxsize=2)
            _publish_some(bus, "job-1", 5)
            assert sub.lossy
            seen = await sub.next_batch()
            # The oldest were dropped.
            assert [e["cell_id"] for e in seen] == ["c3", "c4"]
            sub.close()
        asyncio.run(body())


class TestObsSummary:
    def test_summary_carries_attribution_and_tails(self):
        result = make_result()
        summary = ev.result_obs_summary(result)
        assert summary["cycles"] == result.cycles
        assert summary["attribution"] == dict(result.attribution)
        for stats in summary["latency"].values():
            assert set(stats) == {"count", "p50", "p95", "p99", "max"}

    def test_empty_histograms_are_omitted(self):
        result = make_result()
        summary = ev.result_obs_summary(result)
        for name, data in result.histograms.items():
            if not data.get("count"):
                assert name not in summary["latency"]


class TestEncodings:
    def _event(self):
        bus = EventBus()
        return bus.publish("job-1", "cell_started", cell_id="c0",
                           key="k" * 64)

    def test_ndjson_is_one_valid_line(self):
        line = encode_ndjson(self._event())
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        decoded = json.loads(line)
        validate_event(decoded)

    def test_ndjson_is_canonical(self):
        event = self._event()
        assert encode_ndjson(event) == encode_ndjson(dict(
            reversed(list(event.items()))))

    def test_sse_frame(self):
        event = self._event()
        frame = encode_sse(event).decode()
        lines = frame.splitlines()
        assert lines[0] == f"id: {event['seq']}"
        assert lines[1] == "event: cell_started"
        assert lines[2].startswith("data: ")
        validate_event(json.loads(lines[2][len("data: "):]))
        assert frame.endswith("\n\n")


@pytest.mark.parametrize("limit", [ev.HISTORY_LIMIT, ev.SUBSCRIBER_QUEUE])
def test_bounds_are_sane(limit):
    assert limit > 0
