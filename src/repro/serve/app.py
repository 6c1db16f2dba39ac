"""The asyncio HTTP front end: ``repro-sim serve``.

A deliberately small, dependency-free HTTP/1.1 server over
``asyncio.start_server`` — the request grammar the service needs (short
JSON bodies in, JSON or a streamed NDJSON/SSE body out) does not
justify a framework, and the ROADMAP forbids new hard dependencies.
Every response closes its connection (``Connection: close``), which
keeps the protocol state machine one-shot and lets the event stream be
written without chunked encoding: stream until job end (or client
disconnect), then close.

The app owns the subsystem wiring: one shared
:class:`~repro.serve.storage.CampaignStore`, one
:class:`~repro.serve.events.EventBus`, one
:class:`~repro.serve.workers.Scheduler`.  On startup it writes
``server.json`` (host, port, pid) into the store directory so clients
— and the kill/restart e2e test — can discover a dynamically-bound
port.  Crash safety is the store's atomic-replace discipline: SIGKILL
at any instant loses only in-flight cells, and a restarted server
serves every cell that was durably put.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

import repro
from repro.campaign.executor import CellFn, execute_cell
from repro.serve import api, metrics
from repro.serve.events import EventBus, encode_ndjson, encode_sse
from repro.serve.metrics import render_metrics
from repro.serve.quotas import QuotaPolicy
from repro.serve.storage import CampaignStore
from repro.serve.workers import Scheduler
from repro.util.atomic import atomic_write_text

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro-sim serve`` can configure."""

    root: str | Path = ".repro-serve"
    host: str = "127.0.0.1"
    port: int = 8023
    slots: int = 2
    timeout: float | None = None
    retries: int | None = None
    backoff: float = 0.5
    max_queued_cells: int = 1024
    max_running_cells: int = 4
    max_active_jobs: int = 16
    hot_entries: int = 256

    def policy(self) -> QuotaPolicy:
        return QuotaPolicy(max_queued_cells=self.max_queued_cells,
                           max_running_cells=self.max_running_cells,
                           max_active_jobs=self.max_active_jobs)


class ServerApp:
    """Wiring + HTTP handling for one service instance."""

    def __init__(self, config: ServeConfig,
                 cell_fn: CellFn = execute_cell) -> None:
        self.config = config
        self.store = CampaignStore(config.root,
                                   hot_entries=config.hot_entries)
        self.bus = EventBus()
        self.scheduler = Scheduler(
            self.store, self.bus, slots=config.slots,
            timeout=config.timeout, retries=config.retries,
            backoff=config.backoff, policy=config.policy(),
            cell_fn=cell_fn)
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        # File IO (and its fsyncs) happens off the loop.
        await asyncio.to_thread(self._write_discovery)

    def _write_discovery(self) -> None:
        info = {"host": self.config.host, "port": self.port,
                "pid": os.getpid(), "version": repro.__version__}
        path = Path(self.config.root) / "server.json"
        # Atomic publication: a crashed start never leaves a torn
        # server.json for a discovery client to misparse.
        atomic_write_text(path, json.dumps(info, indent=1,
                                           sort_keys=True) + "\n")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.stop()
        await asyncio.to_thread(self.store.close)
        with suppress(OSError):
            (Path(self.config.root) / "server.json").unlink()

    async def serve_forever(self) -> None:
        assert_server = self._server
        if assert_server is None:
            raise api.ServeError("start() the app first")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with suppress(NotImplementedError):
                loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await self.stop()

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, target, body = await self._read_request(reader)
            await self._dispatch(method, target, body, writer)
        except api.ServeError as exc:
            with suppress(Exception):
                await self._send_json(writer, exc.status, exc.to_dict())
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        except Exception as exc:  # pragma: no cover - defensive
            with suppress(Exception):
                await self._send_json(
                    writer, 500,
                    {"error": "internal", "detail": repr(exc)})
        finally:
            with suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        if len(head) > MAX_HEADER_BYTES:
            raise api.TooLargeError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise api.ServeError(f"malformed request line {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise api.ServeError(
                f"malformed Content-Length {length_text!r}")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise api.TooLargeError(
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    async def _send_json(self, writer: asyncio.StreamWriter,
                         status: int, payload: Any) -> None:
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
        await self._send_raw(writer, status, body, "application/json")

    async def _send_raw(self, writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing --------------------------------------------------------
    async def _dispatch(self, method: str, target: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}

        if method == "GET" and parts == ["healthz"]:
            # store.stats() walks the object shards — off the loop.
            store_stats = await asyncio.to_thread(self.store.stats)
            await self._send_json(writer, 200, {
                "status": "ok", "version": repro.__version__,
                "pid": os.getpid(), "store": store_stats})
            return
        if method == "GET" and parts == ["v1", "stats"]:
            store_stats = await asyncio.to_thread(self.store.stats)
            await self._send_json(writer, 200, {
                "scheduler": self.scheduler.describe(),
                "store": store_stats})
            return
        if method == "GET" and parts == ["v1", "metrics"]:
            # The shard count is taken off the loop; the scheduler/bus
            # gauges are loop-owned state and must be snapshotted *on*
            # the loop, so render_metrics itself stays loop-synchronous.
            objects = await asyncio.to_thread(len, self.store.cache)
            text = render_metrics(self.scheduler, self.store, self.bus,
                                  store_objects=objects)
            await self._send_raw(writer, 200, text.encode(),
                                 metrics.CONTENT_TYPE)
            return
        if parts[:2] == ["v1", "campaigns"]:
            await self._campaigns(method, parts[2:], body, writer,
                                  query)
            return
        if method == "GET" and parts[:2] == ["v1", "cells"] \
                and len(parts) == 3:
            await self._cell(parts[2], writer)
            return
        raise api.NotFoundError(f"no route for {method} {url.path}")

    async def _campaigns(self, method: str, rest: list[str],
                         body: bytes, writer: asyncio.StreamWriter,
                         query: dict[str, str]) -> None:
        if method == "POST" and not rest:
            try:
                payload = json.loads(body or b"{}")
            except ValueError as exc:
                raise api.ServeError(f"body is not JSON: {exc}")
            request = api.SubmitRequest.from_dict(payload)
            job = self.scheduler.submit(request)
            await self._send_json(writer, 202,
                                  job.view.to_dict(with_cells=False))
            return
        if method != "GET" or not rest:
            raise api.NotFoundError("campaigns: POST /, GET /<job>[...]")
        job = self.scheduler.job(rest[0])
        if len(rest) == 1:
            with_cells = query.get("cells", "1") != "0"
            await self._send_json(writer, 200,
                                  job.view.to_dict(with_cells))
            return
        if rest[1] == "results":
            await self._send_raw(writer, 200,
                                 await self.scheduler.job_results(rest[0]),
                                 "application/json")
            return
        if rest[1] == "events":
            await self._stream_events(job.view.job_id, writer, query)
            return
        raise api.NotFoundError(f"unknown campaign view {rest[1]!r}")

    async def _cell(self, key: str, writer: asyncio.StreamWriter
                    ) -> None:
        data = await asyncio.to_thread(self.store.get_raw, key)
        if data is None:
            raise api.NotFoundError(f"no cached cell {key[:16]}…")
        await self._send_raw(writer, 200, data, "application/json")

    async def _stream_events(self, job_id: str,
                             writer: asyncio.StreamWriter,
                             query: dict[str, str]) -> None:
        sse = query.get("format") == "sse"
        follow = query.get("follow", "1") != "0"
        encode = encode_sse if sse else encode_ndjson
        content_type = "text/event-stream" if sse \
            else "application/x-ndjson"
        head = (f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Cache-Control: no-store\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        subscription = self.bus.subscribe(job_id)
        try:
            # Every event already available goes out with one write and
            # one drain; for a finished job that is the head and the
            # whole replay.
            if not follow:
                writer.write(head + b"".join(
                    map(encode, self.bus.history(job_id))))
                await writer.drain()
                return
            closed = False
            while not closed:
                events = await subscription.next_batch()
                closed = events[-1] is None
                writer.write(head + b"".join(
                    encode(event) for event in events if event is not None))
                await writer.drain()
                head = b""
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            subscription.close()


async def run_server(config: ServeConfig,
                     cell_fn: CellFn = execute_cell) -> None:
    """Start the app and block until SIGINT/SIGTERM."""
    app = ServerApp(config, cell_fn=cell_fn)
    await app.start()
    print(f"repro.serve listening on "
          f"http://{config.host}:{app.port}  (store: {config.root}, "
          f"slots: {config.slots})", flush=True)
    await app.serve_forever()
