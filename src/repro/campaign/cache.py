"""Content-addressed on-disk result store for campaign cells.

A cell's cache key is the SHA-256 of its canonical JSON — the serialized
:class:`~repro.sim.config.SystemConfig` plus workload name, operation
counts, and seed — salted with a cache-format version and the package
version.  Identical cells therefore share one entry across campaigns,
re-running a campaign skips every completed cell, and bumping
``CACHE_SALT`` (or releasing a new :mod:`repro` version) invalidates
results whose semantics the code change may have altered.

Layout under the cache root::

    objects/<key[:2]>/<key>.json    one completed cell each

Entries are written atomically (temp file + ``os.replace``) so a killed
campaign can never leave a half-written object: a cell is either durably
done or it re-runs.  Corrupted or stale-schema entries are *evicted* on
read and the cell re-runs — a damaged cache degrades to a cold one, it
never fails a campaign.

Concurrent writers (several campaign processes, or the ``repro.serve``
worker pool sharing one store with a batch campaign) are safe by two
independent mechanisms:

* *atomic replace* is what prevents torn entries — every writer stages
  the full payload in a ``.tmp`` file and publishes it with one
  ``os.replace``, so readers only ever see a complete entry (and because
  keys are content addresses, racing writers publish identical bytes);
* an *O_EXCL lock file* (``<key>.lock``) makes materialization
  single-writer in the common case: the first ``put`` takes the lock and
  writes, racing puts for the same key observe the published entry (or
  the lock) and return without re-serializing.  The lock is advisory —
  a writer that dies holding it never blocks progress, because a loser
  that sees neither a fresh entry nor a live lock simply falls through
  to the atomic-replace path.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from contextlib import suppress
from pathlib import Path
from typing import Any

import repro
from repro.campaign.spec import CellSpec
from repro.sim.results import RunResult
from repro.util.atomic import atomic_write_text, fsync_dir as _fsync_dir

#: Bump when simulator semantics change in a way that invalidates cached
#: measurements without changing the cell spec itself.
CACHE_SALT = "repro-campaign-v1"


def canonical_json(data: Any) -> str:
    """Key-sorted, whitespace-free JSON: equal data ⇒ equal bytes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def cell_key(cell: CellSpec) -> str:
    """Stable content hash of a cell (the cache address)."""
    payload = "\n".join(
        (CACHE_SALT, repro.__version__, canonical_json(cell.to_dict())))
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """The on-disk store; all methods tolerate concurrent writers."""

    def __init__(self, root: str | Path,
                 decode: Callable[[dict], Any] = RunResult.from_dict) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        # How to revive a stored ``result`` payload.  Campaigns that run
        # a custom cell_fn (e.g. the crash explorer's shard cells) pass
        # their own decoder; anything it raises on schema drift follows
        # the same evict-and-recompute path as RunResult.from_dict.
        self._decode = decode

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def get(self, cell: CellSpec) -> RunResult | None:
        """The cached result, or ``None`` (evicting any corrupt entry)."""
        key = cell_key(cell)
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            if payload["key"] != key:
                raise ValueError("cache entry key mismatch")
            return self._decode(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # json.JSONDecodeError is a ValueError; schema drift raises
            # TypeError/KeyError/ValueError out of from_dict.
            self.evict(key)
            return None

    def put(self, cell: CellSpec, result: RunResult,
            wall_time: float = 0.0) -> Path:
        """Atomically persist one completed cell; returns its path.

        Safe against concurrent writers: the first caller to create the
        ``<key>.lock`` file (``O_CREAT | O_EXCL``) serializes and
        publishes the entry; racing callers that find the entry already
        published return it untouched, and callers that find a held lock
        but no entry fall through and publish anyway (the replace is
        atomic and both writers hold identical bytes, so the loser's
        write is a no-op rewrite — never a torn entry).
        """
        key = cell_key(cell)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = path.with_suffix(".lock")
        lock_fd: int | None = None
        try:
            lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Another writer is (or was) materializing this key.  If its
            # entry is already published we are done; otherwise keep
            # going without the lock — atomic replace carries safety.
            if path.is_file():
                return path
        try:
            self._write_entry(cell, result, wall_time, key, path)
        finally:
            if lock_fd is not None:
                os.close(lock_fd)
                with suppress(OSError):
                    os.unlink(lock)
        return path

    def _write_entry(self, cell: CellSpec, result: RunResult,
                     wall_time: float, key: str, path: Path) -> None:
        # result.to_dict() embeds the full observability payload too
        # (cycle attribution + latency-histogram snapshots), so cached
        # cells replay with their breakdowns intact.
        payload = {"key": key, "cell": cell.to_dict(),
                   "result": result.to_dict(), "wall_time": wall_time}
        atomic_write_text(path, canonical_json(payload))

    def evict(self, key: str) -> bool:
        """Drop one entry (corruption recovery); True if it existed.

        The parent directory is fsynced after the unlink: eviction is
        the torn-entry recovery path, and without the directory sync a
        second crash could resurrect the corrupt entry after the cell
        was recomputed against the evicted state."""
        path = self.path_for(key)
        try:
            path.unlink()
        except OSError:
            return False
        _fsync_dir(path.parent)
        return True

    def clear(self) -> int:
        """Delete every object; returns how many were removed."""
        removed = 0
        for path in self.iter_paths():
            with suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def iter_paths(self) -> list[Path]:
        if not self.objects.is_dir():
            return []
        return sorted(self.objects.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.iter_paths())

    def contains_key(self, key: str) -> bool:
        """Whether ``key``'s entry is on disk: one ``stat`` of a string
        path, since building the ``Path`` would cost more than the stat."""
        return os.path.isfile(f"{self.objects}/{key[:2]}/{key}.json")

    def __contains__(self, cell: CellSpec) -> bool:
        return self.contains_key(cell_key(cell))
