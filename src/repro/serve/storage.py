"""The shared campaign store: content-addressed shards + a hot cache.

A :class:`CampaignStore` wraps the content-addressed
:class:`~repro.campaign.cache.ResultCache` (the
``objects/<key[:2]>/<key>.json`` shards stay byte-identical, so batch
campaigns and the service share one store) and adds what a long-running
service needs on top:

* a bounded in-memory **hot cache** of raw entry bytes, so repeated
  fetches of popular cells (the service's dominant request shape) are
  served from memory.  A hit still confirms that its shard exists (one
  ``stat``): ``repro-sim campaign clean`` deletes shards from another
  process, and only the shard can say the cell is gone.
* raw-bytes accessors that hand canonical JSON straight to the HTTP
  layer: :meth:`get_raw` returns the whole entry, and
  :meth:`get_result_raw` slices out its ``result``, which job results
  splice into their body.  Neither decodes nor re-encodes what it
  serves; only the first disk read parses an entry, to check its key.

The shards are the only persisted state, and what the store reports
about them is recomputed from them: ``stats()["objects"]`` counts the
shards on disk, so it cannot drift when ``repro-sim campaign clean`` or
a torn-entry eviction deletes one.

Directory layout (``CampaignStore(root)``)::

    root/cache/objects/<key[:2]>/<key>.json   entries (ResultCache-owned)
    root/manifest.json                         batch-campaign manifests

which is exactly the batch CLI's campaign-directory layout — pointing
``repro-sim serve --dir`` at an existing campaign directory serves its
cells, and batch runs against the same directory share them.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.campaign.cache import ResultCache, cell_key
from repro.campaign.spec import CellSpec
from repro.sim.results import RunResult


class HotCache:
    """Bounded LRU of raw entry bytes (the service's fast path)."""

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 64 * 1024 * 1024) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> bytes | None:
        with self._lock:
            data = self._entries.get(key)
            if data is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return data

    def put(self, key: str, data: bytes) -> None:
        if len(data) > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = data
            self._bytes += len(data)
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)

    def invalidate(self, key: str) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "hits": self.hits, "misses": self.misses}


class CampaignStore:
    """Concurrent-writer-safe result store with an in-memory hot cache.

    Duck-compatible with :class:`ResultCache` where the campaign
    executor needs it (``get``/``put``/``path_for``/``root``/
    ``__contains__``), so ``run_campaign(cache=store)`` works unchanged.
    """

    def __init__(self, root: str | Path,
                 decode: Callable[[dict], Any] = RunResult.from_dict,
                 hot_entries: int = 256) -> None:
        self.base = Path(root)
        self.base.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.base / "cache", decode=decode)
        self.hot = HotCache(max_entries=hot_entries)
        self.manifest_path = self.base / "manifest.json"

    # -- ResultCache duck type -----------------------------------------
    @property
    def root(self) -> Path:
        return self.cache.root

    def path_for(self, key: str) -> Path:
        return self.cache.path_for(key)

    def __contains__(self, cell: CellSpec) -> bool:
        return self.contains_key(cell_key(cell))

    def get(self, cell: CellSpec) -> RunResult | None:
        return self.cache.get(cell)

    def put(self, cell: CellSpec, result: RunResult,
            wall_time: float = 0.0) -> Path:
        path = self.cache.put(cell, result, wall_time)
        self.hot.invalidate(cell_key(cell))
        return path

    # -- service fast paths --------------------------------------------
    def contains_key(self, key: str) -> bool:
        return self.cache.contains_key(key)

    def get_raw(self, key: str) -> bytes | None:
        """The raw canonical-JSON entry bytes for ``key``, or ``None``.

        Served from the in-memory hot cache while the shard is still on
        disk (a hit whose shard is gone drops its entry); a disk read
        validates the entry's embedded key before promoting it (a torn
        or foreign file is treated as absent, matching ``get``).
        """
        data = self.hot.get(key)
        if data is not None:
            if self.contains_key(key):
                return data
            self.hot.invalidate(key)
            return None
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(data)
            if payload["key"] != key:
                raise ValueError("cache entry key mismatch")
        except (ValueError, KeyError, TypeError):
            self.cache.evict(key)
            return None
        self.hot.put(key, data)
        return data

    def get_result_raw(self, key: str) -> bytes | None:
        """The canonical JSON bytes of ``key``'s ``result``, or ``None``.

        A slice of the entry.  ``ResultCache`` writes every entry as
        canonical JSON, so ``"result":`` follows the key and
        ``,"wall_time":`` closes the entry."""
        data = self.get_raw(key)
        if data is None:
            return None
        marker = b'"key":"%s","result":' % key.encode()
        start = data.index(marker) + len(marker)
        return data[start:data.rindex(b',"wall_time":')]

    def stats(self) -> dict[str, Any]:
        """Store summary.  ``objects`` counts the shards on disk, a
        directory walk, so async callers run this in a worker thread.
        The store keeps no journal, so ``journal_mode`` reads
        ``"none"``."""
        return {"objects": len(self.cache),
                "hot": self.hot.stats(),
                "journal_mode": "none",
                "root": str(self.base)}

    def close(self) -> None:
        """Nothing to release; kept so every store can be closed."""
