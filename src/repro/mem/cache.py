"""A generic set-associative, write-back, LRU cache.

Used three ways in the simulated system:

* the CPU-side L1/L2/L3 data caches (tag-only: hit/miss behaviour and
  writeback addresses matter, contents travel through the model elsewhere),
* the security-metadata cache in the memory controller (256 KB in Table II)
  which caches counter blocks and tree nodes *with* their contents, and
* the unbounded non-volatile metadata cache (nvMC) of the BMF-ideal
  baseline (associativity ``0`` means fully-unbounded, never evicts).

Eviction returns the victim so callers can model writebacks; dirty state is
tracked per line.  Payloads are arbitrary Python objects (tree nodes,
counter blocks) — the cache is a *placement* model, not a byte store.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.mem.address import CACHE_LINE_SIZE
from repro.util.stats import StatCounter, StatGroup


@dataclass(slots=True)
class CacheLine:
    """One resident line: its address, dirtiness, and optional payload."""

    addr: int
    dirty: bool = False
    payload: Any = None


class CacheStats:
    """Read-only view over a cache's :class:`StatGroup` counters.

    The ``StatGroup`` counters are the single source of truth — the
    cache increments them once per event and this view just reads their
    values, so ``cache.stats.hits`` and the exported
    ``metadata_cache.hits`` statistic can never diverge (they used to be
    double bookkeeping: two counters incremented side by side).
    """

    __slots__ = ("_hits", "_misses", "_evictions", "_writebacks")

    def __init__(self, hits: StatCounter, misses: StatCounter,
                 evictions: StatCounter,
                 writebacks: StatCounter) -> None:
        self._hits = hits
        self._misses = misses
        self._evictions = evictions
        self._writebacks = writebacks

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def writebacks(self) -> int:
        return self._writebacks.value

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def to_dict(self) -> dict[str, float]:
        """Snapshot for trace reports and JSON artifacts."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "hit_rate": round(self.hit_rate, 4)}


class SetAssociativeCache:
    """Set-associative LRU cache keyed by line address.

    Parameters
    ----------
    size_bytes:
        Total capacity.  ``None`` makes the cache unbounded (used for the
        BMF-ideal nvMC).
    ways:
        Associativity.  Ignored when unbounded.
    line_size:
        Line granularity (64 B everywhere in this system).
    """

    def __init__(self, size_bytes: int | None, ways: int = 8,
                 line_size: int = CACHE_LINE_SIZE,
                 name: str = "cache",
                 stats: StatGroup | None = None) -> None:
        self.name = name
        self.line_size = line_size
        self.unbounded = size_bytes is None
        if self.unbounded:
            self.num_sets = 1
            self.ways = 0
        else:
            if size_bytes <= 0 or size_bytes % (line_size * ways):
                raise ConfigError(
                    f"cache size {size_bytes} not divisible by "
                    f"line_size*ways={line_size * ways}")
            self.ways = ways
            self.num_sets = size_bytes // (line_size * ways)
        # Each set is an OrderedDict: insertion order == LRU order,
        # move_to_end on touch.
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self.num_sets)]
        group = stats or StatGroup(name)
        self.stat_group = group
        self._hits = group.counter("hits")
        self._misses = group.counter("misses")
        self._evictions = group.counter("evictions")
        self._writebacks = group.counter("writebacks")
        self.stats = CacheStats(self._hits, self._misses,
                                self._evictions, self._writebacks)

    # ------------------------------------------------------------------
    def _set_of(self, line_addr: int) -> OrderedDict[int, CacheLine]:
        return self._sets[(line_addr // self.line_size) % self.num_sets]

    def contains(self, line_addr: int) -> bool:
        """Presence probe that does NOT update LRU or statistics."""
        return line_addr in self._set_of(line_addr)

    def lookup(self, line_addr: int) -> CacheLine | None:
        """Access a line: updates LRU order and hit/miss statistics."""
        # _set_of is inlined here and in peek/insert: one call frame per
        # cache probe is measurable across four caches per access.
        cache_set = self._sets[(line_addr // self.line_size)
                               % self.num_sets]
        line = cache_set.get(line_addr)
        if line is None:
            self._misses.value += 1
            return None
        cache_set.move_to_end(line_addr)
        self._hits.value += 1
        return line

    def peek(self, line_addr: int) -> CacheLine | None:
        """Fetch without touching LRU or statistics (crash flushing,
        debugging)."""
        return self._sets[(line_addr // self.line_size)
                          % self.num_sets].get(line_addr)

    def insert(self, line_addr: int, payload: Any = None,
               dirty: bool = False) -> CacheLine | None:
        """Install a line, returning the evicted victim (or ``None``).

        If the line is already resident its payload/dirty state is updated
        in place (no eviction).  Victims are chosen LRU within the set; a
        dirty victim increments the writeback counter — the caller is
        responsible for actually persisting it.
        """
        cache_set = self._sets[(line_addr // self.line_size)
                               % self.num_sets]
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.payload = payload if payload is not None \
                else existing.payload
            existing.dirty = existing.dirty or dirty
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if not self.unbounded and len(cache_set) >= self.ways:
            _, victim = cache_set.popitem(last=False)
            self._evictions.value += 1
            if victim.dirty:
                self._writebacks.value += 1
        cache_set[line_addr] = CacheLine(line_addr, dirty, payload)
        return victim

    def invalidate(self, line_addr: int) -> CacheLine | None:
        """Drop a line without writeback accounting; returns it if it was
        resident."""
        return self._set_of(line_addr).pop(line_addr, None)

    def drop_all(self) -> list[CacheLine]:
        """Empty the cache, returning every line that was resident (crash
        handling: the caller decides what an eADR domain persists).
        Empty sets, most of them at a crash, are skipped unvisited."""
        lines: list[CacheLine] = []
        for cache_set in filter(None, self._sets):
            lines.extend(cache_set.values())
            cache_set.clear()
        return lines

    def dirty_lines(self) -> list[CacheLine]:
        """All currently dirty resident lines (flush-on-crash under
        eADR)."""
        return [line for cache_set in self._sets
                for line in cache_set.values() if line.dirty]

    def resident_lines(self) -> list[CacheLine]:
        """Every resident line (LRU order within sets)."""
        return [line for cache_set in self._sets
                for line in cache_set.values()]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "unbounded" if self.unbounded else \
            f"{self.num_sets * self.ways * self.line_size}B"
        return f"SetAssociativeCache({self.name}, {cap}, {len(self)} lines)"
