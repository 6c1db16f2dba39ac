"""Set-associative, write-back, LRU caches keyed by line address.

Two forms share one geometry and one set of statistics:

* :class:`TagCache`, the CPU-side L1/L2/L3 data caches.  They are
  tag-only: hit/miss behaviour and writeback addresses matter, contents
  travel through the model elsewhere, so each set maps a resident line
  address to its dirty bit.
* :class:`SetAssociativeCache`, the security-metadata cache in the
  memory controller (256 KB in Table II), which caches counter blocks
  and tree nodes *with* their contents as :class:`CacheLine` payloads.

Both are *placement* models, not byte stores.  Eviction returns the
victim so callers can model writebacks.  Each set is an ``OrderedDict``
whose insertion order is LRU order (``move_to_end`` on touch).
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


class _SetGeometry:
    """Sets, ways and the hit/miss/eviction/writeback counters that both
    cache forms share.  ``size_bytes`` must be a positive multiple of
    ``CACHE_LINE_SIZE * ways``; a line's set is
    ``(line_addr >> 6) % num_sets`` (64 B lines)."""

    def __init__(self, size_bytes: int, ways: int = 8,
                 name: str = "cache",
                 stats: StatGroup | None = None) -> None:
        if size_bytes <= 0 or size_bytes % (CACHE_LINE_SIZE * ways):
            raise ConfigError(
                f"cache size {size_bytes} not divisible by "
                f"line_size*ways={CACHE_LINE_SIZE * ways}")
        self.name = name
        self.ways = ways
        self.num_sets = size_bytes // (CACHE_LINE_SIZE * ways)
        self._sets: list[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        group = stats or StatGroup(name)
        self.stat_group = group
        self._hits = group.counter("hits")
        self._misses = group.counter("misses")
        self._evictions = group.counter("evictions")
        self._writebacks = group.counter("writebacks")
        self.stats = CacheStats(self._hits, self._misses,
                                self._evictions, self._writebacks)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        size = self.num_sets * self.ways * CACHE_LINE_SIZE
        return (f"{type(self).__name__}({self.name}, {size}B, "
                f"{len(self)} lines)")


class TagCache(_SetGeometry):
    """A tag-only level: each set maps a resident line address to its
    dirty bit."""

    def lookup(self, line_addr: int) -> bool:
        """Access a line: updates LRU order and hit/miss statistics;
        ``True`` on a hit."""
        cache_set = self._sets[(line_addr >> 6) % self.num_sets]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def peek(self, line_addr: int) -> bool | None:
        """The dirty bit of a resident line, ``None`` if it is absent;
        touches neither LRU order nor statistics."""
        return self._sets[(line_addr >> 6) % self.num_sets].get(line_addr)

    def mark(self, line_addr: int, dirty: bool) -> bool:
        """Set a resident line's dirty bit (store hit, clean on persist,
        an inner level's write-back spill); an absent line stays absent.
        Returns whether the line was resident.  Touches neither LRU
        order nor statistics."""
        cache_set = self._sets[(line_addr >> 6) % self.num_sets]
        if line_addr in cache_set:
            cache_set[line_addr] = dirty
            return True
        return False

    def insert(self, line_addr: int,
               dirty: bool = False) -> tuple[int, bool] | None:
        """Install a line, returning the evicted ``(addr, dirty)`` victim
        (or ``None``).  A resident line is refreshed and keeps its dirty
        bit, ORed with ``dirty``; a dirty victim counts a writeback the
        caller must carry out."""
        cache_set = self._sets[(line_addr >> 6) % self.num_sets]
        if line_addr in cache_set:
            if dirty:
                cache_set[line_addr] = True
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.popitem(last=False)
            self._evictions.value += 1
            if victim[1]:
                self._writebacks.value += 1
        cache_set[line_addr] = dirty
        return victim

    def invalidate(self, line_addr: int) -> bool | None:
        """Drop a line without writeback accounting (inclusive
        back-invalidation); returns its dirty bit, ``None`` if it was
        absent."""
        return self._sets[(line_addr >> 6) % self.num_sets].pop(
            line_addr, None)

    def drop_all(self) -> list[int]:
        """Empty the level, returning its dirty line addresses (crash
        handling: the caller decides what an eADR domain persists).
        Empty sets, most of them at a crash, are skipped unvisited."""
        dirty: list[int] = []
        for cache_set in filter(None, self._sets):
            dirty.extend(addr for addr, bit in cache_set.items() if bit)
            cache_set.clear()
        return dirty


class SetAssociativeCache(_SetGeometry):
    """The metadata cache: set-associative LRU over :class:`CacheLine`
    objects that carry their node as payload."""

    def lookup(self, line_addr: int) -> CacheLine | None:
        """Access a line: updates LRU order and hit/miss statistics."""
        cache_set = self._sets[(line_addr >> 6) % self.num_sets]
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
        return self._sets[(line_addr >> 6) % self.num_sets].get(line_addr)

    def insert(self, line_addr: int, payload: Any = None,
               dirty: bool = False) -> CacheLine | None:
        """Install a line, returning the evicted victim (or ``None``).

        If the line is already resident its payload/dirty state is updated
        in place (no eviction).  Victims are chosen LRU within the set; a
        dirty victim increments the writeback counter — the caller is
        responsible for actually persisting it.
        """
        cache_set = self._sets[(line_addr >> 6) % self.num_sets]
        existing = cache_set.get(line_addr)
        if existing is not None:
            existing.payload = payload if payload is not None \
                else existing.payload
            existing.dirty = existing.dirty or dirty
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            _, victim = cache_set.popitem(last=False)
            self._evictions.value += 1
            if victim.dirty:
                self._writebacks.value += 1
        cache_set[line_addr] = CacheLine(line_addr, dirty, payload)
        return victim

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
