"""The CPU-side cache hierarchy (L1/L2/L3 of Table II).

The hierarchy is a *placement and filtering* model: it decides which memory
instructions reach the memory controller and which writebacks the
controller sees, without carrying data (user-data bytes travel through the
functional layer in the secure memory controller itself).

Table II: private L1 64 KB 2-way, private L2 512 KB 8-way, shared L3 4 MB
8-way, all 64 B lines with LRU.  We model a single-core view (the paper
runs one application per core; scheme-relative results are per-core
effects), so "private vs shared" collapses to three inclusive levels.

A load miss in all three levels produces a memory read.  A store is
write-allocate/write-back: it dirties the line in L1 and surfaces at the
controller only when a dirty line is evicted from L3.  A *persist*
(clwb+fence) writes through immediately and leaves the line clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.cache import TagCache
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.util.stats import StatGroup


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/associativities for the three levels (Table II defaults)."""

    l1_size: int = 64 * 1024
    l1_ways: int = 2
    l2_size: int = 512 * 1024
    l2_ways: int = 8
    l3_size: int = 4 * 1024 * 1024
    l3_ways: int = 8

    def to_dict(self) -> dict[str, int]:
        """Stable field-order dict (campaign cache keys, worker IPC)."""
        return {"l1_size": self.l1_size, "l1_ways": self.l1_ways,
                "l2_size": self.l2_size, "l2_ways": self.l2_ways,
                "l3_size": self.l3_size, "l3_ways": self.l3_ways}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "HierarchyConfig":
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one access against the hierarchy.

    ``miss_to_memory``: the access needs a line from the controller.
    ``writebacks``: dirty line addresses evicted out of L3 by this access
    (the controller must treat them as NVM writes).
    ``hit_level``: 1/2/3, or 0 on full miss.
    """

    miss_to_memory: bool
    writebacks: list[int]
    hit_level: int


class CacheHierarchy:
    """Three-level inclusive LRU cache hierarchy."""

    def __init__(self, config: HierarchyConfig | None = None,
                 stats: StatGroup | None = None, recorder=None) -> None:
        self.config = config or HierarchyConfig()
        self.obs = recorder if recorder is not None else NULL_RECORDER
        group = stats or StatGroup("cpu_caches")
        self.stats = group
        cfg = self.config
        self.l1 = TagCache(cfg.l1_size, cfg.l1_ways, name="l1",
                           stats=group.child("l1"))
        self.l2 = TagCache(cfg.l2_size, cfg.l2_ways, name="l2",
                           stats=group.child("l2"))
        self.l3 = TagCache(cfg.l3_size, cfg.l3_ways, name="l3",
                           stats=group.child("l3"))
        self._levels = (self.l1, self.l2, self.l3)

    # ------------------------------------------------------------------
    def _spill(self, victim: tuple[int, bool] | None,
               outer: TagCache) -> None:
        """Write-back spill: a dirty victim evicted from an inner level
        marks its (inclusive) copy in the next level dirty."""
        if victim is not None and victim[1]:
            outer.mark(victim[0], True)

    def _install(self, line_addr: int, dirty: bool) -> list[int]:
        """Install a line in all levels (inclusive fill); collect dirty
        lines that fall out of L3."""
        writebacks: list[int] = []
        # Fill outer-in so inner victims can spill into a present copy.
        victim = self.l3.insert(line_addr)
        victim2 = self.l2.insert(line_addr)
        victim1 = self.l1.insert(line_addr, dirty)
        self._spill(victim1, self.l2)
        self._spill(victim2, self.l3)
        if victim is not None:
            # Inclusive hierarchy: L3 eviction invalidates inner copies,
            # inheriting their dirtiness.
            addr, dirty_out = victim
            for inner in (self.l1, self.l2):
                if inner.invalidate(addr):
                    dirty_out = True
            if dirty_out:
                writebacks.append(addr)
                if self.obs.enabled:
                    self.obs.instant(ev.EV_LLC_WRITEBACK, ev.TRACK_CPU,
                                     addr=addr)
        return writebacks

    def load(self, line_addr: int) -> HierarchyResult:
        """A load instruction touching ``line_addr``."""
        for level, cache in enumerate(self._levels, start=1):
            if cache.lookup(line_addr):
                if level > 1:
                    # Promote into inner levels (no memory traffic).
                    if level > 2:
                        self._spill(self.l2.insert(line_addr), self.l3)
                    self._spill(self.l1.insert(line_addr), self.l2)
                return HierarchyResult(False, [], level)
        writebacks = self._install(line_addr, dirty=False)
        return HierarchyResult(True, writebacks, 0)

    def store(self, line_addr: int) -> HierarchyResult:
        """A plain store: write-allocate, dirty in L1, surfaces at memory
        only via later eviction."""
        if self.l1.lookup(line_addr):
            self.l1.mark(line_addr, True)
            return HierarchyResult(False, [], 1)
        hit_level = 0
        for level, cache in ((2, self.l2), (3, self.l3)):
            if cache.lookup(line_addr):
                hit_level = level
                break
        miss = hit_level == 0
        writebacks = self._install(line_addr, dirty=True)
        return HierarchyResult(miss, writebacks, hit_level)

    def persist(self, line_addr: int) -> HierarchyResult:
        """A store + clwb + sfence: the line goes to the controller *now*
        and stays resident but clean."""
        hit_level = 0
        for level, cache in enumerate(self._levels, start=1):
            if cache.lookup(line_addr):
                cache.mark(line_addr, False)
                if hit_level == 0:
                    hit_level = level
        writebacks: list[int] = []
        if hit_level == 0:
            writebacks = self._install(line_addr, dirty=False)
        # Persists always reach memory; miss_to_memory reports whether the
        # *allocation* needed a fill (write-allocate on miss).
        return HierarchyResult(hit_level == 0, writebacks, hit_level)

    def drop_all(self) -> list[int]:
        """Crash: drop every level, returning dirty line addresses (what an
        eADR flush would persist)."""
        dirty: set[int] = set()
        for cache in self._levels:
            dirty.update(cache.drop_all())
        return sorted(dirty)
