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

This is the one model of L1-L3: the scalar loop, the epoch engine and
``MultiProgramSystem`` all call :meth:`CacheHierarchy.load`, ``store``
and ``persist``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class HierarchyResult(NamedTuple):
    """Outcome of one access against the hierarchy.

    ``miss_to_memory``: the access needs a line from the controller.
    ``writebacks``: dirty line addresses evicted out of L3 by this access
    (the controller must treat them as NVM writes).
    ``hit_level``: 1/2/3, or 0 on full miss.
    """

    miss_to_memory: bool
    writebacks: tuple[int, ...]
    hit_level: int


#: The writeback-free outcomes, indexed by hit level (0 is a full
#: miss).  They are shared, so an access that writes nothing back
#: allocates nothing, and a recorded pass holds one object for each.
MISS = HierarchyResult(True, (), 0)
L1_HIT = HierarchyResult(False, (), 1)
L2_HIT = HierarchyResult(False, (), 2)
L3_HIT = HierarchyResult(False, (), 3)
_CLEAN = (MISS, L1_HIT, L2_HIT, L3_HIT)


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
    # A dirty victim evicted from an inner level marks the nearest outer
    # level holding the line dirty (a write-back spill).
    def _install(self, line_addr: int, dirty: bool) -> tuple[int, ...]:
        """Install a line in all levels (inclusive fill); return the
        dirty line that falls out of L3, if any."""
        l1, l2, l3 = self.l1, self.l2, self.l3
        # Fill outer-in so inner victims can spill into a present copy.
        victim = l3.insert(line_addr)
        victim2 = l2.insert(line_addr)
        victim1 = l1.insert(line_addr, dirty)
        # L2 does not back-invalidate L1.  L3 is inclusive, so a victim
        # no outer level holds is the line just evicted from L3.
        lost = False
        if victim1 is not None and victim1[1] \
                and not l2.mark(victim1[0], True):
            lost = not l3.mark(victim1[0], True)
        if victim2 is not None and victim2[1] \
                and not l3.mark(victim2[0], True):
            lost = True
        if victim is None:
            return ()
        # Inclusive hierarchy: L3 eviction invalidates inner copies,
        # inheriting their dirtiness.
        addr, dirty_out = victim
        if l1.invalidate(addr):
            dirty_out = True
        if l2.invalidate(addr):
            dirty_out = True
        if not (dirty_out or lost):
            return ()
        if self.obs.enabled:
            self.obs.instant(ev.EV_LLC_WRITEBACK, ev.TRACK_CPU, addr=addr)
        return (addr,)

    def load(self, line_addr: int) -> HierarchyResult:
        """A load instruction touching ``line_addr``."""
        l1, l2, l3 = self.l1, self.l2, self.l3
        if l1.lookup(line_addr):
            return L1_HIT
        if l2.lookup(line_addr):
            # Promote into L1 (no memory traffic).
            victim = l1.insert(line_addr)
            if victim is not None and victim[1] \
                    and not l2.mark(victim[0], True):
                l3.mark(victim[0], True)
            return L2_HIT
        if l3.lookup(line_addr):
            # Promote into L2 and L1.  L3 keeps its copies, so no spill
            # is lost.
            victim = l2.insert(line_addr)
            if victim is not None and victim[1]:
                l3.mark(victim[0], True)
            victim = l1.insert(line_addr)
            if victim is not None and victim[1] \
                    and not l2.mark(victim[0], True):
                l3.mark(victim[0], True)
            return L3_HIT
        writebacks = self._install(line_addr, False)
        return HierarchyResult(True, writebacks, 0) if writebacks else MISS

    def store(self, line_addr: int) -> HierarchyResult:
        """A plain store: write-allocate, dirty in L1, surfaces at memory
        only via later eviction."""
        if self.l1.lookup(line_addr):
            self.l1.mark(line_addr, True)
            return L1_HIT
        hit_level = 2 if self.l2.lookup(line_addr) \
            else 3 if self.l3.lookup(line_addr) else 0
        writebacks = self._install(line_addr, True)
        if writebacks:
            return HierarchyResult(hit_level == 0, writebacks, hit_level)
        return _CLEAN[hit_level]

    def persist(self, line_addr: int) -> HierarchyResult:
        """A store + clwb + sfence: the line goes to the controller *now*
        and stays resident but clean."""
        # Every level is probed (and counted) outer-in and its copy
        # cleaned; the innermost hit names the level.
        l1, l2, l3 = self.l1, self.l2, self.l3
        hit_level = 0
        if l3.lookup(line_addr):
            l3.mark(line_addr, False)
            hit_level = 3
        if l2.lookup(line_addr):
            l2.mark(line_addr, False)
            hit_level = 2
        if l1.lookup(line_addr):
            l1.mark(line_addr, False)
            hit_level = 1
        if hit_level:
            return _CLEAN[hit_level]
        # Persists always reach memory; miss_to_memory reports whether the
        # *allocation* needed a fill (write-allocate on miss).
        writebacks = self._install(line_addr, False)
        return HierarchyResult(True, writebacks, 0) if writebacks else MISS

    def drop_all(self) -> list[int]:
        """Crash: drop every level, returning dirty line addresses (what an
        eADR flush would persist)."""
        dirty: set[int] = set()
        for cache in self._levels:
            dirty.update(cache.drop_all())
        return sorted(dirty)
