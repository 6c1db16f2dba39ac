"""The eager update scheme (paper §II-D4, Fig 6b).

Every leaf persist propagates counter bumps through the whole branch — in
cache — and schedules the root-register update.  SIT lets all branch HMACs
be recomputed in one parallel hash burst, so the propagation costs one
hash latency plus whatever ancestor fetches miss the metadata cache.

The catch (§III-B): the root update *completes* only after the branch has
been fetched and hashed — the **crash window**.  In-flight updates are
tracked in :attr:`_pending_root` with their completion cycles; a crash
discards whatever has not completed, leaving the non-volatile register
behind the persisted leaves.  Recovery then reconstructs a root the
register has never held and fails, even though nobody attacked anything.
Eager is *architecturally* consistent while running: verification reads
the effective root (register + in-flight deltas).
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.crash.recovery import counter_summing_reconstruction
from repro.obs import events as ev
from repro.secure.base import (
    ReadOutcome,
    RecoveryReport,
    SecureMemoryController,
    WriteOutcome,
    expect_node,
)
from repro.tree.node import SITNode
from repro.tree.store import TreeNode


class EagerController(SecureMemoryController):
    """Eager propagation with an explicit crash window."""

    name = "eager"
    crash_consistent_root = False

    def __init__(self, config, recorder=None) -> None:
        super().__init__(config, recorder)
        #: In-flight root updates: [completion_cycle | None, slot, delta].
        #: ``None`` marks an update whose window is scheduled when the
        #: enclosing write completes (the pipeline starts at data
        #: acceptance, so the window extends past the operation's end).
        self._pending_root: list[list] = []
        self._window_extra = 0
        self._window_losses = self.stats.counter("window_lost_updates")

    # ------------------------------------------------------------------
    # Effective root: register + in-flight updates (runtime trust base)
    # ------------------------------------------------------------------
    def _root_counter(self, top_index: int) -> int:
        slot = top_index % self.amap.arity
        effective = self.running_root.counter(slot)
        pending = sum(delta for _, s, delta in self._pending_root
                      if s == slot)
        return (effective + pending) \
            & ((1 << self.amap.counter_bits) - 1)

    def _apply_due(self, cycle: int) -> None:
        """Land root updates whose crash window has closed."""
        if self._crashing:
            return
        still_pending = []
        for entry in self._pending_root:
            complete_at, slot, delta = entry
            if complete_at is not None and complete_at <= cycle:
                self.running_root.add(slot, delta)
                if self.obs.enabled:
                    self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                                     ts=complete_at,
                                     register="running_root", slot=slot,
                                     in_flight_landed=True)
            else:
                still_pending.append(entry)
        self._pending_root = still_pending

    def write_data(self, addr: int, data: bytes | None, cycle: int,
                   persist: bool = True) -> WriteOutcome:
        self._apply_due(cycle)
        outcome = super().write_data(addr, data, cycle, persist)
        # Schedule the update(s) this write put in flight: the propagation
        # pipeline runs after the data is accepted, so the window closes
        # one branch-fetch + hash-burst past the operation's end.
        for entry in self._pending_root:
            if entry[0] is None:
                entry[0] = cycle + outcome.cpu_stall + self._window_extra
        return outcome

    def read_data(self, addr: int, cycle: int) -> ReadOutcome:
        self._apply_due(cycle)
        return super().read_data(addr, cycle)

    def tick(self, cycle: int) -> None:
        self._apply_due(cycle)
        super().tick(cycle)

    # ------------------------------------------------------------------
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        fetch_latency = 0
        current: TreeNode = leaf
        level, index = 0, leaf_index
        write_through = self.config.leaf_write_through
        while level + 1 < self.amap.tree_levels:
            plevel, pindex = self.amap.parent_coords(level, index)
            parent, latency = self.fetch_node(plevel, pindex, charge=True)
            fetch_latency += latency
            expect_node(parent, SITNode, "eager: branch propagation")
            slot = self.amap.parent_slot(index)
            parent.bump_counter(slot, dummy_delta)
            self._mark_dirty(parent)
            addr = self.store.node_addr(level, index)
            current.seal(self.mac, addr, parent.counter(slot))
            if level or not write_through:
                self._recache(addr, current)
            current, level, index = parent, plevel, pindex
        # The root update trails the persist: its completion cycle is
        # scheduled by :meth:`write_data` once the operation's end is
        # known — the crash window of §III-B.  A crash right after the
        # persist therefore always lands inside it.
        slot = self.amap.parent_slot(index)
        hash_latency = self.hash_engine.charge(
            self.amap.tree_levels, parallel=self.parallel_hashing)
        self._window_extra = fetch_latency + self.hash_engine.latency_cycles
        self._pending_root.append(
            [None, slot, dummy_delta])  # reprolint: disable=hot-path-allocation
        addr = self.store.node_addr(level, index)
        # Seal the top before the leaf persists: in a single-level tree
        # the leaf *is* the top node, and media must get its final HMAC.
        current.seal(self.mac, addr, self._root_counter(index))
        wpq_stall = self._persist_node(leaf, cycle) \
            if write_through else 0
        self._recache(addr, current)
        if self.obs.enabled:
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             cycles=fetch_latency + hash_latency + wpq_stall,
                             window_opened=True)
        return fetch_latency + hash_latency + wpq_stall

    def _recache(self, addr: int, node: TreeNode) -> None:
        """Reinstall dirty a branch node that the climb evicted between
        its bump and its seal.  Its flush persisted the new counters
        under the HMAC of the old ones, so the sealed node must reach
        media again, or the next fetch of that line fails verification."""
        if self.meta_cache.peek(addr) is None:
            self._install(addr, node, dirty=True)

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        # A node is sealed soon after its bump, and one evicted between
        # the two is reinstalled once sealed (``_recache``).
        stall = self._persist_node(node, cycle)
        if self.obs.enabled:
            level, index = self.store.coords_of(node)
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=level, index=index,
                             cycles=stall)
        return stall

    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        self._window_losses.add(len(self._pending_root))
        self._pending_root.clear()

    @property
    def in_window(self) -> bool:
        """True while at least one root update is still in flight."""
        return bool(self._pending_root)

    def recover(self) -> RecoveryReport:
        result = counter_summing_reconstruction(
            self.store, self.amap, self.mac, self.running_root,
            write_back=False)
        success = result.clean
        detail = ("eager root was consistent (crash landed outside the "
                  "window)" if success else
                  "crash landed inside the crash window: in-flight root "
                  "updates were lost and the stored root does not match "
                  "the reconstruction (Fig 5b)")
        return RecoveryReport(
            scheme=self.name, success=success,
            root_matched=result.root_matched,
            leaf_hmac_failures=result.leaf_hmac_failures,
            metadata_reads=result.metadata_reads,
            metadata_writes=result.metadata_writes,
            recovery_seconds=result.recovery_seconds,
            detail=detail)
