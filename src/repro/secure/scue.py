"""SCUE — the ShortCut UpdatE scheme (paper §IV, Figs 6c/7/8).

Three ideas compose:

**Shortcut root update** (§IV-A2).  A leaf persist updates the on-chip
``Recovery_root`` register *directly* — one adder bump, no intermediate
nodes read, no branch hashed — so the root is consistent with the
persisted leaves at every instant and the crash window disappears.

**Lazy computing + dummy counters** (§IV-A1/2).  The persisted leaf still
needs a fresh HMAC, but its parent counter input is replaced by the *dummy
counter* — the sum of the node's own counters, which counter-summing
updating guarantees equals the parent counter.  One hash, computed from
data already in hand.  Intermediate nodes are updated lazily (when their
children flush) and hashed only when they are themselves flushed, also via
their own dummy counter.  Parent updates after a leaf persist happen *off*
the write critical path (the forced background read-and-update of §IV-A2),
so they cost traffic but no write latency.

**Counter-summing reconstruction** (§IV-B).  Because every parent counter
is maintained as the sum of its child's counters, the whole SIT can be
rebuilt bottom-up from the consistent leaves after a reboot — the BMT-like
property vanilla SIT lacks — and compared against ``Recovery_root``.
Roll-forward attacks die on leaf HMACs; roll-back/replay attacks die on
the root comparison (Table I).

The ``Running_root`` register serves runtime verification exactly like the
lazy scheme's root (same security argument, §IV-A3); ``Recovery_root``
exists purely so recovery has an instantaneously consistent trust base.
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.crash.anubis import AgitTracker, AsitTracker
from repro.crash.recovery import counter_summing_reconstruction
from repro.crash.star import StarTracker
from repro.obs import events as ev
from repro.secure.base import (
    REGISTER_UPDATE_CYCLES,
    RecoveryReport,
    SecureMemoryController,
)
from repro.secure.roots import ROOT_REGISTER_BYTES, RootRegister
from repro.tree.store import TreeNode


class SCUEController(SecureMemoryController):
    """The paper's scheme: instantaneous root updates, reconstructible SIT."""

    name = "scue"
    crash_consistent_root = True

    def __init__(self, config, recorder=None) -> None:
        super().__init__(config, recorder)
        self.recovery_root = RootRegister(
            "recovery_root", self.amap.arity, self.amap.counter_bits)
        if config.recovery_tracker == "star":
            self.tracker: StarTracker | AgitTracker | None = \
                StarTracker(self.amap)
        elif config.recovery_tracker == "agit":
            self.tracker = AgitTracker(self.amap)
        elif config.recovery_tracker == "asit":
            self.tracker = AsitTracker(self.amap)
        else:
            self.tracker = None
        self._shortcut_updates = self.stats.counter("shortcut_root_updates")
        #: Leaves per top-level subtree — the divisor of
        #: :meth:`_root_slot_of_leaf`, precomputed off the per-write path.
        self._top_subtree_leaves = \
            self.amap.arity ** (self.amap.tree_levels - 1)
        #: Osiris-style relaxed counter persistence (§VII): bumps since
        #: the last forced write-back, per leaf.
        self._osiris_pending: dict[int, int] = {}
        self._osiris_writebacks = self.stats.counter("osiris_writebacks")

    # ------------------------------------------------------------------
    # Fast-recovery tracker wiring
    # ------------------------------------------------------------------
    def _on_node_dirtied(self, level: int, index: int) -> None:
        if self.tracker is not None:
            self.tracker.on_dirty(level, index)

    def _on_node_updated(self, level: int, index: int) -> None:
        if self.tracker is not None:
            self.tracker.on_update(level, index)

    def _on_node_cleaned(self, level: int, index: int) -> None:
        if self.tracker is not None:
            self.tracker.on_clean(level, index)

    # ------------------------------------------------------------------
    def _root_slot_of_leaf(self, leaf_index: int) -> int:
        """Which Recovery_root counter covers this leaf: the index of the
        top-level subtree it belongs to (§IV-B2's "first 1/8 of the leaf
        level" example)."""
        return (leaf_index // self._top_subtree_leaves) % self.amap.arity

    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        if not self.config.leaf_write_through:
            # Deferred-leaf mode: the shortcut still fires per bump (a
            # register write never needed the leaf durable), so the
            # Recovery_root never lags the counters.
            self.recovery_root.add(self._root_slot_of_leaf(leaf_index),
                                   dummy_delta)
            self._shortcut_updates.add()
            if self.obs.enabled:
                self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                                 register="recovery_root", shortcut=True,
                                 leaf=leaf_index)
            return REGISTER_UPDATE_CYCLES \
                + self._osiris_writeback(leaf, leaf_index, dummy_delta,
                                         cycle)
        # 1. Dummy counter + one HMAC: everything needed is on-chip.
        dummy = leaf.dummy_counter(self.amap.counter_bits)
        addr = self.amap.counter_block_addr(leaf_index)
        leaf.seal(self.mac, addr, dummy)
        hash_latency = self.hash_engine.charge(1)
        # 2. Shortcut: bump the Recovery_root immediately — the write is
        #    crash consistent from this point on.
        self.recovery_root.add(self._root_slot_of_leaf(leaf_index),
                               dummy_delta)
        self._shortcut_updates.value += 1
        # 3. Persist the leaf.
        wpq_stall = self._persist_node(leaf, cycle)
        # 4. Parent update off the critical path (§IV-A2): the branch is
        #    read and the parent counter set to the dummy.  It completes
        #    before the next operation (ordering), but its reads and
        #    hashes cost the write nothing (an uncharged fetch).
        self._update_parent_counter(0, leaf_index, set_to=dummy)
        if self.obs.enabled:
            self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                             register="recovery_root", shortcut=True,
                             leaf=leaf_index)
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             cycles=hash_latency + REGISTER_UPDATE_CYCLES
                             + wpq_stall)
        return hash_latency + REGISTER_UPDATE_CYCLES + wpq_stall

    def _osiris_writeback(self, leaf: CounterBlock, leaf_index: int,
                          dummy_delta: int, cycle: int) -> int:
        """Osiris discipline: force the counter block to media every
        ``osiris_limit`` bumps (and unconditionally after an overflow,
        whose re-encryption invalidates all stale search windows).
        Returns the critical-path cycles of a forced write-back (zero on
        the common, deferred path)."""
        limit = self.config.osiris_limit
        if not limit:
            return 0
        pending = self._osiris_pending.get(leaf_index, 0) + 1
        if pending < limit and dummy_delta == 1:
            self._osiris_pending[leaf_index] = pending
            return 0
        self._osiris_pending[leaf_index] = 0
        self._osiris_writebacks.add()
        dummy = leaf.dummy_counter(self.amap.counter_bits)
        leaf.seal(self.mac, self.amap.counter_block_addr(leaf_index), dummy)
        hash_latency = self.hash_engine.charge(1)
        wpq_stall = self._persist_node(leaf, cycle)
        self._update_parent_counter(0, leaf_index, set_to=dummy)
        if self.obs.enabled:
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             osiris_forced=True,
                             cycles=hash_latency + wpq_stall)
        return hash_latency + wpq_stall

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        """Flush via dummy counter (Fig 7): the parent counter input is
        the node's own counter sum, so the eviction needs **no reads** —
        the contrast with the lazy scheme's flush path.  The sealing hash
        itself pipelines with the writeback from the eviction buffer and
        costs the triggering access nothing."""
        level, index = self.store.coords_of(node)
        dummy = node.dummy_counter(self.amap.counter_bits) \
            if isinstance(node, CounterBlock) else node.dummy_counter()
        node.seal(self.mac, self.store.node_addr(level, index), dummy)
        self.hash_engine.charge(1)
        wpq_stall = self._persist_node(node, cycle)
        # Counter-summing update of the parent (Running_root for top-level
        # nodes), again ordered-but-unbilled.
        self._update_parent_counter(level, index, set_to=dummy)
        if self.obs.enabled:
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=level, index=index,
                             cycles=wpq_stall)
        return wpq_stall

    # ------------------------------------------------------------------
    def _on_crash(self) -> None:
        self._osiris_pending.clear()

    def recover(self) -> RecoveryReport:
        """Counter-summing reconstruction against the Recovery_root
        (§IV-B, Fig 8).  Under relaxed counter persistence the Osiris
        phase first rebuilds the true leaf counters from data MACs.
        With a STAR/AGIT tracker attached, recovery is *targeted*: only
        the nodes that were dirty at crash time are rebuilt (§V-D)."""
        if self.tracker is not None and not self.config.osiris_limit:
            return self._recover_targeted()
        osiris_reads = 0
        if self.config.osiris_limit:
            from repro.crash.osiris import osiris_counter_recovery
            from repro.errors import RecoveryError
            try:
                osiris = osiris_counter_recovery(self,
                                                 self.config.osiris_limit)
                osiris_reads = osiris.metadata_reads
            except RecoveryError as exc:
                return RecoveryReport(
                    scheme=self.name, success=False, root_matched=False,
                    detail=f"Osiris counter recovery failed: {exc}")
        result = counter_summing_reconstruction(
            self.store, self.amap, self.mac, self.recovery_root,
            write_back=True)
        success = result.clean
        if success:
            # Runtime trust resumes from the rebuilt tree: Running_root
            # must cover the rebuilt top-level nodes.
            self.running_root.restore(result.root_counters)
            if self.tracker is not None:
                self.tracker.reset()
        seconds = result.recovery_seconds
        reads = result.metadata_reads + osiris_reads
        if success:
            detail = "SIT reconstructed from leaves; Recovery_root matched"
        elif result.leaf_hmac_failures:
            detail = ("leaf HMAC verification failed (roll-forward or "
                      "roll-back attack, Table I)")
        else:
            detail = ("Recovery_root mismatch (replay/roll-back attack, "
                      "Table I)")
        return RecoveryReport(
            scheme=self.name, success=success,
            root_matched=result.root_matched,
            leaf_hmac_failures=result.leaf_hmac_failures,
            metadata_reads=reads,
            metadata_writes=result.metadata_writes,
            recovery_seconds=seconds,
            detail=detail)

    def _recover_targeted(self) -> RecoveryReport:
        """STAR/AGIT-accelerated recovery: rebuild only the nodes that
        were dirty at crash time, then verify the Recovery_root."""
        from repro.crash.fast_recovery import targeted_reconstruction
        result = targeted_reconstruction(self, self.tracker.stale_coords())
        success = result.clean
        if success:
            self.running_root.restore(result.root_counters)
            self.tracker.reset()
            detail = (f"targeted ({self.tracker.name}) recovery rebuilt "
                      f"{result.stale_rebuilt} stale nodes; "
                      "Recovery_root matched")
        elif result.leaf_hmac_failures:
            detail = "stale-leaf HMAC verification failed"
        else:
            detail = "Recovery_root mismatch after targeted rebuild"
        return RecoveryReport(
            scheme=self.name, success=success,
            root_matched=result.root_matched,
            leaf_hmac_failures=result.leaf_hmac_failures,
            metadata_reads=result.metadata_reads,
            metadata_writes=result.metadata_writes,
            recovery_seconds=result.recovery_seconds,
            detail=detail)

    def onchip_overhead_bytes(self) -> int:
        """Two 64 B non-volatile registers (§V-F)."""
        return 2 * ROOT_REGISTER_BYTES
