"""BMF-ideal — Bonsai Merkle Forests, ideal case (Freij et al., MICRO'21;
paper §V-A, §VI).

BMF splits one big tree into a forest of small trees whose roots live in a
non-volatile metadata cache (nvMC).  In the *ideal* case the nvMC is
unbounded and every counter block's parent is a persistent root: the tree
effectively ends at level 1, writes update the counter block plus its
always-resident, always-persistent parent, and nothing ever propagates
higher.

That makes BMF-ideal fast (no ancestor traffic at all — it even beats lazy
on metadata accesses by ~8.7%, §V-E) and crash consistent (the roots are
persistent by construction).  The cost is the elephant in §V-F/§VI: the
nvMC must be built from high-speed non-volatile on-chip storage sized
proportionally to the NVM — hundreds of MB for a 16 GB part — which is the
overhead SCUE's two 64 B registers exist to avoid.
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.errors import SimulationError
from repro.mem.address import CACHE_LINE_SIZE
from repro.obs import events as ev
from repro.secure.base import RecoveryReport, SecureMemoryController
from repro.tree.node import SITNode
from repro.tree.store import TreeNode


class BMFIdealController(SecureMemoryController):
    """Unbounded-nvMC Bonsai Merkle Forest on SIT leaves."""

    name = "bmf-ideal"
    crash_consistent_root = True

    def __init__(self, config, recorder=None) -> None:
        super().__init__(config, recorder)
        #: The persistent roots: level-1 nodes, keyed by index.  Plain
        #: dict rather than a cache — the ideal nvMC never evicts and
        #: survives crashes.
        self._nvmc: dict[int, SITNode] = {}

    def _persistent_root(self, index: int) -> SITNode:
        node = self._nvmc.get(index)
        if node is None:
            node = SITNode(1, index, arity=self.amap.arity)
            self._nvmc[index] = node
        return node

    # ------------------------------------------------------------------
    # The tree ends at level 1: fetches of level >= 1 hit the nvMC.
    # ------------------------------------------------------------------
    def _fetch_chain(self, level: int, index: int) -> tuple[TreeNode, int, int]:
        if level == 1:
            return self._persistent_root(index), 0, 0
        if level > 1:
            raise SimulationError(
                "BMF-ideal has no tree levels above the persistent roots")
        return super()._fetch_chain(level, index)

    # ------------------------------------------------------------------
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        root = self._persistent_root(leaf_index // self.amap.arity)
        slot = self.amap.parent_slot(leaf_index)
        root.bump_counter(slot, dummy_delta)
        addr = self.amap.counter_block_addr(leaf_index)
        leaf.seal(self.mac, addr, root.counter(slot))
        hash_latency = self.hash_engine.charge(1)
        wpq_stall = self._persist_node(leaf, cycle) \
            if self.config.leaf_write_through else 0
        if self.obs.enabled:
            self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                             register="nvmc", leaf=leaf_index)
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             cycles=hash_latency + wpq_stall)
        return hash_latency + wpq_stall

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        if not isinstance(node, CounterBlock):
            raise SimulationError(
                "BMF-ideal never caches nodes above the leaf level")
        root = self._persistent_root(node.index // self.amap.arity)
        slot = self.amap.parent_slot(node.index)
        root.bump_counter(slot, 1)
        addr = self.amap.counter_block_addr(node.index)
        node.seal(self.mac, addr, root.counter(slot))
        self.hash_engine.charge(1)
        stall = self._persist_node(node, cycle)
        if self.obs.enabled:
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=0, index=node.index,
                             cycles=stall)
        return stall

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Verify every persisted counter block against its persistent
        root — no reconstruction needed, the roots never went stale.

        Only the blocks the media holds are read back.  A never-written
        block is blank and verifies only against a zero root counter, so
        the nvMC is swept for non-zero counters whose block never reached
        media (possible without leaf write-through).  Roots are read with
        ``dict.get``: a missing one means all-zero counters, and recovery
        does not grow the nvMC."""
        amap, arity = self.amap, self.amap.arity
        failures: list[int] = []
        written: set[int] = set()
        for leaf in self.store.written_leaves():
            index = leaf.index
            written.add(index)
            root = self._nvmc.get(index // arity)
            parent = 0 if root is None else root.counter(index % arity)
            if not leaf.verify(self.mac, amap.counter_block_addr(index),
                               parent):
                failures.append(index)
        for root_index, root in self._nvmc.items():
            for slot, counter in enumerate(root.counters):
                index = root_index * arity + slot
                if counter and index not in written:
                    failures.append(index)
        failures.sort()
        reads = amap.num_counter_blocks
        success = not failures
        return RecoveryReport(
            scheme=self.name, success=success, root_matched=success,
            leaf_hmac_failures=failures, metadata_reads=reads,
            recovery_seconds=reads * 100e-9,
            detail="persistent roots in nvMC survived the crash"
            if success else "leaf verification against nvMC roots failed")

    def onchip_overhead_bytes(self) -> int:
        """The unbounded nvMC, sized for the whole NVM: one persistent
        64 B root per 8 counter blocks (§V-F reports the paper's own
        figure alongside this in the benchmark)."""
        roots = self.amap.level_width(1) if self.amap.tree_levels > 1 \
            else 1
        return roots * CACHE_LINE_SIZE
