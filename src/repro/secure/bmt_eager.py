"""An eager Bonsai-Merkle-Tree controller — the cross-tree comparison
point for §II-D4.

The paper picks SIT over BMT because SIT's branch HMACs are independent
once counters are bumped (one parallel hash burst per update), while a
BMT must hash *sequentially*: each level's digest is an input to the next
(``levels x hash latency`` on every update).  This controller implements
a faithful eager BMT over the same substrate — counter blocks as leaves,
8-digest intermediate nodes, an on-chip root digest — so the two designs
can be swept against hash latency side by side
(``benchmarks/test_ablation_sit_vs_bmt.py``).

BMT nodes are naturally reconstructible bottom-up (high levels are pure
functions of low levels, §III-D), so recovery rebuilds digests from the
persisted leaves and compares the root — no counter-summing needed.  The
root digest register is updated atomically with the persist here (we are
comparing *hashing structure*, not crash windows; give BMT the same
consistent-root courtesy as PLP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cme.counters import CounterBlock
from repro.crash.recovery import group_by_parent
from repro.errors import ConfigError, IntegrityError
from repro.mem.address import CACHE_LINE_SIZE
from repro.obs import events as ev
from repro.secure.base import (
    RecoveryReport,
    SecureMemoryController,
    expect_node,
)
from repro.tree.store import TreeNode

DIGEST_BITS = 64


@dataclass
class BMTMediaNode:
    """An intermediate BMT node: ``arity`` 64-bit child digests."""

    level: int
    index: int
    digests: list[int] | None = None
    arity: int = 8
    #: BMT nodes carry no self-MAC; parity with SITNode's interface.
    hmac_stale: bool = False

    def __post_init__(self) -> None:
        if self.digests is None:
            self.digests = [0] * self.arity
        if len(self.digests) != self.arity:
            raise ConfigError(
                f"BMT node needs {self.arity} digests")

    @property
    def is_blank(self) -> bool:
        return not any(self.digests)

    def set_digest(self, slot: int, digest: int) -> None:
        self.digests[slot] = digest & ((1 << DIGEST_BITS) - 1)
        self.hmac_stale = True

    def digest(self, slot: int) -> int:
        return self.digests[slot]

    def to_bytes(self) -> bytes:
        out = b"".join(d.to_bytes(8, "little") for d in self.digests)
        return out.ljust(CACHE_LINE_SIZE, b"\0")[:CACHE_LINE_SIZE]

    @classmethod
    def from_bytes(cls, level: int, index: int, data: bytes,
                   arity: int = 8) -> "BMTMediaNode":
        digests = [int.from_bytes(data[i * 8:(i + 1) * 8], "little")
                   for i in range(arity)]
        return cls(level, index, digests, arity)


class BMTEagerController(SecureMemoryController):
    """Eager BMT: sequential digest propagation on every persist."""

    name = "bmt-eager"
    crash_consistent_root = True
    #: The defining property: BMT hashing is a chain, not a burst.
    parallel_hashing = False

    def __init__(self, config, recorder=None) -> None:
        super().__init__(config, recorder)
        if self.amap.arity != 8:
            raise ConfigError("the BMT comparison point is 8-ary")
        #: On-chip root: one digest per top-level node (a 64 B register,
        #: the BMT analogue of SIT's root counters).
        self.root_digests = [0] * self.amap.arity

    # ==================================================================
    # Digest plumbing
    # ==================================================================
    def _digest_of(self, node: TreeNode) -> int:
        """Digest of a node's media image (keyed, address-bound)."""
        level, index = self.store.coords_of(node)
        return self.mac.mac(self.store.node_addr(level, index),
                            node.to_bytes())

    def _load_bmt(self, level: int, index: int) -> BMTMediaNode:
        raw = self.nvm.read_line(self.store.node_addr(level, index))
        self._meta_reads.add()
        return BMTMediaNode.from_bytes(level, index, raw, self.amap.arity)

    # ==================================================================
    # Fetch & verify: digest chain instead of counter MACs
    # ==================================================================
    def _fetch_chain(self, level: int, index: int) -> tuple[TreeNode, int, int]:
        line = self.store.node_addr(level, index)
        hit = self.meta_cache.lookup(line)
        if hit is not None:
            return hit.payload, 0, 0
        buffered = self._victim_buffer.get(line)
        if buffered is not None:
            return buffered, 0, 0
        expected, latency, fetched = self._expected_digest(level, index)
        hit = self.meta_cache.peek(line)
        if hit is not None:
            return hit.payload, latency, fetched
        latency = max(latency, self.nvm.read_latency(line))
        if level == 0:
            raw = self.nvm.read_line(line)
            self._meta_reads.add()
            node: TreeNode = CounterBlock.from_bytes(index, raw)
        else:
            node = self._load_bmt(level, index)
        if not (node.is_blank and expected == 0) \
                and self._digest_of(node) != expected:
            raise IntegrityError(
                f"{self.name}: digest mismatch for node "
                f"(level {level}, index {index})")
        self._install(line, node, dirty=False)
        return node, latency, fetched + 1

    def _expected_digest(self, level: int,
                         index: int) -> tuple[int, int, int]:
        if level + 1 >= self.amap.tree_levels:
            return self.root_digests[index % self.amap.arity], 0, 0
        plevel, pindex = self.amap.parent_coords(level, index)
        parent, latency, fetched = self._fetch_chain(plevel, pindex)
        expect_node(parent, BMTMediaNode, "bmt-eager: digest chain")
        return parent.digest(self.amap.parent_slot(index)), latency, fetched

    # ==================================================================
    # Eager update: sequential re-hash of the branch
    # ==================================================================
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        fetch_latency = 0
        current: TreeNode = leaf
        level, index = 0, leaf_index
        hashes = 0
        while level + 1 < self.amap.tree_levels:
            plevel, pindex = self.amap.parent_coords(level, index)
            parent, latency = self.fetch_node(plevel, pindex, charge=True)
            fetch_latency += latency
            expect_node(parent, BMTMediaNode, "bmt-eager: branch re-hash")
            parent.set_digest(self.amap.parent_slot(index),
                              self._digest_of(current))
            hashes += 1
            self._mark_dirty(parent)
            current, level, index = parent, plevel, pindex
        self.root_digests[index % self.amap.arity] = \
            self._digest_of(current)
        hashes += 1
        # The BMT chain: each digest feeds the next level's input.
        hash_latency = self.hash_engine.charge(hashes, parallel=False)
        wpq_stall = self._persist_node(leaf, cycle) \
            if self.config.leaf_write_through else 0
        if self.obs.enabled:
            self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                             register="root_digest",
                             slot=index % self.amap.arity)
            self.obs.instant(ev.EV_LEAF_PERSIST, ev.TRACK_CTL,
                             scheme=self.name, leaf=leaf_index,
                             cycles=fetch_latency + hash_latency + wpq_stall)
        return fetch_latency + hash_latency + wpq_stall

    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        # Digests were maintained eagerly; the image is current.
        stall = self._persist_node(node, cycle)
        if self.obs.enabled:
            level, index = self.store.coords_of(node)
            self.obs.instant(ev.EV_META_FLUSH, ev.TRACK_CTL,
                             scheme=self.name, level=level, index=index,
                             cycles=stall)
        return stall

    # ==================================================================
    # Recovery: rebuild digests bottom-up (BMT's native strength)
    # ==================================================================
    def recover(self) -> RecoveryReport:
        amap, arity = self.amap, self.amap.arity
        # Only the leaves the media holds are read back: a never-written
        # leaf is blank, and a blank node's digest is 0.  Intermediate
        # levels are sparse maps of the nodes with a non-zero child.
        digests = {leaf.index: self._digest_of(leaf)
                   for leaf in self.store.written_leaves()
                   if not leaf.is_blank}
        levels: list[dict[int, BMTMediaNode]] = []
        for level in range(1, amap.tree_levels):
            nodes = {index: BMTMediaNode(level, index, chunk, arity)
                     for index, chunk
                     in group_by_parent(digests, arity).items()}
            digests = {index: self._digest_of(node)
                       for index, node in nodes.items() if not node.is_blank}
            levels.append(nodes)
        rebuilt_roots = [digests.get(slot, 0) for slot in range(arity)]
        success = rebuilt_roots == self.root_digests
        writes = 0
        if success:
            # Every node of every level, blank ones included.
            for level, nodes in enumerate(levels, start=1):
                for index in range(amap.level_width(level)):
                    node = nodes.get(index) \
                        or BMTMediaNode(level, index, arity=arity)
                    self.store.save(node, counted=False)
                    writes += 1
        reads = amap.num_counter_blocks
        return RecoveryReport(
            scheme=self.name, success=success, root_matched=success,
            metadata_reads=reads, metadata_writes=writes,
            recovery_seconds=reads * 100e-9,
            detail="BMT rebuilt bottom-up; root digest matched"
            if success else "rebuilt root digest mismatch")

    def onchip_overhead_bytes(self) -> int:
        return self.amap.arity * DIGEST_BITS // 8  # the root digests
