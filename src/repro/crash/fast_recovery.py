"""Targeted (STAR/AGIT-style) reconstruction — functional fast recovery.

Full counter-summing recovery (§IV-B) reads every counter block.  With a
staleness tracker (STAR's bitmap lines or Anubis's shadow table, §V-D),
only the nodes that were dirty in the metadata cache at crash time need
rebuilding: everything else on media is already consistent.  This module
performs that *actual* targeted rebuild — the trackers' read-count
formulas price it; this code does it:

1. group the tracker's stale coordinates by level, bottom-up;
2. rebuild each stale node's counters from its children's dummy counters
   (children are either consistent on media or lower-level stale nodes
   already rebuilt this pass), seal with its own dummy, write back;
3. recompute the root counters from the (now consistent) top level and
   compare with the ``Recovery_root``.

The result must equal a full reconstruction — a property the test suite
checks on random crash states — while touching only
``O(stale x arity + top_level)`` nodes instead of every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cme.counters import CounterBlock
from repro.crash.recovery import METADATA_FETCH_NS
from repro.tree.node import SITNode


@dataclass
class TargetedRecoveryResult:
    """Outcome of a targeted rebuild."""

    root_counters: list[int]
    root_matched: bool
    stale_rebuilt: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0
    leaf_hmac_failures: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.root_matched and not self.leaf_hmac_failures

    @property
    def recovery_seconds(self) -> float:
        return self.metadata_reads * METADATA_FETCH_NS * 1e-9


def _child_dummy(controller, level: int, index: int, bits: int,
                 result: TargetedRecoveryResult) -> int:
    node = controller.store.load(level, index, counted=False)
    result.metadata_reads += 1
    if isinstance(node, CounterBlock):
        return node.dummy_counter(bits)
    return node.dummy_counter()


def targeted_reconstruction(controller,
                            stale: set[tuple[int, int]]
                            ) -> TargetedRecoveryResult:
    """Rebuild only the ``stale`` nodes of a SCUE system, then verify the
    Recovery_root (see module docstring).

    ``stale`` comes from the tracker's crash-time snapshot
    (``controller.tracker.stale_coords()``).  Staleness is *transitive*:
    SCUE propagates counter updates upward only when a child flushes, so
    every ancestor of a dirty node is out of date on media even though it
    was never dirtied itself — the rebuild set is the ancestor closure of
    the tracked set.

    Stale *leaves* cannot be rebuilt from below (they are the ground
    truth) — a stale leaf means the persistence discipline was violated;
    such configurations should recover via the Osiris path instead, so
    leaves in ``stale`` are verified rather than rebuilt.

    Security model (same as STAR/Anubis): attacks inside stale subtrees
    are caught here (leaf HMACs + root sum); attacks on *untouched*
    subtrees are caught lazily, by runtime verification on first access —
    the media there is trusted-as-written and the root comparison covers
    only what was rebuilt.
    """
    amap = controller.amap
    mac = controller.mac
    store = controller.store
    bits = amap.counter_bits
    result = TargetedRecoveryResult(root_counters=[], root_matched=False)

    # Ancestor closure: every ancestor of a tracked node is stale too.
    stale = set(stale)
    for level, index in list(stale):
        while level + 1 < amap.tree_levels:
            level, index = amap.parent_coords(level, index)
            stale.add((level, index))

    # Leaf-level staleness: verify the persisted image is self-consistent.
    for level, index in sorted(coord for coord in stale if coord[0] == 0):
        leaf = store.load(0, index, counted=False)
        result.metadata_reads += 1
        addr = amap.counter_block_addr(index)
        if not leaf.verify(mac, addr, leaf.dummy_counter(bits)):
            result.leaf_hmac_failures.append(index)

    # Rebuild stale intermediate nodes bottom-up.
    by_level: dict[int, list[int]] = {}
    for level, index in stale:
        if level >= 1:
            by_level.setdefault(level, []).append(index)
    for level in sorted(by_level):
        for index in sorted(set(by_level[level])):
            counters = [0] * amap.arity
            for child_level, child_index in amap.child_coords(level, index):
                slot = amap.parent_slot(child_index)
                counters[slot] = _child_dummy(controller, child_level,
                                              child_index, bits, result)
            node = SITNode(level, index, counters=counters,
                           arity=amap.arity)
            node.seal(mac, store.node_addr(level, index),
                      node.dummy_counter())
            store.save(node, counted=False)
            result.metadata_writes += 1
            result.stale_rebuilt += 1

    # Root comparison over the (now consistent) top level.
    top = amap.tree_levels - 1
    dummies = []
    for index in range(amap.level_width(top)):
        dummies.append(_child_dummy(controller, top, index, bits, result))
    result.root_counters = dummies + [0] * (amap.arity - len(dummies))
    result.root_matched = \
        controller.recovery_root.matches(result.root_counters)
    return result
