"""Counter-summing reconstruction of the SIT (paper §IV-B, Fig 8).

The insight that makes SIT recoverable bottom-up: under counter-summing
updates a parent counter equals the modular sum of all counters in its
child node (the child's *dummy counter*).  Recovery therefore:

1. reads the persisted counter blocks (the consistent leaf level) — the
   ones the media holds; a never-written block is blank, adds 0 to every
   sum and verifies against its own zero dummy, so skipping it changes
   nothing,
2. verifies each leaf's HMAC against its own dummy counter — the value it
   was sealed with at persist time — which catches **roll-forward** and
   non-replay **roll-back** attacks (Table I, row 1),
3. rebuilds every intermediate level by grouping child dummies eight at a
   time, as sparse ``{index: counters}`` maps of the nodes with a
   written descendant,
4. compares the rebuilt root counters with the on-chip Recovery_root,
   which catches **replay/roll-back** attacks (Table I, row 2), and
5. on success seals every node of every level — blank subtrees included,
   each with its own dummy — and writes the rebuilt tree back to media so
   runtime verification resumes from a consistent image.  A blank node
   (absent from its level's map: zero counters, parent counter 0) has a
   constant image, so its line is that image plus the MAC of its address
   alone, hashed from one keyed state copied per node
   (:meth:`SITNode.blank_line`); the nodes with a written descendant
   are built and sealed as ``SITNode`` objects.  Both write the same
   lines, in the same order, that sealing every node would.

The same routine doubles as the "reconstruct and compare" recovery attempt
for the Lazy and Eager baselines — demonstrating the root crash
inconsistency problem: their stored root does not match the rebuilt one
even though no attack occurred (§III-B, Fig 5b).

Cost model (§V-D): recovery time is dominated by metadata reads at 100 ns
apiece.  ``metadata_reads`` is that modelled count — every counter block
of the leaf level, as the hardware must read them all — not the host
work, which visits only the blocks the media holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.address import AddressMap
from repro.secure.roots import RootRegister
from repro.tree.node import SITNode
from repro.tree.store import SITStore
from repro.util.crypto import KeyedMac

METADATA_FETCH_NS = 100.0
COUNTER_BITS = 56


@dataclass
class ReconstructionResult:
    """Everything the counter-summing pass learned."""

    root_counters: list[int]
    root_matched: bool
    leaf_hmac_failures: list[int] = field(default_factory=list)
    metadata_reads: int = 0
    metadata_writes: int = 0
    rebuilt_levels: int = 0

    @property
    def clean(self) -> bool:
        """True when no integrity violation of any kind was detected."""
        return self.root_matched and not self.leaf_hmac_failures

    @property
    def recovery_seconds(self) -> float:
        return self.metadata_reads * METADATA_FETCH_NS * 1e-9


def group_by_parent(children: dict[int, int],
                    arity: int) -> dict[int, list[int]]:
    """Sparse parent vectors: ``{parent index: arity child values}`` for
    every parent with a child in ``children``; a child absent from the
    map was never written and contributes 0."""
    groups: dict[int, list[int]] = {}
    for index, value in children.items():
        vector = groups.get(index // arity)
        if vector is None:
            vector = groups[index // arity] = [0] * arity
        vector[index % arity] = value
    return groups


def counter_summing_reconstruction(
        store: SITStore, amap: AddressMap, mac: KeyedMac,
        recovery_root: RootRegister,
        write_back: bool = True) -> ReconstructionResult:
    """Rebuild the SIT bottom-up from persisted counter blocks and compare
    against the on-chip ``recovery_root`` (see module docstring).

    ``write_back=False`` performs a dry-run comparison without touching
    media (used when demonstrating recovery *failures*, where rewriting
    the tree would be wrong)."""
    result = ReconstructionResult(root_counters=[], root_matched=False,
                                  metadata_reads=amap.num_counter_blocks)
    bits, arity = amap.counter_bits, amap.arity
    mask = (1 << bits) - 1

    # -- Step 1+2: read and verify the leaf level --------------------
    dummies: dict[int, int] = {}
    for leaf in store.written_leaves():
        dummy = dummies[leaf.index] = leaf.dummy_counter(bits)
        if not leaf.verify(mac, amap.counter_block_addr(leaf.index), dummy):
            result.leaf_hmac_failures.append(leaf.index)

    # -- Step 3: rebuild intermediate levels -------------------------
    # A node absent from its level's map has no written descendant: its
    # counters and its dummy are all zero.
    levels: list[dict[int, list[int]]] = []
    for _ in range(1, amap.tree_levels):
        groups = group_by_parent(dummies, arity)
        levels.append(groups)
        dummies = {index: sum(counters) & mask
                   for index, counters in groups.items()}
        result.rebuilt_levels += 1

    # -- Step 4: root comparison -------------------------------------
    result.root_counters = [dummies.get(slot, 0) for slot in range(arity)]
    result.root_matched = recovery_root.matches(result.root_counters)

    # -- Step 5: write back on a clean recovery ----------------------
    if write_back and result.clean:
        keyed = mac.keyed_state()
        blank_line = SITNode.blank_line
        node_addr, poke = store.node_addr, store.nvm.poke_line
        for level, groups in enumerate(levels, start=1):
            width = amap.level_width(level)
            for index in range(width):
                counters = groups.get(index)
                if counters is None:
                    addr = node_addr(level, index)
                    poke(addr, blank_line(keyed, addr))
                    continue
                node = SITNode(level, index, counters=counters, arity=arity)
                node.seal(mac, node_addr(level, index), node.dummy_counter())
                store.save(node, counted=False)
            result.metadata_writes += width
    return result
