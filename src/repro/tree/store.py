"""Typed access to the SIT's on-media image.

The metadata regions of the NVM hold raw 64 B lines; :class:`SITStore`
(de)serialises them into :class:`~repro.cme.counters.CounterBlock` leaves
(level 0) and :class:`~repro.tree.node.SITNode` intermediates, so the
memory controller, crash machinery, recovery and attack injection all share
one definition of what lives where.

``counted=True`` routes through the device's access-counting path (runtime
traffic); ``counted=False`` uses peek/poke (recovery-time and test
inspection, accounted separately by the recovery cost model).
"""

from __future__ import annotations

from repro.cme.counters import CounterBlock
from repro.mem.address import CACHE_LINE_SIZE, AddressMap
from repro.mem.nvm import NVMDevice
from repro.tree.node import SITNode

TreeNode = CounterBlock | SITNode


class SITStore:
    """Load/save SIT nodes to their media addresses."""

    def __init__(self, nvm: NVMDevice, amap: AddressMap) -> None:
        self.nvm = nvm
        self.amap = amap
        # node_addr is pure delegation on the per-access path; binding the
        # translator once drops a call frame per node-address lookup.
        self.node_addr = amap.tree_node_addr

    def node_addr(self, level: int, index: int) -> int:
        """Media address of node ``(level, index)`` (bound directly to
        :meth:`AddressMap.tree_node_addr` in ``__init__``)."""
        return self.amap.tree_node_addr(level, index)

    def load(self, level: int, index: int, counted: bool = True) -> TreeNode:
        """Deserialise the node at ``(level, index)`` from media."""
        addr = self.node_addr(level, index)
        raw = self.nvm.read_line(addr) if counted else self.nvm.peek_line(addr)
        if level == 0:
            return CounterBlock.from_bytes(index, raw)
        return SITNode.from_bytes(level, index, raw, arity=self.amap.arity)

    def written_leaves(self) -> list[CounterBlock]:
        """Every counter block the media holds, in index order, read
        without counting accesses.

        A block missing from the list was never written: it is blank, its
        dummy counter is 0, and it verifies only against a zero parent
        counter.  Recovery scans therefore visit these blocks alone and
        cost what was written, not ``num_counter_blocks``.
        """
        base = self.amap.counter_base
        return [CounterBlock.from_bytes((addr - base) // CACHE_LINE_SIZE, raw)
                for addr, raw in self.nvm.stored_lines(base,
                                                       self.amap.tree_base)]

    def save(self, node: TreeNode, counted: bool = True) -> int:
        """Serialise ``node`` back to its media address; returns the
        address (handy for WPQ accounting)."""
        if isinstance(node, CounterBlock):
            addr = self.amap.counter_block_addr(node.index)
        else:
            addr = self.node_addr(node.level, node.index)
        raw = node.to_bytes()
        if counted:
            self.nvm.write_line(addr, raw)
        else:
            self.nvm.poke_line(addr, raw)
        return addr

    def coords_of(self, node: TreeNode) -> tuple[int, int]:
        if isinstance(node, CounterBlock):
            return 0, node.index
        return node.level, node.index
