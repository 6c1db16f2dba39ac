"""SITStore: typed (de)serialisation against media addresses."""

import pytest

from repro.cme.counters import CounterBlock
from repro.mem.address import AddressMap
from repro.mem.nvm import NVMDevice
from repro.tree.node import SITNode
from repro.tree.store import SITStore


@pytest.fixture
def store():
    amap = AddressMap(1024 * 1024)
    return SITStore(NVMDevice(amap.total_capacity), amap)


class TestRoundtrips:
    def test_leaf_roundtrip(self, store):
        leaf = CounterBlock(5)
        leaf.bump(7)
        leaf.hmac = 0x1234
        store.save(leaf)
        loaded = store.load(0, 5)
        assert isinstance(loaded, CounterBlock)
        assert loaded.minors == leaf.minors
        assert loaded.hmac == leaf.hmac

    def test_node_roundtrip(self, store):
        node = SITNode(1, 3, counters=[1, 2, 3, 4, 5, 6, 7, 8], hmac=9)
        store.save(node)
        loaded = store.load(1, 3)
        assert isinstance(loaded, SITNode)
        assert loaded.counters == node.counters
        assert loaded.hmac == 9

    def test_fresh_node_loads_blank(self, store):
        assert store.load(1, 0).is_blank

    def test_save_returns_media_address(self, store):
        node = SITNode(1, 3)
        assert store.save(node) == store.node_addr(1, 3)
        leaf = CounterBlock(2)
        assert store.save(leaf) == store.amap.counter_block_addr(2)


class TestWrittenLeaves:
    def test_lists_stored_counter_blocks_in_index_order(self, store):
        for index in (9, 2, 5):
            leaf = CounterBlock(index)
            leaf.bump(index)
            store.save(leaf, counted=False)
        store.save(SITNode(1, 0), counted=False)  # not a leaf
        leaves = store.written_leaves()
        assert [leaf.index for leaf in leaves] == [2, 5, 9]
        assert all(leaf.minors[leaf.index] == 1 for leaf in leaves)

    def test_fresh_media_holds_no_leaves(self, store):
        assert store.written_leaves() == []


class TestAccessCounting:
    def test_counted_accesses_hit_device_stats(self, store):
        store.save(SITNode(1, 0), counted=True)
        store.load(1, 0, counted=True)
        assert store.nvm.stats.counter("writes").value == 1
        assert store.nvm.stats.counter("reads").value == 1

    def test_uncounted_accesses_are_silent(self, store):
        store.save(SITNode(1, 0), counted=False)
        store.load(1, 0, counted=False)
        assert store.nvm.stats.counter("writes").value == 0
        assert store.nvm.stats.counter("reads").value == 0


class TestCoords:
    def test_coords_of_leaf(self, store):
        assert store.coords_of(CounterBlock(4)) == (0, 4)

    def test_coords_of_node(self, store):
        assert store.coords_of(SITNode(2, 1)) == (2, 1)
