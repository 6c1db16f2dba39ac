"""The three-level CPU cache hierarchy: inclusive placement, dirty
write-back spilling, and the writeback stream the controller sees."""

from hypothesis import given, settings, strategies as st

from repro.mem.hierarchy import CacheHierarchy, HierarchyConfig


def tiny_hierarchy() -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(
        l1_size=2 * 64 * 2, l1_ways=2,      # 2 sets x 2 ways
        l2_size=4 * 64 * 2, l2_ways=2,
        l3_size=8 * 64 * 2, l3_ways=2))


class TestLoads:
    def test_cold_load_misses_to_memory(self):
        h = tiny_hierarchy()
        result = h.load(0)
        assert result.miss_to_memory
        assert result.hit_level == 0

    def test_second_load_hits_l1(self):
        h = tiny_hierarchy()
        h.load(0)
        result = h.load(0)
        assert not result.miss_to_memory
        assert result.hit_level == 1

    def test_l2_hit_promotes_to_l1(self):
        h = tiny_hierarchy()
        h.load(0)
        h.l1.invalidate(0)
        assert h.load(0).hit_level == 2
        assert h.load(0).hit_level == 1

    def test_l3_hit_promotes_inward(self):
        h = tiny_hierarchy()
        h.load(0)
        h.l1.invalidate(0)
        h.l2.invalidate(0)
        assert h.load(0).hit_level == 3
        assert h.load(0).hit_level == 1

    def test_a_line_evicted_from_l2_and_l3_at_once_keeps_its_store(self):
        """Line 0's dirty bit has spilled from L1 into L2 when one
        install evicts it from L2 and L3 together: it is written back,
        not lost."""
        h = tiny_hierarchy()
        h.store(0)
        writebacks = []
        for addr in (512, 128, 1024):
            writebacks += h.load(addr).writebacks
        assert writebacks == [0]
        assert h.drop_all() == []


class TestStores:
    def test_store_hit_never_misses_to_memory(self):
        h = tiny_hierarchy()
        h.load(0)
        assert not h.store(0).miss_to_memory

    def test_store_miss_allocates(self):
        h = tiny_hierarchy()
        result = h.store(0)
        assert result.miss_to_memory  # write-allocate fill
        assert h.load(0).hit_level == 1

    def test_store_dirties_line(self):
        h = tiny_hierarchy()
        h.store(0)
        assert h.l1.peek(0) is True


class TestPersist:
    def test_persist_leaves_line_clean(self):
        h = tiny_hierarchy()
        h.store(0)
        h.persist(0)
        assert h.l1.peek(0) is False

    def test_persist_cleans_all_levels(self):
        h = tiny_hierarchy()
        h.store(0)
        h.persist(0)
        for cache in (h.l1, h.l2, h.l3):
            assert not cache.peek(0)    # absent (None) or clean

    def test_persist_miss_installs(self):
        h = tiny_hierarchy()
        result = h.persist(0)
        assert result.miss_to_memory
        assert h.load(0).hit_level == 1


class TestWritebacks:
    def test_dirty_line_eventually_written_back(self):
        h = tiny_hierarchy()
        h.store(0)
        writebacks = []
        # Fill the (tiny) hierarchy with conflicting clean lines until the
        # dirty line is forced out of L3.
        for i in range(1, 64):
            writebacks += h.load(i * 128).writebacks
        assert 0 in writebacks

    def test_clean_lines_never_written_back(self):
        h = tiny_hierarchy()
        writebacks = []
        for i in range(64):
            writebacks += h.load(i * 128).writebacks
        assert writebacks == []

    def test_writeback_only_once(self):
        h = tiny_hierarchy()
        h.store(0)
        writebacks = []
        for i in range(1, 128):
            writebacks += h.load(i * 128).writebacks
        assert writebacks.count(0) == 1

    def test_dirty_spills_through_levels(self):
        """A dirty L1 victim must not lose its dirtiness: it spills to L2,
        then L3, and finally surfaces as a writeback."""
        h = tiny_hierarchy()
        h.store(0)               # dirty in L1 (set 0)
        h.load(128)              # conflicts in L1 set 0
        h.load(256)              # evicts line 0 from L1 -> spills to L2
        assert h.l1.peek(0) or h.l2.peek(0) or h.l3.peek(0)


class TestNoStoreIsLost:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("load", "store", "persist")),
                              st.integers(0, 31)),
                    min_size=1, max_size=60))
    def test_every_unwritten_store_is_dirty_at_the_end(self, ops):
        """A line stored and since then neither persisted nor written
        back must still be dirty somewhere: ``drop_all`` lists it."""
        h = tiny_hierarchy()
        unwritten: set[int] = set()
        for kind, index in ops:
            addr = index * 64
            unwritten.difference_update(getattr(h, kind)(addr).writebacks)
            if kind == "store":
                unwritten.add(addr)
            elif kind == "persist":
                unwritten.discard(addr)
        assert unwritten <= set(h.drop_all())


class TestSharedOutcomes:
    """Writeback-free outcomes are shared constants: an access that
    writes nothing back allocates nothing, in either engine."""

    def test_two_l1_hits_return_the_same_object(self):
        h = tiny_hierarchy()
        h.load(0)
        first = h.load(0)
        assert first.hit_level == 1
        assert h.load(0) is first
        assert h.store(0) is first
        assert h.persist(0) is first

    def test_writeback_free_misses_share_one_outcome(self):
        h = tiny_hierarchy()
        first = h.load(0)
        assert first.miss_to_memory and first.writebacks == ()
        assert h.load(64) is first
        assert h.persist(128) is first


class TestCrash:
    def test_drop_all_reports_dirty_lines(self):
        h = tiny_hierarchy()
        h.store(0)
        h.store(64)
        h.load(128)
        dirty = h.drop_all()
        assert set(dirty) == {0, 64}

    def test_drop_all_empties_hierarchy(self):
        h = tiny_hierarchy()
        h.store(0)
        h.drop_all()
        assert h.load(0).miss_to_memory


class TestConfig:
    def test_table2_defaults(self):
        config = HierarchyConfig()
        assert config.l1_size == 64 * 1024
        assert config.l2_size == 512 * 1024
        assert config.l3_size == 4 * 1024 * 1024
        h = CacheHierarchy(config)
        assert h.l1.ways == 2
        assert h.l2.ways == 8
        assert h.l3.ways == 8
