"""The set-associative caches (the metadata cache's payload lines and
the CPU levels' dirty-bit tags), including a hypothesis model check of
LRU and dirty-bit behaviour against a reference implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mem.cache import SetAssociativeCache, TagCache


def small_cache(ways=2, sets=2) -> SetAssociativeCache:
    return SetAssociativeCache(64 * ways * sets, ways=ways)


class TestBasics:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0) is None
        cache.insert(0)
        assert cache.lookup(0) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_peek_and_mark_do_not_touch_stats(self):
        cache = small_cache()
        cache.insert(0)
        cache.peek(0)
        cache.peek(64)
        assert cache.stats.accesses == 0
        tags = TagCache(64 * 2 * 2, ways=2)
        tags.insert(0)
        tags.mark(0, True)
        tags.mark(64, True)     # absent: stays absent
        assert tags.peek(0) is True
        assert tags.peek(64) is None
        assert tags.stats.accesses == 0

    def test_peek_does_not_touch_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.insert(0)
        cache.insert(64)
        cache.peek(0)           # would refresh 0 if it were a lookup
        victim = cache.insert(128)
        assert victim.addr == 0  # 0 is still LRU

    def test_lookup_refreshes_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.insert(0)
        cache.insert(64)
        cache.lookup(0)
        victim = cache.insert(128)
        assert victim.addr == 64

    def test_payload_stored(self):
        cache = small_cache()
        cache.insert(0, payload="node")
        assert cache.lookup(0).payload == "node"

    def test_insert_existing_updates_payload_and_dirty(self):
        cache = small_cache()
        cache.insert(0, payload="a", dirty=False)
        victim = cache.insert(0, payload="b", dirty=True)
        assert victim is None
        line = cache.peek(0)
        assert line.payload == "b"
        assert line.dirty

    def test_dirty_sticky_on_reinsert(self):
        cache = small_cache()
        cache.insert(0, dirty=True)
        cache.insert(0, dirty=False)
        assert cache.peek(0).dirty

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(100, ways=8)


class TestEviction:
    def test_victim_returned(self):
        cache = small_cache(ways=1, sets=1)
        cache.insert(0)
        victim = cache.insert(64)
        assert victim.addr == 0

    def test_dirty_victim_counts_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.insert(0, dirty=True)
        cache.insert(64)
        assert cache.stats.writebacks == 1

    def test_clean_victim_no_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.insert(0, dirty=False)
        cache.insert(64)
        assert cache.stats.writebacks == 0

    def test_sets_are_independent(self):
        cache = small_cache(ways=1, sets=2)
        cache.insert(0)      # set 0
        victim = cache.insert(64)  # set 1
        assert victim is None

    def test_invalidate(self):
        # Only the CPU levels back-invalidate (inclusive L3 evictions).
        cache = TagCache(64 * 2 * 2, ways=2)
        cache.insert(0, dirty=True)
        cache.insert(64)
        assert cache.invalidate(0) is True     # the dropped dirty bit
        assert cache.invalidate(64) is False
        assert cache.peek(0) is None
        assert cache.invalidate(0) is None
        assert cache.stats.writebacks == 0


class TestStatsSingleSource:
    """``cache.stats`` is a read-only view over the ``StatGroup``
    counters — there is no second set of attributes to fall out of sync
    (the legacy double bookkeeping this replaced)."""

    def test_view_equals_stat_group_after_traffic(self):
        cache = small_cache(ways=2, sets=2)
        for round_ in range(3):
            for addr in range(0, 64 * 8, 64):
                cache.lookup(addr)
                cache.insert(addr, dirty=(round_ == 0))
        exported = cache.stat_group.as_dict()
        prefix = cache.stat_group.name
        assert cache.stats.hits == exported[f"{prefix}.hits"]
        assert cache.stats.misses == exported[f"{prefix}.misses"]
        assert cache.stats.evictions == exported[f"{prefix}.evictions"]
        assert cache.stats.writebacks == exported[f"{prefix}.writebacks"]
        assert cache.stats.accesses \
            == exported[f"{prefix}.hits"] + exported[f"{prefix}.misses"]

    def test_external_counter_bump_is_visible_in_view(self):
        """Mutating the StatGroup counter (the single source of truth) is
        immediately visible through the view — proof there is no copy."""
        cache = small_cache()
        cache.stat_group.counter("hits").add(5)
        assert cache.stats.hits == 5

    def test_to_dict_snapshot(self):
        cache = small_cache()
        cache.lookup(0)          # miss
        cache.insert(0)
        cache.lookup(0)          # hit
        snapshot = cache.stats.to_dict()
        assert snapshot["hits"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["hit_rate"] == 0.5


class TestBulkOperations:
    def test_drop_all_returns_everything(self):
        cache = small_cache(ways=2, sets=2)
        for addr in (0, 64, 128):
            cache.insert(addr)
        dropped = cache.drop_all()
        assert {line.addr for line in dropped} == {0, 64, 128}
        assert len(cache) == 0

    def test_dirty_lines(self):
        cache = small_cache(ways=2, sets=2)
        cache.insert(0, dirty=True)
        cache.insert(64, dirty=False)
        assert [line.addr for line in cache.dirty_lines()] == [0]

    def test_tag_drop_all_returns_dirty_addresses(self):
        cache = TagCache(64 * 2 * 2, ways=2)
        for addr, dirty in ((0, True), (64, False), (128, True)):
            cache.insert(addr, dirty)
        assert sorted(cache.drop_all()) == [0, 128]
        assert len(cache) == 0


class TestLRUModelCheck:
    """Drive both cache forms and a reference fully-associative-per-set
    model with the same operations; behaviour must match exactly.  Each
    operation carries a dirty flag: an insert's ``dirty`` argument, or a
    store on a lookup hit.  A victim's dirty bit must be the OR of the
    stores made since its line was installed."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans(),
                              st.booleans()),
                    min_size=1, max_size=200))
    def test_against_reference(self, ops):
        ways, sets = 2, 2
        lines = small_cache(ways=ways, sets=sets)
        tags = TagCache(64 * ways * sets, ways=ways)
        # Per set: [addr, dirty] pairs, MRU at the end.
        model: list[list[list]] = [[] for _ in range(sets)]

        for slot, is_insert, dirty in ops:
            addr = slot * 64
            mru = model[slot % sets]
            entry = next((e for e in mru if e[0] == addr), None)
            if entry is not None:
                mru.remove(entry)
                mru.append(entry)
            if is_insert:
                victims = (lines.insert(addr, dirty=dirty),
                           tags.insert(addr, dirty))
                expected = None
                if entry is not None:
                    entry[1] = entry[1] or dirty
                else:
                    if len(mru) >= ways:
                        expected = tuple(mru.pop(0))
                    mru.append([addr, dirty])
                line_victim, tag_victim = victims
                if expected is None:
                    assert line_victim is None and tag_victim is None
                else:
                    assert (line_victim.addr, line_victim.dirty) == expected
                    assert tag_victim == expected
            else:
                line = lines.lookup(addr)
                hit = tags.lookup(addr)
                assert (line is not None) == hit == (entry is not None)
                if hit and dirty:       # a store hit
                    line.dirty = True
                    tags.mark(addr, True)
                    entry[1] = True
        assert lines.stats.to_dict() == tags.stats.to_dict()
