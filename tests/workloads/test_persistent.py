"""The five persistent data-structure workloads: functional correctness
of the structures themselves plus the shape of the traces they emit."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.trace import AccessType, collect_stats
from repro.workloads import make_workload
from repro.workloads.base import NullRecorder
from repro.workloads.persistent import (
    ArrayWorkload,
    BTreeWorkload,
    HashWorkload,
    QueueWorkload,
    RBTreeWorkload,
)

CAP = 4 * 1024 * 1024
NAMES = ("array", "btree", "hash", "queue", "rbtree")


@pytest.mark.parametrize("name", NAMES)
class TestCommonProperties:
    def test_trace_is_restartable_and_identical(self, name):
        workload = make_workload(name, CAP, operations=50, seed=1)
        assert list(workload.trace()) == list(workload.trace())

    def test_same_seed_same_trace(self, name):
        a = make_workload(name, CAP, operations=50, seed=1)
        b = make_workload(name, CAP, operations=50, seed=1)
        assert list(a.trace()) == list(b.trace())

    def test_different_seed_different_trace(self, name):
        a = make_workload(name, CAP, operations=50, seed=1)
        b = make_workload(name, CAP, operations=50, seed=2)
        assert list(a.trace()) != list(b.trace())

    def test_contains_persists(self, name):
        workload = make_workload(name, CAP, operations=50, seed=1)
        stats = collect_stats(workload.trace())
        assert stats.persists > 0

    def test_addresses_within_capacity(self, name):
        workload = make_workload(name, CAP, operations=50, seed=1)
        assert all(0 <= r.addr < CAP for r in workload.trace())


class TestArray:
    def test_footprint_spans_working_set(self):
        workload = ArrayWorkload(CAP, operations=500, seed=1)
        stats = collect_stats(workload.trace())
        assert len(stats.footprint) > 200

    def test_updates_read_before_persisting(self):
        workload = ArrayWorkload(CAP, operations=20, seed=1,
                                 read_fraction=0.0)
        trace = list(workload.trace())
        persist_positions = [i for i, r in enumerate(trace)
                             if r.kind is AccessType.PERSIST]
        for pos in persist_positions:
            assert trace[pos - 1].kind is AccessType.READ
            assert trace[pos - 1].addr == trace[pos].addr

    def test_entry_addr_bounds(self):
        workload = ArrayWorkload(CAP, operations=1)
        with pytest.raises(Exception):
            workload.entry_addr(workload.entries)


class TestQueue:
    def test_publication_order_entry_before_tail(self):
        """Crash consistency discipline: the entry line persists before
        the metadata line on every enqueue."""
        workload = QueueWorkload(CAP, operations=30, seed=1,
                                 enqueue_bias=0.99)
        trace = list(workload.trace())
        persists = [r for r in trace if r.kind is AccessType.PERSIST]
        meta_addr = workload._meta
        # Persists alternate entry, meta, entry, meta ...
        for entry, meta in zip(persists[0::2], persists[1::2]):
            assert entry.addr != meta_addr
            assert meta.addr == meta_addr

    def test_fifo_capacity_respected(self):
        workload = QueueWorkload(CAP, operations=200, seed=1)
        list(workload.trace())  # must not overflow the ring


class TestHash:
    def test_probing_really_probes(self):
        """With a small table, collisions force multi-read probe chains."""
        workload = HashWorkload(1024 * 64, operations=300, seed=1,
                                table_fraction=0.02)
        stats = collect_stats(workload.trace())
        assert stats.reads > stats.persists

    def test_load_factor_bounded(self):
        workload = HashWorkload(1024 * 64, operations=400, seed=1,
                                table_fraction=0.02, insert_bias=1.0,
                                max_load_factor=0.5)
        list(workload.trace())
        live = len(workload._keys)    # occupied slots only
        assert live <= int(workload.slots * 0.5) + 1

    def test_footprint_follows_keys_not_capacity(self):
        """A 256 MiB table has 2**20 slots; recording 1,500 keys into it
        must not allocate a shadow entry per slot (8 MiB as a list)."""
        tracemalloc.start()
        try:
            HashWorkload(256 * 1024 * 1024, 300, prepopulate=1200).record()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


class TestBTree:
    def test_inserted_keys_are_found(self):
        workload = BTreeWorkload(CAP, operations=200, seed=3,
                                 insert_bias=1.0)
        recorder = NullRecorder()
        keys = list(range(1, 100))
        for key in keys:
            workload._insert(recorder, key)
        assert all(workload.contains(k) for k in keys)
        assert not workload.contains(100000)

    def test_duplicate_insert_does_not_grow(self):
        workload = BTreeWorkload(CAP, operations=1, seed=3)
        recorder = NullRecorder()
        workload._insert(recorder, 42)
        workload._insert(recorder, 42)
        assert workload.size == 1

    def test_splits_generate_persist_bursts(self):
        workload = BTreeWorkload(CAP, operations=120, seed=3,
                                 insert_bias=1.0)
        stats = collect_stats(workload.trace())
        # More persists than operations: split cascades add extra.
        assert stats.persists > 120

    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=150))
    @settings(max_examples=20, deadline=None)
    def test_btree_is_a_set(self, keys):
        workload = BTreeWorkload(CAP, operations=1, seed=3)
        recorder = NullRecorder()
        for key in keys:
            workload._insert(recorder, key)
        assert workload.size == len(set(keys))
        assert all(workload.contains(k) for k in keys)


class TestRBTree:
    def test_inserted_keys_found(self):
        workload = RBTreeWorkload(CAP, operations=1, seed=4)
        recorder = NullRecorder()
        for key in range(1, 80):
            workload._insert(recorder, key)
        assert all(workload.contains(k) for k in range(1, 80))
        assert not workload.contains(999)

    def test_red_black_invariants_hold(self):
        workload = RBTreeWorkload(CAP, operations=1, seed=4)
        recorder = NullRecorder()
        for key in [50, 25, 75, 10, 30, 60, 90, 5, 15, 27, 35]:
            workload._insert(recorder, key)
        assert workload.black_height_valid()

    @given(st.lists(st.integers(1, 100_000), min_size=1, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_invariants_over_arbitrary_inserts(self, keys):
        workload = RBTreeWorkload(CAP, operations=1, seed=4)
        recorder = NullRecorder()
        for key in keys:
            workload._insert(recorder, key)
        assert workload.black_height_valid()
        assert workload.size == len(set(keys))

    def test_rotations_emit_persists(self):
        workload = RBTreeWorkload(CAP, operations=60, seed=4,
                                  insert_bias=1.0)
        stats = collect_stats(workload.trace())
        assert stats.persists > 60  # fixups persist extra nodes


class TestPrepopulation:
    def test_prepopulated_structures_are_larger(self):
        cold = BTreeWorkload(CAP, operations=30, seed=5, prepopulate=0)
        warm = BTreeWorkload(CAP, operations=30, seed=5, prepopulate=500)
        list(cold.trace())
        list(warm.trace())
        assert warm.size > cold.size

    def test_prepopulation_not_in_trace(self):
        warm = BTreeWorkload(CAP, operations=30, seed=5, prepopulate=500)
        cold = BTreeWorkload(CAP, operations=30, seed=5, prepopulate=0)
        # The warm trace covers 30 measured ops, not 530.
        assert len(list(warm.trace())) < 3 * len(list(cold.trace())) + 500
