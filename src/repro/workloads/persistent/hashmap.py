"""Persistent hash table microbenchmark (paper §V-A).

Open-addressing table with linear probing over 16 B slots (8 B key,
8 B value).  Inserts probe (reads) until a free slot, then persist the
slot; lookups probe and stop at the key or an empty slot.  The table is
functional — keys genuinely collide, probe chains genuinely grow — so the
trace has the data-dependent read bursts real hash tables produce.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError
from repro.workloads.base import PersistentHeap, RecordedWorkload, TraceRecorder

SLOT_BYTES = 16


class HashWorkload(RecordedWorkload):
    """Insert/lookup mix on a linear-probing persistent hash table."""

    name = "hash"

    def __init__(self, data_capacity: int, operations: int, seed: int = 42,
                 table_fraction: float = 0.5,
                 insert_bias: float = 0.5,
                 max_load_factor: float = 0.7,
                 compute_per_op: int = 30,
                 prepopulate: int = 0) -> None:
        super().__init__()
        if not 0 < max_load_factor < 1:
            raise ConfigError("max_load_factor must be in (0, 1)")
        self.operations = operations
        self.seed = seed
        self.insert_bias = insert_bias
        self.max_load_factor = max_load_factor
        self.compute_per_op = compute_per_op
        self.prepopulate = prepopulate
        table_bytes = int(data_capacity * table_fraction)
        # The slot count is capped at 2**20: slots feed `_hash` and
        # `slot_addr`, so the cap is part of every hash trace (and digest)
        # on large simulated capacities, not a memory guard.
        self.slots = max(16, min(table_bytes // SLOT_BYTES, 1 << 20))
        heap = PersistentHeap(data_capacity)
        self._table = heap.alloc(self.slots * SLOT_BYTES, line_aligned=True)
        # The functional table: occupied slot -> key (layout decides
        # addresses).  A dict of occupied slots only, so the model grows
        # with the keys a run inserts, not with the table's capacity.
        self._keys: dict[int, int] = {}

    def slot_addr(self, slot: int) -> int:
        return self._table + slot * SLOT_BYTES

    def _hash(self, key: int) -> int:
        # Fibonacci hashing: good spread without crypto cost.
        return (key * 11400714819323198485) % self.slots

    # ------------------------------------------------------------------
    def _probe_insert(self, recorder: TraceRecorder, key: int) -> bool:
        """Insert ``key``; returns True when a fresh slot was consumed."""
        slot = self._hash(key)
        while True:
            recorder.read(self.slot_addr(slot), SLOT_BYTES)
            held = self._keys.get(slot)
            if held is None or held == key:
                self._keys[slot] = key
                recorder.compute(6)
                recorder.persist(self.slot_addr(slot), SLOT_BYTES)
                return held is None
            slot = (slot + 1) % self.slots

    def _probe_lookup(self, recorder: TraceRecorder, key: int) -> bool:
        slot = self._hash(key)
        while True:
            recorder.read(self.slot_addr(slot), SLOT_BYTES)
            held = self._keys.get(slot)
            if held is None:
                return False
            if held == key:
                return True
            slot = (slot + 1) % self.slots

    def _generate(self, recorder: TraceRecorder) -> None:
        from repro.workloads.base import NullRecorder
        rng = random.Random(self.seed)
        live = 0
        key_space = max(64, (self.operations + self.prepopulate) * 4)
        inserted: list[int] = []
        cap = int(self.slots * self.max_load_factor)
        if self.prepopulate:
            setup = NullRecorder()
            for _ in range(min(self.prepopulate, cap)):
                key = rng.randrange(1, key_space)
                if self._probe_insert(setup, key):
                    live += 1
                inserted.append(key)
        for _ in range(self.operations):
            recorder.compute(self.compute_per_op)
            insert = live < cap and (not inserted
                                     or rng.random() < self.insert_bias)
            if insert:
                key = rng.randrange(1, key_space)
                if self._probe_insert(recorder, key):
                    live += 1
                inserted.append(key)
            else:
                # 50/50 hit vs miss lookups: misses walk whole chains.
                if rng.random() < 0.5 and inserted:
                    key = rng.choice(inserted)
                else:
                    key = rng.randrange(key_space, key_space * 2)
                self._probe_lookup(recorder, key)
