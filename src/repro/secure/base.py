"""The secure memory controller: shared machinery for every update scheme.

:class:`SecureMemoryController` owns the resources every scheme shares —
the NVM device, the WPQ, the security-metadata cache, the CME engine, the
HMAC unit and the SIT media image — and implements the *common* read/write
paths: counter-block fetch-and-verify chains, minor-counter bumps with
overflow re-encryption, data encryption + per-line data MACs ("stored in
ECC bits" per Synergy, so they travel with the line and add no traffic),
and WPQ/timing accounting.

Scheme subclasses (baseline/lazy/eager/plp/bmf/scue) fill in exactly three
policy hooks:

* :meth:`_on_leaf_persist` — what happens on the write critical path when
  a counter block must be made durable with its data (paper Fig 6);
* :meth:`_flush_node` — how a dirty metadata node is sealed when the
  metadata cache evicts it;
* :meth:`recover` — what the scheme can honestly do after a crash.

Timing conventions (DESIGN.md §4): a *write latency* is
``verification-fetch + scheme critical path + WPQ stall + write service``;
a *read latency* is ``max(array read, counter-fetch chain)``.  Latencies
returned from public methods are what the CPU model stalls for; traffic
that is off the critical path still lands in the statistics and the WPQ.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cme.counters import CounterBlock, MINOR_LIMIT, MINORS_PER_BLOCK
from repro.cme.encryption import CMEEngine
from repro.errors import (
    IntegrityError,
    MetadataTypeError,
    SimulationError,
)
from repro.mem.address import AddressMap, CACHE_LINE_SIZE
from repro.mem.cache import SetAssociativeCache
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.secure.roots import ROOT_REGISTER_BYTES, RootRegister
from repro.tree.hmac_engine import HashEngine
from repro.tree.node import SITNode
from repro.tree.store import SITStore, TreeNode
from repro.util.stats import StatGroup

if TYPE_CHECKING:  # avoid the secure <-> sim layering cycle at runtime
    from repro.sim.config import SystemConfig

ZERO_LINE = bytes(CACHE_LINE_SIZE)
#: Cycles to generate a dummy counter / bump an on-chip register — simple
#: adder work, essentially free next to a hash.
REGISTER_UPDATE_CYCLES = 2
#: Flat charge for the 64-line re-encryption burst after a minor-counter
#: overflow (row-hit reads of the covered lines; writes go via the WPQ).
OVERFLOW_READ_CYCLES_PER_LINE = 30


def expect_node(node: "TreeNode", cls: type, context: str):
    """Narrow a fetched tree node to the expected type, raising a typed
    error (not ``assert``, which ``python -O`` strips) when the address
    map handed back the wrong node kind — that is metadata corruption
    in the model itself and must fail even in optimised runs."""
    if not isinstance(node, cls):
        raise MetadataTypeError(
            f"{context}: expected {cls.__name__}, "
            f"got {type(node).__name__}")
    return node


@dataclass(frozen=True, slots=True)
class ReadOutcome:
    """Result of a data read at the controller.

    ``array_latency``/``flush_cycles`` break the latency down for cycle
    attribution: ``latency == max(array, counter_fetch) + flush``.
    """

    latency: int
    plaintext: bytes
    counter_fetch_latency: int = 0
    array_latency: int = 0
    flush_cycles: int = 0


@dataclass(frozen=True, slots=True)
class WriteOutcome:
    """Result of a data write at the controller.

    ``latency`` is the full write latency recorded for Fig 9;
    ``cpu_stall`` is the portion a persisting CPU actually waits for
    (everything except the write service time, which the WPQ hides).
    The remaining fields split ``critical_cycles`` for attribution:
    ``critical == fetch + overflow + scheme + flush``.
    """

    latency: int
    cpu_stall: int
    critical_cycles: int
    wpq_stall: int
    fetch_latency: int = 0
    overflow_cycles: int = 0
    scheme_cycles: int = 0
    flush_cycles: int = 0


@dataclass
class RecoveryReport:
    """Outcome of post-crash recovery (§IV-B, Fig 13, Table I)."""

    scheme: str
    success: bool
    root_matched: bool
    leaf_hmac_failures: list[int] = field(default_factory=list)
    metadata_reads: int = 0
    metadata_writes: int = 0
    recovery_seconds: float = 0.0
    detail: str = ""

    @property
    def attack_reported(self) -> bool:
        """True when recovery flagged an integrity violation — correct
        after a real attack, a *false positive* for root-crash-inconsistent
        schemes (§III-B)."""
        return not self.success


class SecureMemoryController(ABC):
    """Base class for all evaluated schemes."""

    #: Scheme name used by the factory and in reports.
    name = "abstract"
    #: Whether this scheme's root survives a crash consistently (§III-B).
    crash_consistent_root = False
    #: Whether HMACs of a fetch/update chain can be computed in parallel
    #: (true for SIT-family schemes, §II-D4).
    parallel_hashing = True

    def __init__(self, config: "SystemConfig",
                 recorder: "TraceRecorder | NullRecorder | None" = None
                 ) -> None:
        self.config = config
        self.obs = recorder if recorder is not None else NULL_RECORDER
        self.amap: AddressMap = config.address_map()
        self.timing = config.timing_model()
        self.stats = StatGroup("controller")
        self.nvm = NVMDevice(self.amap.total_capacity, self.timing,
                             self.stats.child("nvm"),
                             track_wear=config.track_wear,
                             recorder=self.obs)
        self.wpq = WritePendingQueue(
            config.wpq_data_entries, config.wpq_metadata_entries,
            drain_cycles=self.timing.write_drain_cycles,
            stats=self.stats.child("wpq"),
            recorder=self.obs)
        self.meta_cache = SetAssociativeCache(
            config.metadata_cache_size, config.metadata_cache_ways,
            name="metadata_cache",
            stats=self.stats.child("metadata_cache"))
        self.hash_engine = HashEngine(config.hash_latency, config.mac_key,
                                      self.stats.child("hash_engine"),
                                      recorder=self.obs)
        self.mac = self.hash_engine.mac
        self.cme = CMEEngine(self.amap, config.cme_key,
                             self.stats.child("cme"))
        self.store = SITStore(self.nvm, self.amap)
        self.running_root = RootRegister("running_root", self.amap.arity,
                                 self.amap.counter_bits)
        # Per-line data MACs, modelled as ECC-resident (Synergy): durable
        # with the line itself, zero extra traffic.
        self.data_macs: dict[int, int] = {}
        self._plaintexts: dict[int, bytes] = {}
        #: Critical-path cycles accumulated by synchronous eviction
        #: handling during the current operation (reset per op).
        self._flush_charge = 0
        #: True while a power failure is being processed: time-driven
        #: work (e.g. eager's in-flight root updates) must not complete
        #: during ADR/eADR flushing — the compute pipeline is dead.
        self._crashing = False
        self._flush_depth = 0
        self._op_cycle = 0
        #: Eviction (victim) buffer: a victim being flushed is still
        #: on-chip and snoopable until its writeback completes — without
        #: this, a nested fetch during the flush would read the stale NVM
        #: image and lose counter updates.
        self._victim_buffer: dict[int, TreeNode] = {}
        # Statistics
        self._data_reads = self.stats.counter("data_reads")
        self._data_writes = self.stats.counter("data_writes")
        self._meta_reads = self.stats.counter("meta_reads")
        self._meta_writes = self.stats.counter("meta_writes")
        self._overflows = self.stats.counter("counter_overflows")
        # Histograms, not bare means: the figures argue about tails.
        # ``.mean``/``.count`` export keys match the old WeightedMeans.
        self._write_latency = self.stats.histogram("write_latency")
        self._read_latency = self.stats.histogram("read_latency")
        self._verify_latency = self.stats.histogram("verify_latency")
        self._crashes = self.stats.counter("crashes")

    # ==================================================================
    # Policy hooks
    # ==================================================================
    @abstractmethod
    def _on_leaf_persist(self, leaf: CounterBlock, leaf_index: int,
                         dummy_delta: int, cycle: int) -> int:
        """Make the freshly bumped counter block durable per the scheme's
        policy (paper Fig 6).  Returns write-critical-path cycles."""

    @abstractmethod
    def _flush_node(self, node: TreeNode, cycle: int) -> int:
        """Seal and persist a dirty metadata node evicted from the
        metadata cache.  Returns the cycles the eviction puts on the
        triggering access's critical path — the cache slot is needed
        *now*, so parent reads a scheme performs here (lazy) stall the
        access, while dummy-counter sealing (SCUE) costs one hash."""

    @abstractmethod
    def recover(self) -> RecoveryReport:
        """Attempt post-crash recovery and integrity re-establishment."""

    def _on_crash(self) -> None:
        """Scheme-specific crash behaviour (e.g. dropping in-flight root
        updates).  Default: nothing extra."""

    def _on_node_dirtied(self, level: int, index: int) -> None:
        """Notification that a cached metadata node became dirty (fast-
        recovery trackers hook this)."""

    def _on_node_updated(self, level: int, index: int) -> None:
        """Notification fired on *every* cached-metadata update, including
        updates to already-dirty nodes (content-journalling trackers like
        ASIT pay per update, not per transition)."""

    def _on_node_cleaned(self, level: int, index: int) -> None:
        """Notification that a node's NVM copy was brought up to date."""

    # ==================================================================
    # Metadata fetch-and-verify
    # ==================================================================
    def _root_counter(self, top_index: int) -> int:
        """Trusted counter used to verify a top-level tree node."""
        return self.running_root.counter(top_index % self.amap.arity)

    def _parent_counter_chain(self, level: int,
                              index: int) -> tuple[int, int, int]:
        """Trusted parent counter for node ``(level, index)``, fetching
        (and verifying) ancestors as needed.  Returns
        ``(counter, read_latency, nodes_fetched)``."""
        if level + 1 >= self.amap.tree_levels:
            return self._root_counter(index), 0, 0
        plevel, pindex = self.amap.parent_coords(level, index)
        parent, latency, fetched = self._fetch_chain(plevel, pindex)
        return parent.counter(self.amap.parent_slot(index)), latency, fetched

    def _fetch_chain(self, level: int, index: int) -> tuple[TreeNode, int, int]:
        """Fetch node ``(level, index)`` through the metadata cache,
        verifying every uncached ancestor down from the trust base.
        Returns ``(node, read_latency, nodes_fetched)``.

        The chain's addresses are all computable from the leaf address (no
        pointer chasing), so the reads issue in parallel across banks: the
        chain's read latency is the *max* of the individual reads, not the
        sum — the memory-level parallelism SIT verification enjoys."""
        line = self.store.node_addr(level, index)
        hit = self.meta_cache.lookup(line)
        if hit is not None:
            return hit.payload, 0, 0
        buffered = self._victim_buffer.get(line)
        if buffered is not None:
            # Snoop hit in the eviction buffer: still on-chip, trusted.
            return buffered, 0, 0
        parent_counter, latency, fetched = \
            self._parent_counter_chain(level, index)
        # The ancestor fetch can trigger eviction flushes that themselves
        # fetched (and possibly updated) this very node — re-check before
        # loading a stale media image over fresh on-chip state.
        hit = self.meta_cache.peek(line)
        if hit is not None:
            return hit.payload, latency, fetched
        buffered = self._victim_buffer.get(line)
        if buffered is not None:
            return buffered, latency, fetched
        latency = max(latency, self.nvm.read_latency(line))
        node = self.store.load(level, index)
        self._meta_reads.value += 1
        if not node.verify(self.mac, line, parent_counter):
            raise IntegrityError(
                f"{self.name}: verification failed for tree node "
                f"(level {level}, index {index}) at {line:#x}")
        self._install(line, node, dirty=False)
        if self.obs.enabled:
            self.obs.instant(ev.EV_VERIFY_HOP, ev.TRACK_VERIFY,
                             level=level, index=index, addr=line,
                             read_latency=latency)
        return node, latency, fetched + 1

    def fetch_node(self, level: int, index: int, charge: bool = True,
                   speculative: bool = False) -> tuple[TreeNode, int]:
        """Public fetch: returns the node and the critical-path latency
        (reads + one parallel hash burst for the verified chain).

        ``charge=False``: hashes and reads still happen (and are counted)
        but the latency is reported as zero — off-critical-path traffic
        like SCUE's background parent updates.

        ``speculative=True``: the *read* latency is charged but the
        verification hashes are not — the consumer uses the data while the
        MAC check completes in the background (standard speculative
        verification on the read path; a failed check still raises, it
        just does not stall the pipeline).  Writes never use this: a
        persist is durable only after its HMAC is computed."""
        node, read_latency, fetched = self._fetch_chain(level, index)
        hash_latency = self.hash_engine.charge(
            fetched, parallel=self.parallel_hashing)
        if not charge:
            return node, 0
        if speculative:
            return node, read_latency
        return node, read_latency + (hash_latency if fetched else 0)

    def _install(self, line: int, node: TreeNode, dirty: bool) -> None:
        victim = self.meta_cache.insert(line, payload=node, dirty=dirty)
        if dirty:
            level, index = self.store.coords_of(node)
            self._on_node_dirtied(level, index)
        if victim is not None and victim.dirty:
            # Flush synchronously: the slot is needed now, and the NVM
            # image must be current before any re-fetch of this line.
            # The victim sits in the eviction buffer until done.
            self._flush_depth += 1
            if self._flush_depth > 64:
                raise SimulationError(
                    "runaway eviction cascade in the metadata cache")
            self._victim_buffer[victim.addr] = victim.payload
            try:
                self._flush_charge += self._flush_node(victim.payload,
                                                       self._op_cycle)
            finally:
                self._flush_depth -= 1
                self._victim_buffer.pop(victim.addr, None)

    def _mark_dirty(self, node: TreeNode) -> None:
        """Mark an already-resident node dirty in the metadata cache."""
        if isinstance(node, CounterBlock):
            line = self.amap.counter_block_addr(node.index)
        else:
            line = self.store.node_addr(node.level, node.index)
        level, index = self.store.coords_of(node)
        self._on_node_updated(level, index)
        cached = self.meta_cache.peek(line)
        if cached is None:
            # Node fell out between fetch and update (tiny caches in
            # stress tests): reinstall dirty.
            self._install(line, node, dirty=True)
            return
        if not cached.dirty:
            cached.dirty = True
            self._on_node_dirtied(level, index)

    def _mark_clean(self, node: TreeNode) -> None:
        if isinstance(node, CounterBlock):
            line = self.amap.counter_block_addr(node.index)
        else:
            line = self.store.node_addr(node.level, node.index)
        cached = self.meta_cache.peek(line)
        if cached is not None and cached.dirty:
            cached.dirty = False
        level, index = self.store.coords_of(node)
        self._on_node_cleaned(level, index)

    # ==================================================================
    # Shared persist helpers used by scheme hooks
    # ==================================================================
    def _persist_node(self, node: TreeNode, cycle: int) -> int:
        """Serialise ``node`` to NVM through the metadata WPQ partition.
        Returns the WPQ stall (usually zero; PLP's branch persists can
        back-pressure the 10-entry queue)."""
        if isinstance(node, CounterBlock):
            addr = self.amap.counter_block_addr(node.index)
        else:
            addr = self.store.node_addr(node.level, node.index)
        stall = self.wpq.enqueue(addr, cycle, metadata=True)
        self.store.save(node)
        self._meta_writes.value += 1
        self._mark_clean(node)
        return stall

    def _bump_parent(self, level: int, index: int, amount: int, cycle: int,
                     charge: bool) -> tuple[int, int]:
        """Bump the parent counter of node ``(level, index)`` by ``amount``
        (the lazy/eager "+1 per child event" discipline) and return
        ``(new_counter_value, critical_latency)``.  Top-level nodes bump
        the Running_root register."""
        slot = self.amap.parent_slot(index)
        if level + 1 >= self.amap.tree_levels:
            self.running_root.add(slot, amount)
            if self.obs.enabled:
                self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                                 register="running_root", slot=slot,
                                 amount=amount, on_critical_path=charge)
            return (self.running_root.counter(slot),
                    REGISTER_UPDATE_CYCLES if charge else 0)
        plevel, pindex = self.amap.parent_coords(level, index)
        parent, latency = self.fetch_node(plevel, pindex, charge=charge)
        expect_node(parent, SITNode, f"{self.name}: parent bump")
        parent.bump_counter(slot, amount)
        self._mark_dirty(parent)
        return parent.counter(slot), latency if charge else 0

    def _update_parent_counter(self, level: int, index: int,
                               set_to: int) -> None:
        """Overwrite the parent counter of node ``(level, index)`` with
        ``set_to`` (counter-summing), off the critical path: the parent
        fetch costs the caller nothing.  Top-level nodes set the
        Running_root register instead."""
        slot = self.amap.parent_slot(index)
        if level + 1 >= self.amap.tree_levels:
            self.running_root.set(slot, set_to)
            if self.obs.enabled:
                self.obs.instant(ev.EV_ROOT_UPDATE, ev.TRACK_ROOT,
                                 register="running_root", slot=slot,
                                 on_critical_path=False)
            return
        plevel, pindex = self.amap.parent_coords(level, index)
        parent, _ = self.fetch_node(plevel, pindex, charge=False)
        expect_node(parent, SITNode, f"{self.name}: parent update")
        parent.set_counter(slot, set_to)
        self._mark_dirty(parent)

    def drain_pending(self, cycle: int) -> int:
        """Collect the eviction cycles accumulated by synchronous flushes
        during the current operation — those are critical path (the cache
        slots were needed) and the caller charges them."""
        charged = self._flush_charge
        self._flush_charge = 0
        return charged

    # ==================================================================
    # Data path
    # ==================================================================
    def _payload_for(self, line: int, data: bytes | None) -> bytes:
        if data is not None:
            if len(data) != CACHE_LINE_SIZE:
                data = (data + ZERO_LINE)[:CACHE_LINE_SIZE]
            return bytes(data)
        known = self._plaintexts.get(line)
        if known is not None:
            return known
        return hashlib.blake2b(line.to_bytes(8, "little"),
                               digest_size=32).digest() * 2

    def _data_mac(self, line: int, ciphertext: bytes,
                  leaf: CounterBlock) -> int:
        slot = self.amap.minor_slot_of_data(line)
        return self.mac.mac(line, ciphertext, leaf.major, leaf.minor_of(slot))

    def _bump_leaf(self, leaf: CounterBlock, line: int,
                   cycle: int) -> tuple[int, int]:
        """Bump the minor counter for ``line``; handle overflow
        re-encryption.  Returns ``(dummy_delta, extra_cycles)``."""
        slot = self.amap.minor_slot_of_data(line)
        bits = self.amap.counter_bits
        if leaf.minors[slot] + 1 < MINOR_LIMIT:
            # Fast path: a non-overflowing bump moves the dummy counter by
            # exactly 1 (mod 2**bits), so skip the two 64-term sums and
            # the minors snapshot the overflow path needs.
            leaf.bump(slot)
            self._mark_dirty(leaf)
            return 1, 0
        before = leaf.dummy_counter(bits)
        # Overflow path: re-encrypting 64 lines dwarfs one copy.
        old_minors = list(leaf.minors)  # reprolint: disable=hot-path-allocation
        old_major = leaf.major
        event = leaf.bump(slot)
        self._mark_dirty(leaf)
        delta = (leaf.dummy_counter(bits) - before) & ((1 << bits) - 1)
        if event is None:
            return delta, 0
        # Minor overflow: re-encrypt the 64 covered lines (§II-B) and
        # refresh their ECC-resident MACs.
        self._overflows.add()
        if self.obs.enabled:
            self.obs.instant(ev.EV_OVERFLOW, ev.TRACK_CTL,
                             leaf=leaf.index, slot=slot,
                             lines=MINORS_PER_BLOCK)
        self.cme.reencrypt_block(self.nvm, leaf, old_major, old_minors)
        base = leaf.index * MINORS_PER_BLOCK * CACHE_LINE_SIZE
        extra = 0
        for covered_slot in range(MINORS_PER_BLOCK):
            covered = base + covered_slot * CACHE_LINE_SIZE
            if covered in self.data_macs:
                self.data_macs[covered] = self.mac.mac(
                    covered, self.nvm.peek_line(covered), leaf.major,
                    leaf.minor_of(covered_slot))
            self.wpq.enqueue(covered, cycle, metadata=False)
            self._data_writes.add()
            extra += OVERFLOW_READ_CYCLES_PER_LINE
        self.hash_engine.charge(MINORS_PER_BLOCK, parallel=True)
        return event.dummy_delta & ((1 << bits) - 1), extra

    def write_data(self, addr: int, data: bytes | None, cycle: int,
                   persist: bool = True) -> WriteOutcome:
        """A data write arriving at the controller: either an explicit
        persist (clwb+sfence — the CPU waits) or a dirty writeback from the
        LLC (the CPU does not wait, but the latency still counts toward
        the Fig 9 write-latency metric)."""
        line = self.amap.line_of(addr)
        self._op_cycle = cycle
        if self.obs.enabled:
            self.obs.set_now(cycle)
        payload = self._payload_for(line, data)
        leaf_index = self.amap.counter_block_of_data(line)
        leaf, fetch_latency = self.fetch_node(0, leaf_index)
        expect_node(leaf, CounterBlock, f"{self.name}: data write")
        delta, overflow_cycles = self._bump_leaf(leaf, line, cycle)
        ciphertext = self.cme.encrypt(line, payload, leaf)
        self.data_macs[line] = self._data_mac(line, ciphertext, leaf)
        self._plaintexts[line] = payload
        scheme_cycles = self._on_leaf_persist(leaf, leaf_index, delta, cycle)
        wpq_stall = self.wpq.enqueue(line, cycle, metadata=False)
        self.nvm.write_line(line, ciphertext)
        self._data_writes.value += 1
        flush_cycles = self.drain_pending(cycle)
        critical = fetch_latency + overflow_cycles + scheme_cycles \
            + flush_cycles
        latency = critical + wpq_stall + self.timing.write_service_cycles
        self._write_latency.add(latency)
        self._verify_latency.add(fetch_latency)
        if self.obs.enabled:
            self.obs.instant(ev.EV_WRITE_OP, ev.TRACK_CTL, addr=line,
                             persist=persist, latency=latency,
                             fetch=fetch_latency, overflow=overflow_cycles,
                             scheme=scheme_cycles, flush=flush_cycles,
                             wpq_stall=wpq_stall)
        cpu_stall = (critical + wpq_stall) if persist else 0
        return WriteOutcome(latency, cpu_stall, critical, wpq_stall,
                            fetch_latency, overflow_cycles, scheme_cycles,
                            flush_cycles)

    def read_data(self, addr: int, cycle: int) -> ReadOutcome:
        """A data read missing all CPU caches: fetch + verify the counter
        chain (needed for the OTP), read the line, decrypt, and check the
        ECC-resident data MAC (speculatively, off the latency path)."""
        line = self.amap.line_of(addr)
        self._op_cycle = cycle
        if self.obs.enabled:
            self.obs.set_now(cycle)
        leaf_index = self.amap.counter_block_of_data(line)
        leaf, fetch_latency = self.fetch_node(0, leaf_index,
                                              speculative=True)
        expect_node(leaf, CounterBlock, f"{self.name}: data read")
        array_latency = self.nvm.read_latency(line)
        ciphertext = self.nvm.read_line(line)
        self._data_reads.value += 1
        stored_mac = self.data_macs.get(line)
        if stored_mac is None:
            # Never-written line: fresh zeros, nothing to decrypt/verify.
            plaintext = ZERO_LINE
        else:
            plaintext = self.cme.decrypt(line, ciphertext, leaf)
            self.hash_engine.charge(1, parallel=True)
            if stored_mac != self._data_mac(line, ciphertext, leaf):
                raise IntegrityError(
                    f"{self.name}: data MAC mismatch at {line:#x} — "
                    "tampered user data detected")
            if self.config.check_data:
                expected = self._plaintexts.get(line)
                if expected is not None and plaintext != expected:
                    raise SimulationError(
                        f"functional mismatch at {line:#x}: decrypted "
                        "plaintext differs from the shadow copy")
        flush_cycles = self.drain_pending(cycle)
        latency = max(array_latency, fetch_latency) + flush_cycles
        self._read_latency.add(latency)
        self._verify_latency.add(fetch_latency)
        if self.obs.enabled:
            self.obs.instant(ev.EV_READ_OP, ev.TRACK_CTL, addr=line,
                             latency=latency, array=array_latency,
                             fetch=fetch_latency, flush=flush_cycles)
        return ReadOutcome(latency, plaintext, fetch_latency,
                           array_latency, flush_cycles)

    def tick(self, cycle: int) -> None:
        """Wall-clock advance from the CPU model: drain the WPQ and let
        schemes complete time-driven work (eager's in-flight root
        updates land here even if no memory access follows)."""
        self.wpq.advance_to(cycle)

    # ==================================================================
    # Crash handling
    # ==================================================================
    def prepare_crash(self) -> None:
        """Power is failing: freeze all time-driven work before any
        ADR/eADR flushing runs (flushes move bytes; they cannot compute)."""
        self._crashing = True

    def crash(self) -> None:
        """Power failure: ADR flushes the WPQ (its contents are already
        durable in this model), eADR additionally flushes dirty cached
        metadata *as-is* — eADR can move bytes but cannot compute HMACs
        (§III-C), so stale MACs land on media stale.  Everything volatile
        is then dropped."""
        self._crashing = True
        self._crashes.add()
        if self.obs.enabled:
            self.obs.instant(ev.EV_CRASH, ev.TRACK_CPU, scheme=self.name,
                             eadr=self.config.eadr)
        self.wpq.flush()
        if self.config.eadr:
            for cached in self.meta_cache.dirty_lines():
                node: TreeNode = cached.payload
                self.store.save(node, counted=False)
        self.meta_cache.drop_all()
        self._victim_buffer.clear()
        self._flush_charge = 0
        self._on_crash()
        self._crashing = False

    # ==================================================================
    # Static overheads (§V-F)
    # ==================================================================
    def onchip_overhead_bytes(self) -> int:
        """Bytes of scheme-specific on-chip non-volatile state (beyond the
        metadata cache every secure design needs)."""
        return ROOT_REGISTER_BYTES

    def stats_dict(self) -> dict[str, float]:
        return self.stats.as_dict()
