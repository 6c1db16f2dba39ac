"""Epoch-batched execution engine: the fast path behind the digest oracle.

The scalar path (`System.execute` + the controller's `write_data` /
`read_data`) walks one access at a time through ~175 Python calls.  This
engine runs the same trace in *epochs* of :data:`EPOCH_WINDOW` rows
through an inlined interpreter that replicates the scalar statement
stream — every counter increment, histogram bucket and NVM row-buffer
touch, in the same order with the same values — so the
`sha256` result digests pinned in `tests/test_determinism_guard.py` are
byte-identical by construction.

The interpreter inlines the whole metadata path: the fetch-and-verify
chain (`_fetch_chain` / `fetch_node`), cache install with its eviction
cascade (`_install`), the per-scheme dirty-victim flush (`_flush_node`;
BMF-ideal has none, since under write-through it never evicts a dirty
node), WPQ enqueue/drain, and the controller tick.  Every data write, a
persist or a dirty writeback from the CPU caches, runs through one
inlined `write_data`.  Rare or stateful seams stay real calls: minor-counter
overflows (`_bump_leaf`), the not-resident re-dirty path
(`_mark_dirty`), and eager's reinstall of a branch node its climb
evicted (`_install`).

The CPU caches are not transcribed: every load, store and persist calls
the system's :class:`~repro.mem.hierarchy.CacheHierarchy` (or replays
a :class:`CachePass` of it), the one model of L1–L3 that the scalar
loop and ``MultiProgramSystem`` run too.

Why digests cannot drift
------------------------

The interpreter is a statement-for-statement transcription of the
scalar hot path.  Every inlined statement mutates the same counters
and media image the scalar code would, in the same order.

Fallback triggers
-----------------

:func:`ineligible_reason` vets the *whole run* before the first access.
Anything the transcription does not model — an attached recorder, the
runtime persist-order sanitizer (which patches the `wpq.enqueue` /
`nvm.write_line` / `_flush_node` seams as instance attributes), crash
machinery knobs (`check_data`, wear tracking, recovery trackers, Osiris
limits, deferred leaves), subclassed controller-side components, or a
scheme without a transcribed tail — falls back to the scalar loop, so
`repro.crash`, the explorer and `repro.obs` attribution always see the
unchanged event stream.  A patched or subclassed CPU hierarchy is no
reason: the engine calls it as the scalar loop does.
"""

from __future__ import annotations

from hashlib import blake2b
from itertools import islice

from repro.cme.counters import MINOR_LIMIT, CounterBlock
from repro.cme.encryption import CMEEngine
from repro.errors import (
    AddressError,
    ConfigError,
    IntegrityError,
    SimulationError,
)
from repro.mem.address import AddressMap
from repro.mem.cache import CacheLine, SetAssociativeCache
from repro.mem.nvm import ZERO_LINE, NVMDevice
from repro.mem.trace import AccessType
from repro.mem.wpq import WPQEntry, WritePendingQueue
from repro.secure.base import REGISTER_UPDATE_CYCLES, expect_node
from repro.secure.baseline import BaselineController
from repro.secure.bmf import BMFIdealController
from repro.secure.eager import EagerController
from repro.secure.lazy import LazyController
from repro.secure.plp import PLPController
from repro.secure.scue import SCUEController
from repro.tree.hmac_engine import HashEngine
from repro.tree.node import SITNode
from repro.tree.store import SITStore
from repro.util.crypto import KeyedMac, make_otp

#: Trace rows per epoch.
EPOCH_WINDOW = 1024

#: Controller classes with a transcribed scheme tail.  Anything else
#: (e.g. the BMT eager-climb family) runs scalar.
_FLAVORS: dict[type, str] = {
    SCUEController: "scue",
    LazyController: "lazy",
    EagerController: "eager",
    PLPController: "plp",
    BMFIdealController: "bmf",
    BaselineController: "baseline",
}

#: Methods the interpreter inlines or depends on: any of these appearing
#: as an *instance* attribute (the sanitizer and tests patch seams that
#: way) disables the epoch engine for the run.
_SEAM_METHODS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("system", ("execute", "run", "crash", "result", "reset_stats")),
    ("controller", ("write_data", "read_data", "tick", "fetch_node",
                    "_fetch_chain", "_parent_counter_chain", "_install",
                    "_flush_node", "_on_leaf_persist", "_persist_node",
                    "_mark_dirty", "_mark_clean", "_bump_leaf",
                    "_bump_parent", "_update_parent_counter",
                    "drain_pending", "_payload_for", "_data_mac",
                    "_root_counter", "_apply_due", "_on_node_dirtied",
                    "_on_node_updated", "_on_node_cleaned")),
    ("nvm", ("read_line", "write_line", "read_latency", "peek_line",
             "_touch_row")),
    ("wpq", ("enqueue", "advance_to")),
    ("hash_engine", ("charge",)),
    ("mac", ("mac", "mac_uncached")),
    ("cme", ("encrypt", "decrypt", "_otp")),
    ("meta_cache", ("lookup", "peek", "insert")),
    ("store", ("load", "save", "coords_of")),
)


def ineligible_reason(system) -> str | None:
    """Why this run must take the scalar path, or ``None`` if the epoch
    engine can reproduce it byte-identically.

    The reasons: a subclassed system; a controller without a transcribed
    tail; a recorder on the system or an inlined component; a subclassed
    inlined component (NVM, WPQ, hash engine, MAC, CME, metadata cache,
    SIT store, address map); deferred leaves, ``check_data``, wear
    tracking, a recovery tracker or a single-level tree; a patched seam
    of :data:`_SEAM_METHODS`.  The CPU hierarchy is never one: the
    engine calls its methods, patched or not.
    """
    from repro.sim.system import System
    if type(system) is not System:
        return f"subclassed system ({type(system).__name__})"
    ctl = system.controller
    flavor = _FLAVORS.get(type(ctl))
    if flavor is None:
        return (f"no transcribed tail for controller "
                f"{type(ctl).__name__}")
    # Observability: the interpreter emits no spans/instants, which is
    # only equivalent while every inlined component's recorder is off.
    for label, obj in (("system", system), ("controller", ctl),
                       ("nvm", ctl.nvm), ("wpq", ctl.wpq),
                       ("hash_engine", ctl.hash_engine)):
        if getattr(obj.obs, "enabled", True):
            return f"recorder attached to {label}"
    # Exact component types: a subclass may override anything we inline.
    for label, obj, cls in (
            ("nvm", ctl.nvm, NVMDevice),
            ("wpq", ctl.wpq, WritePendingQueue),
            ("hash_engine", ctl.hash_engine, HashEngine),
            ("mac", ctl.mac, KeyedMac),
            ("cme", ctl.cme, CMEEngine),
            ("meta_cache", ctl.meta_cache, SetAssociativeCache),
            ("store", ctl.store, SITStore),
            ("amap", ctl.amap, AddressMap)):
        if type(obj) is not cls:
            return f"subclassed {label} ({type(obj).__name__})"
    # Modes the transcription does not model.
    cfg = system.config
    if not cfg.leaf_write_through:
        return "deferred-leaf mode (leaf_write_through off)"
    if cfg.check_data:
        return "check_data shadow verification"
    if ctl.nvm.wear is not None:
        return "wear tracking"
    if getattr(ctl, "tracker", None) is not None:
        return "recovery tracker attached"
    if ctl.amap.tree_levels < 2:
        return "single-level tree"
    # Patched seams (the sanitizer patches instance attributes).
    components = {"system": system, "controller": ctl, "nvm": ctl.nvm,
                  "wpq": ctl.wpq, "hash_engine": ctl.hash_engine,
                  "mac": ctl.mac, "cme": ctl.cme,
                  "meta_cache": ctl.meta_cache, "store": ctl.store}
    for label, names in _SEAM_METHODS:
        inst = getattr(components[label], "__dict__", None)
        if inst:
            for name in names:
                if name in inst:
                    return f"{label}.{name} is patched"
    # The two always-instance-bound delegates must be the pristine ones.
    if getattr(system._line_of, "__func__", None) is not AddressMap.line_of:
        return "system._line_of is patched"
    if getattr(ctl.store.node_addr, "__func__", None) \
            is not AddressMap.tree_node_addr:
        return "store.node_addr is patched"
    return None


def _cpu_counters(hierarchy) -> tuple:
    """The 12 L1–L3 hit, miss, eviction and writeback counters a
    :class:`CachePass` records and restores."""
    return tuple(counter for cache in (hierarchy.l1, hierarchy.l2,
                                       hierarchy.l3)
                 for counter in (cache._hits, cache._misses,
                                 cache._evictions, cache._writebacks))


def run_trace(system, trace) -> bool:
    """Run ``trace`` through the epoch engine if eligible.

    Returns ``True`` when the engine ran (the trace is consumed), or
    ``False`` without touching the trace so the caller can fall back to
    the scalar loop.
    """
    if ineligible_reason(system) is not None:
        return False
    EpochEngine(system).run(trace)
    return True


class CachePass:
    """What the CPU caches returned for every row of one trace.

    The L1–L3 hierarchy is a placement model fed by the trace alone, so
    every run of one trace under one
    :class:`~repro.mem.hierarchy.HierarchyConfig` and one warm-up split
    sees the same misses, the same L3 writebacks and the same counters,
    whatever the scheme behind the controller.  One engine records a
    pass (``EpochEngine(system, record=CachePass())``) while it calls
    the system's :class:`~repro.mem.hierarchy.CacheHierarchy`; engines
    of later runs replay it (``replay=``) and never call the hierarchy.

    ``outcomes`` holds one entry per trace row, in trace order: the
    :class:`~repro.mem.hierarchy.HierarchyResult` that ``load``,
    ``store`` or ``persist`` returned.  Writeback-free outcomes are the
    hierarchy's shared constants, so most rows cost one list slot.
    ``counters`` holds, for each :meth:`EpochEngine.run` in turn, the 12
    L1–L3 hit, miss, eviction and writeback counters at its end.
    """

    __slots__ = ("outcomes", "counters")

    def __init__(self) -> None:
        self.outcomes: list = []
        self.counters: list[tuple[int, ...]] = []


class EpochEngine:
    """One run's worth of bound-state interpreter.

    Construct per :meth:`System.run` call — eligibility (and the
    sanitizer's seam patches) are re-checked each run, and histogram /
    ledger objects are re-bound (``reset_stats`` replaces some of
    them).  Each row's CPU-cache step calls the system's hierarchy
    (``load``, ``store`` or ``persist``).  An engine that records or
    replays a :class:`CachePass` spans one cell instead: its warm-up run
    and its measured run, with ``reset_stats`` between them, walk one
    pass in order.  A replaying engine never calls the hierarchy, so its
    system's CPU caches stay empty and only their counters are right.
    """

    #: Always 0; perfbench's ``epoch.planned_row_ratio`` still reads it.
    planned_rows = 0

    def __init__(self, system, record: CachePass | None = None,
                 replay: CachePass | None = None) -> None:
        reason = ineligible_reason(system)
        if reason is not None:
            raise ConfigError(f"epoch engine ineligible: {reason}")
        self.system = system
        self.flavor = _FLAVORS[type(system.controller)]
        #: Rows executed (engine-local on purpose: anything pushed into
        #: the StatGroups would change the digested stats dict).
        self.window_rows = 0
        self.record = record
        self.replay = replay
        #: The replay's place in ``replay.outcomes``, across runs.
        self._replayed = (iter(replay.outcomes) if replay is not None
                          else None)
        #: Runs finished, which index ``CachePass.counters``.
        self.runs = 0

    # ------------------------------------------------------------------
    def run(self, trace) -> None:
        """Execute the whole trace in :data:`EPOCH_WINDOW`-row epochs."""
        system = self.system
        flavor = self.flavor
        is_scue = flavor == "scue"
        is_lazy = flavor == "lazy"
        is_eager = flavor == "eager"
        is_plp = flavor == "plp"
        is_bmf = flavor == "bmf"
        is_baseline = flavor == "baseline"

        # ---- bind the world once ------------------------------------
        ctl = system.controller
        name = ctl.name
        amap = ctl.amap
        cap = amap.data_capacity
        arity = amap.arity
        tree_levels = amap.tree_levels
        counter_bits = amap.counter_bits
        cmask = (1 << counter_bits) - 1
        tree_base = amap._tree_base
        tree_offsets = amap._tree_offsets
        branch_addrs = amap.branch_addrs
        cb_of_data = amap.counter_block_of_data  # negative-addr raise parity

        hierarchy = system.hierarchy

        nvm = ctl.nvm
        nvm_lines = nvm._lines
        open_rows = nvm._open_rows
        banks = nvm.timing.banks
        row_hit_read = nvm.timing.row_hit_read_cycles
        row_miss_read = nvm.timing.read_cycles
        write_service = ctl.timing.write_service_cycles
        nvm_reads = nvm._reads
        nvm_writes = nvm._writes
        row_hits = nvm._row_hits
        row_misses = nvm._row_misses

        mc = ctl.meta_cache
        mc_sets = mc._sets
        mc_nsets = mc.num_sets
        mc_ways = mc.ways
        mc_hits = mc._hits
        mc_misses = mc._misses
        mc_evictions = mc._evictions
        mc_writebacks = mc._writebacks
        victim_buffer = ctl._victim_buffer

        mac = ctl.mac.mac

        cme = ctl.cme
        pads = cme._pads
        pad_limit = cme._PAD_MEMO_LIMIT
        cme_key = cme._key
        encrypts = cme._encrypts
        decrypts = cme._decrypts

        hash_engine = ctl.hash_engine
        hash_lat = hash_engine.latency_cycles
        hashes = hash_engine._hashes
        busy = hash_engine._busy_cycles

        wpq = ctl.wpq
        wpq_data = wpq._data
        wpq_meta = wpq._metadata
        drain_cycles = wpq.drain_cycles
        wdata_cap = wpq.data_capacity
        wmeta_cap = wpq.metadata_capacity
        wpq_drained = wpq._drained
        wpq_enq_ctr = wpq._enqueued
        wpq_menq_ctr = wpq._meta_enqueued
        wpq_stall_ctr = wpq._stall
        wpq_full_ctr = wpq._full_events

        bump_leaf = ctl._bump_leaf   # overflow: rare, stateful, real
        data_macs = ctl.data_macs
        plaintexts = ctl._plaintexts
        data_reads = ctl._data_reads
        data_writes = ctl._data_writes
        meta_reads = ctl._meta_reads
        meta_writes = ctl._meta_writes
        load_stalls = system._load_stalls
        persist_stalls = system._persist_stalls
        instructions = system._instructions
        loads = system._loads
        stores = system._stores
        persists = system._persists
        # Rebound per run: reset_stats() replaces the ledger dict, and
        # histogram reset() replaces the bucket list.
        attr = system.attribution.cycles
        write_hist = ctl._write_latency
        read_hist = ctl._read_latency
        verify_hist = ctl._verify_latency

        READ = AccessType.READ
        WRITE = AccessType.WRITE
        nmask = (1 << counter_bits) - 1  # SITNode counter mask == cmask
        cb_from_bytes = CounterBlock.from_bytes
        sit_from_bytes = SITNode.from_bytes
        root_counters = ctl.running_root._counters

        if is_scue:
            recovery_counters = ctl.recovery_root._counters
            top_subtree = ctl._top_subtree_leaves
            shortcut_updates = ctl._shortcut_updates
        if is_bmf:
            nvmc = ctl._nvmc
            persistent_root = ctl._persistent_root
        if is_eager:
            apply_due = ctl._apply_due

        def hadd(hist, value):
            # LatencyHistogram.add(value) with weight 1, inlined fields.
            idx = value.bit_length() if value > 0 else 0
            if idx >= 64:
                idx = 63
            hist.counts[idx] += 1
            hist.count += 1
            hist.total += value
            if hist.minimum is None or value < hist.minimum:
                hist.minimum = value
            if hist.maximum is None or value > hist.maximum:
                hist.maximum = value

        # The three CPU-cache steps, bound once per run: the hierarchy's
        # own methods, those methods recorded, or a recorded pass
        # replayed.
        record = self.record
        if self.replay is not None:
            replayed = self._replayed.__next__

            def replay_step(line):
                return replayed()

            load_step = store_step = persist_step = replay_step
        elif record is not None:
            keep = record.outcomes.append

            def recorded(step):
                def record_step(line):
                    outcome = step(line)
                    keep(outcome)
                    return outcome
                return record_step

            load_step, store_step, persist_step = (
                recorded(hierarchy.load), recorded(hierarchy.store),
                recorded(hierarchy.persist))
        else:
            load_step, store_step, persist_step = \
                hierarchy.load, hierarchy.store, hierarchy.persist

        # ---- WPQ: advance_to / enqueue, inlined ----------------------
        def wpq_advance(cycle):
            if cycle < wpq._now:
                return
            wpq._now = cycle
            ndrain = wpq._next_drain_at
            while (wpq_data or wpq_meta) and ndrain <= cycle:
                if wpq_meta:
                    wpq_meta.popleft()
                else:
                    wpq_data.popleft()
                wpq_drained.value += 1
                ndrain += drain_cycles
            if ndrain < cycle and not wpq_data and not wpq_meta:
                ndrain = cycle  # idle queue: drain restarts on arrival
            wpq._next_drain_at = ndrain

        def wpq_enqueue(line_addr, cycle, metadata):
            wpq_advance(cycle)
            if metadata:
                queue = wpq_meta
                capacity = wmeta_cap
            else:
                queue = wpq_data
                capacity = wdata_cap
            stall = 0
            if len(queue) >= capacity:
                wpq_full_ctr.value += 1
                while len(queue) >= capacity:
                    now = wpq._now
                    wait_until = wpq._next_drain_at
                    if wait_until <= now:
                        wait_until = now + 1
                    stall += wait_until - now
                    wpq_advance(wait_until)
            if not wpq_data and not wpq_meta:
                wpq._next_drain_at = wpq._now + drain_cycles
            queue.append(WPQEntry(line_addr, wpq._now, metadata))
            if metadata:
                wpq_menq_ctr.value += 1
            else:
                wpq_enq_ctr.value += 1
            if stall:
                wpq_stall_ctr.value += stall
            return stall

        # ---- seals ---------------------------------------------------
        def seal(node, node_addr, parent_counter):
            """`CounterBlock.seal` / `SITNode.seal`, returning the sealed
            node's `to_bytes()`: its counter image is packed once, for
            the MAC and for the persist that follows."""
            image = node._counter_image()
            node.hmac = mac(node_addr, image, parent_counter)
            node.hmac_stale = False
            return image + node.hmac.to_bytes(8, "little")

        # ---- the metadata fetch-and-verify chain, inlined ------------
        def install(line, node):
            """`_install` of a node just missed on: clean insert + sync
            dirty-victim flush.  Dirty-notification hooks are no-ops for
            every eligible flavor (eligibility: ``tracker is None``)."""
            mset = mc_sets[(line >> 6) % mc_nsets]
            victim = None
            if len(mset) >= mc_ways:
                _, victim = mset.popitem(last=False)
                mc_evictions.value += 1
                if victim.dirty:
                    mc_writebacks.value += 1
            mset[line] = CacheLine(line, False, node)
            if victim is not None and victim.dirty:
                ctl._flush_depth += 1
                if ctl._flush_depth > 64:
                    raise SimulationError(
                        "runaway eviction cascade in the metadata cache")
                victim_buffer[victim.addr] = victim.payload
                try:
                    ctl._flush_charge += flush_victim(victim.payload,
                                                      ctl._op_cycle)
                finally:
                    ctl._flush_depth -= 1
                    victim_buffer.pop(victim.addr, None)

        def chain_miss(level, index, line, mset):
            """`_fetch_chain` past the (already missed) counted probe.
            Returns ``(node, read_latency, nodes_fetched)``."""
            if is_baseline:
                # Baseline override: read the counter block directly,
                # unverified (no victim-buffer snoop, chain or hashes).
                row = line >> 12
                bank = row % banks
                hit = open_rows.get(bank) == row
                latency = row_hit_read if hit else row_miss_read
                nvm_reads.value += 1
                if hit:
                    row_hits.value += 1
                else:
                    row_misses.value += 1
                open_rows[bank] = row
                node = cb_from_bytes(index, nvm_lines.get(line, ZERO_LINE))
                meta_reads.value += 1
                install(line, node)
                return node, latency, 0
            buffered = victim_buffer.get(line)
            if buffered is not None:
                return buffered, 0, 0
            # _parent_counter_chain: trusted counter for verification.
            if level + 1 >= tree_levels:
                slot = index % arity
                parent_counter = root_counters[slot]
                if is_eager:
                    for entry in ctl._pending_root:
                        if entry[1] == slot:
                            parent_counter += entry[2]
                    parent_counter &= cmask
                latency = 0
                fetched = 0
            elif is_bmf:
                # BMF `_fetch_chain` override: the leaf parent lives in
                # the persistent on-chip root table, free of charge.
                root = nvmc.get(index // arity)
                if root is None:
                    root = persistent_root(index // arity)
                parent_counter = root.counters[index % arity]
                latency = 0
                fetched = 0
            else:
                parent, latency, fetched = fetch_chain(level + 1,
                                                       index // arity)
                parent_counter = parent.counters[index % arity]
            # The ancestor fetch can trigger eviction flushes that
            # touched this very line — re-check before loading a stale
            # media image over fresh on-chip state (uncounted peeks).
            cl = mset.get(line)
            if cl is not None:
                return cl.payload, latency, fetched
            buffered = victim_buffer.get(line)
            if buffered is not None:
                return buffered, latency, fetched
            row = line >> 12
            bank = row % banks
            hit = open_rows.get(bank) == row
            read_latency = row_hit_read if hit else row_miss_read
            if read_latency > latency:
                latency = read_latency
            # store.load -> nvm.read_line (counted) -> from_bytes.
            nvm_reads.value += 1
            if hit:
                row_hits.value += 1
            else:
                row_misses.value += 1
            open_rows[bank] = row
            raw = nvm_lines.get(line, ZERO_LINE)
            if level == 0:
                node = cb_from_bytes(index, raw)
            else:
                node = sit_from_bytes(level, index, raw, arity)
            meta_reads.value += 1
            # node.verify, on the media line itself: its first 56 bytes
            # are the node's counter image at every layout, so the MAC
            # hashes them as read.  An all-zero line is a blank node,
            # which trusts only a zero parent counter.
            if raw == ZERO_LINE:
                ok = parent_counter == 0
            else:
                ok = node.hmac == mac(line, raw[:56], parent_counter)
            if not ok:
                raise IntegrityError(
                    f"{name}: verification failed for tree node "
                    f"(level {level}, index {index}) at {line:#x}")
            install(line, node)
            return node, latency, fetched + 1

        def fetch_chain(level, index):
            """`_fetch_chain` of a SIT node, with the counted probe."""
            line = tree_base + ((tree_offsets[level] + index) << 6)
            mset = mc_sets[(line >> 6) % mc_nsets]
            cl = mset.get(line)
            if cl is not None:
                mset.move_to_end(line)
                mc_hits.value += 1
                return cl.payload, 0, 0
            mc_misses.value += 1
            return chain_miss(level, index, line, mset)

        def fetch_charged(level, index, line, mset):
            """`fetch_node(..., charge=True)` after a missed probe:
            read latency + one parallel hash burst for the chain."""
            mc_misses.value += 1
            node, latency, fetched = chain_miss(level, index, line, mset)
            if fetched:
                hashes.value += fetched
                busy.value += hash_lat
                return node, latency + hash_lat
            return node, latency

        def fetch_uncharged(level, index, line, mset):
            """`fetch_node(..., charge=False)` after a missed probe:
            hashes/reads counted, zero critical-path latency (SCUE's
            background parent updates)."""
            mc_misses.value += 1
            node, _, fetched = chain_miss(level, index, line, mset)
            if fetched:
                hashes.value += fetched
                busy.value += hash_lat
            return node

        def fetch_leaf(leaf_index, maddr, speculative):
            """`fetch_node(0, leaf_index)` with the metadata-cache hit
            path inlined; ``speculative`` charges the read but not the
            verification hashes (read-path speculation)."""
            mset = mc_sets[(maddr >> 6) % mc_nsets]
            cl = mset.get(maddr)
            if cl is not None:
                mset.move_to_end(maddr)
                mc_hits.value += 1
                return cl.payload, 0, cl
            mc_misses.value += 1
            node, latency, fetched = chain_miss(0, leaf_index, maddr, mset)
            if fetched:
                hashes.value += fetched
                busy.value += hash_lat
                if not speculative:
                    latency += hash_lat
            return node, latency, mset.get(maddr)

        def mark_dirty(node, cl):
            """`_mark_dirty` for a node whose cache line was just probed;
            hooks are no-ops for every eligible flavor."""
            if cl is None:
                ctl._mark_dirty(node)  # rare: not resident (tiny caches)
            elif not cl.dirty:
                cl.dirty = True

        def persist_node(node_addr, raw, cycle):
            """`_persist_node` of the node whose `to_bytes()` is ``raw``:
            WPQ enqueue + `store.save` + `_mark_clean`, inlined.  Returns
            the WPQ stall."""
            stall = wpq_enqueue(node_addr, cycle, True)
            nvm_writes.value += 1
            row = node_addr >> 12
            bank = row % banks
            if open_rows.get(bank) == row:
                row_hits.value += 1
            else:
                row_misses.value += 1
            open_rows[bank] = row
            nvm_lines[node_addr] = raw
            meta_writes.value += 1
            cl = mc_sets[(node_addr >> 6) % mc_nsets].get(node_addr)
            if cl is not None and cl.dirty:
                cl.dirty = False
            return stall

        # ---- dirty-victim flushes: `_flush_node`, per flavor ---------
        def flush_scue(node, cycle):
            """SCUE flush (Fig 7): seal with the node's own dummy counter
            (no reads), persist, counter-summing parent update off the
            critical path."""
            if node.__class__ is CounterBlock:
                level = 0
                index = node.index
                addr = cap + (index << 6)
                dummy = (node.major * 64 + sum(node.minors)) & cmask
            else:
                level = node.level
                index = node.index
                addr = tree_base + ((tree_offsets[level] + index) << 6)
                dummy = sum(node.counters) & cmask
            image = seal(node, addr, dummy)
            hashes.value += 1
            busy.value += hash_lat
            stall = persist_node(addr, image, cycle)
            # _update_parent_counter(level, index, set_to=dummy).
            slot = index % arity
            if level + 1 >= tree_levels:
                root_counters[slot] = dummy & cmask  # running_root.set
                return stall
            plevel = level + 1
            pindex = index // arity
            paddr = tree_base + ((tree_offsets[plevel] + pindex) << 6)
            pset = mc_sets[(paddr >> 6) % mc_nsets]
            pcl = pset.get(paddr)
            if pcl is not None:
                pset.move_to_end(paddr)
                mc_hits.value += 1
                parent = pcl.payload
            else:
                parent = fetch_uncharged(plevel, pindex, paddr, pset)
                pcl = pset.get(paddr)
            if parent.__class__ is not SITNode:
                expect_node(parent, SITNode, name + ": parent update")
            parent.counters[slot] = dummy & nmask
            parent.hmac_stale = True
            mark_dirty(parent, pcl)
            return stall

        def flush_lazy(node, cycle):
            """Lazy flush: fetch + bump the parent *now* (the reads SCUE's
            dummy counter eliminates), seal, persist."""
            if node.__class__ is CounterBlock:
                level = 0
                index = node.index
                addr = cap + (index << 6)
            else:
                level = node.level
                index = node.index
                addr = tree_base + ((tree_offsets[level] + index) << 6)
            # _bump_parent(level, index, 1, cycle, charge=True).
            slot = index % arity
            if level + 1 >= tree_levels:
                parent_counter = (root_counters[slot] + 1) & cmask
                root_counters[slot] = parent_counter
                fetch_latency = REGISTER_UPDATE_CYCLES
            else:
                plevel = level + 1
                pindex = index // arity
                paddr = tree_base + ((tree_offsets[plevel] + pindex) << 6)
                pset = mc_sets[(paddr >> 6) % mc_nsets]
                pcl = pset.get(paddr)
                if pcl is not None:
                    pset.move_to_end(paddr)
                    mc_hits.value += 1
                    parent = pcl.payload
                    fetch_latency = 0
                else:
                    parent, fetch_latency = fetch_charged(plevel, pindex,
                                                          paddr, pset)
                    pcl = pset.get(paddr)
                if parent.__class__ is not SITNode:
                    expect_node(parent, SITNode, name + ": parent bump")
                counters = parent.counters
                parent_counter = (counters[slot] + 1) & nmask
                counters[slot] = parent_counter
                parent.hmac_stale = True
                mark_dirty(parent, pcl)
            image = seal(node, addr, parent_counter)
            hashes.value += 2
            busy.value += hash_lat * 2  # charge(2, parallel=False)
            stall = persist_node(addr, image, cycle)
            return fetch_latency + stall

        def flush_simple(node, cycle):
            """Eager/PLP/baseline flush: the HMAC is already current —
            just persist."""
            if node.__class__ is CounterBlock:
                addr = cap + (node.index << 6)
            else:
                addr = tree_base \
                    + ((tree_offsets[node.level] + node.index) << 6)
            return persist_node(addr, node.to_bytes(), cycle)

        def flush_bmf(node, cycle):
            """Unreachable: BMF-ideal caches only leaves, and eligibility
            requires write-through leaves, so no victim is ever dirty."""
            raise SimulationError("dirty BMF-ideal metadata-cache victim "
                                  "under write-through leaves")

        flush_victim = {"scue": flush_scue, "lazy": flush_lazy,
                        "eager": flush_simple, "plp": flush_simple,
                        "baseline": flush_simple, "bmf": flush_bmf}[flavor]

        def recache(addr, node):
            """Eager's `_recache`: reinstall dirty (a real `_install`) a
            sealed branch node that the climb evicted before its seal;
            leaves are written through, so only SIT nodes."""
            if mc_sets[(addr >> 6) % mc_nsets].get(addr) is None:
                ctl._install(addr, node, True)

        def climb_branch(leaf, leaf_index, delta, context):
            """The eager/PLP branch walk: bump + dirty every ancestor,
            seal each node with its parent's fresh counter (eager
            recaches an evicted one; PLP persists them all).  Returns
            (fetch_latency, top_index, branch_nodes, branch_media,
            images), ``images`` holding the sealed `to_bytes()` of every
            node but the top, which the caller seals."""
            baddrs = branch_addrs(leaf_index)
            fetch_latency = 0
            current = leaf
            level, index = 0, leaf_index
            depth = 0
            nodes = [leaf]
            images = []
            while level + 1 < tree_levels:
                plevel = level + 1
                pindex = index // arity
                paddr = baddrs[depth + 1]
                pset = mc_sets[(paddr >> 6) % mc_nsets]
                pcl = pset.get(paddr)
                if pcl is not None:
                    pset.move_to_end(paddr)
                    mc_hits.value += 1
                    parent = pcl.payload
                else:
                    parent, latency = fetch_charged(plevel, pindex,
                                                    paddr, pset)
                    fetch_latency += latency
                    pcl = pset.get(paddr)
                if parent.__class__ is not SITNode:
                    expect_node(parent, SITNode, context)
                slot = index % arity
                counters = parent.counters
                counters[slot] = (counters[slot] + delta) & nmask
                parent.hmac_stale = True
                mark_dirty(parent, pcl)
                images.append(seal(current, baddrs[depth], counters[slot]))
                if is_eager and depth:
                    recache(baddrs[depth], current)
                nodes.append(parent)
                current = parent
                level, index = plevel, pindex
                depth += 1
            return fetch_latency, index, nodes, baddrs, images

        # ---- scheme tails: `_on_leaf_persist`, transcribed -----------
        def tail_baseline(leaf, leaf_index, delta, cycle, maddr):
            return persist_node(maddr, leaf.to_bytes(), cycle)

        def tail_bmf(leaf, leaf_index, delta, cycle, maddr):
            root = nvmc.get(leaf_index // arity)
            if root is None:
                root = persistent_root(leaf_index // arity)
            slot = leaf_index % arity
            counters = root.counters
            counters[slot] = (counters[slot] + delta) & nmask
            root.hmac_stale = True
            image = seal(leaf, maddr, counters[slot])
            hashes.value += 1
            busy.value += hash_lat
            stall = persist_node(maddr, image, cycle)
            return hash_lat + stall

        def tail_lazy(leaf, leaf_index, delta, cycle, maddr):
            # _bump_parent(0, leaf_index, 1, charge=True): tree_levels
            # >= 2 is an eligibility invariant, so the parent is a node.
            pindex = leaf_index // arity
            paddr = branch_addrs(leaf_index)[1]
            pset = mc_sets[(paddr >> 6) % mc_nsets]
            pcl = pset.get(paddr)
            if pcl is not None:
                pset.move_to_end(paddr)
                mc_hits.value += 1
                parent = pcl.payload
                fetch_latency = 0
            else:
                parent, fetch_latency = fetch_charged(1, pindex, paddr,
                                                      pset)
                pcl = pset.get(paddr)
            if parent.__class__ is not SITNode:
                expect_node(parent, SITNode, "lazy: parent bump")
            slot = leaf_index % arity
            counters = parent.counters
            counters[slot] = (counters[slot] + 1) & nmask
            parent.hmac_stale = True
            mark_dirty(parent, pcl)
            image = seal(leaf, maddr, counters[slot])
            hashes.value += 2
            hash_latency = hash_lat * 2  # charge(2, parallel=False)
            busy.value += hash_latency
            stall = persist_node(maddr, image, cycle)
            return fetch_latency + hash_latency + stall

        def tail_scue(leaf, leaf_index, delta, cycle, maddr):
            dummy = (leaf.major * 64 + sum(leaf.minors)) & cmask
            image = seal(leaf, maddr, dummy)
            hashes.value += 1
            busy.value += hash_lat
            slot = (leaf_index // top_subtree) % arity
            recovery_counters[slot] = \
                (recovery_counters[slot] + delta) & cmask
            shortcut_updates.value += 1
            stall = persist_node(maddr, image, cycle)
            # Parent update off the critical path (charge=False).
            pindex = leaf_index // arity
            paddr = branch_addrs(leaf_index)[1]
            pset = mc_sets[(paddr >> 6) % mc_nsets]
            pcl = pset.get(paddr)
            if pcl is not None:
                pset.move_to_end(paddr)
                mc_hits.value += 1
                parent = pcl.payload
            else:
                parent = fetch_uncharged(1, pindex, paddr, pset)
                pcl = pset.get(paddr)
            if parent.__class__ is not SITNode:
                expect_node(parent, SITNode, "scue: parent update")
            pslot = leaf_index % arity
            parent.counters[pslot] = dummy & nmask
            parent.hmac_stale = True
            mark_dirty(parent, pcl)
            return hash_lat + REGISTER_UPDATE_CYCLES + stall

        def tail_eager(leaf, leaf_index, delta, cycle, maddr):
            fetch_latency, top_index, nodes, baddrs, images = climb_branch(
                leaf, leaf_index, delta, "eager: branch propagation")
            slot = top_index % arity
            hashes.value += tree_levels
            busy.value += hash_lat  # charge(tree_levels, parallel=True)
            stall = persist_node(maddr, images[0], cycle)
            ctl._window_extra = fetch_latency + hash_lat
            pending = ctl._pending_root
            pending.append([None, slot, delta])
            # Top seal uses the *effective* root: register + pending.
            effective = root_counters[slot]
            for entry in pending:
                if entry[1] == slot:
                    effective += entry[2]
            seal(nodes[-1], baddrs[tree_levels - 1], effective & cmask)
            recache(baddrs[tree_levels - 1], nodes[-1])
            return fetch_latency + hash_lat + stall

        def tail_plp(leaf, leaf_index, delta, cycle, maddr):
            fetch_latency, top_index, nodes, baddrs, images = climb_branch(
                leaf, leaf_index, delta, "plp: branch persist")
            slot = top_index % arity
            root_counters[slot] = (root_counters[slot] + delta) & cmask
            images.append(seal(nodes[-1], baddrs[tree_levels - 1],
                               root_counters[slot]))
            hashes.value += tree_levels
            busy.value += hash_lat  # charge(len(branch), parallel=True)
            wpq_stall = 0
            for depth, raw in enumerate(images):
                node_addr = baddrs[depth]
                wpq_stall += persist_node(node_addr, raw, cycle)
                if depth:
                    # Shadow write: same node, same media line, again.
                    wpq_stall += wpq_enqueue(node_addr, cycle, True)
                    nvm_writes.value += 1
                    row = node_addr >> 12
                    bank = row % banks
                    if open_rows.get(bank) == row:
                        row_hits.value += 1
                    else:
                        row_misses.value += 1
                    open_rows[bank] = row
                    nvm_lines[node_addr] = raw
                    meta_writes.value += 1
                    shadow_writes.value += 1
            return fetch_latency + hash_lat + wpq_stall

        if is_plp:
            shadow_writes = ctl._shadow_writes

        tail = {"baseline": tail_baseline, "bmf": tail_bmf,
                "lazy": tail_lazy, "scue": tail_scue,
                "eager": tail_eager, "plp": tail_plp}[flavor]

        # ---- the data write path: write_data, inlined ---------------
        def write_line(line, data, cycle, persist):
            """`write_data` with eager's override, for a persist or (with
            ``persist`` off) a dirty LLC writeback, which stalls no CPU:
            eager's window then closes at ``cycle + _window_extra``.
            Returns (cpu_stall, fetch, overflow, scheme, flush, wpq)."""
            if is_eager and ctl._pending_root:
                apply_due(cycle)
            ctl._op_cycle = cycle
            if data is not None:
                if len(data) != 64:
                    data = (data + ZERO_LINE)[:64]
                payload = bytes(data)
            else:
                payload = plaintexts.get(line)
                if payload is None:
                    payload = blake2b(line.to_bytes(8, "little"),
                                      digest_size=32).digest() * 2
            leaf_index = line >> 12
            maddr = cap + (leaf_index << 6)
            leaf, fetch_latency, cl = fetch_leaf(leaf_index, maddr, False)
            if leaf.__class__ is not CounterBlock:
                expect_node(leaf, CounterBlock, name + ": data write")
            slot = (line >> 6) & 63
            minors = leaf.minors
            minor = minors[slot] + 1
            if minor < MINOR_LIMIT:
                leaf.hmac_stale = True
                minors[slot] = minor
                mark_dirty(leaf, cl)
                delta = 1
                overflow_cycles = 0
                major = leaf.major
            else:
                # Overflow: rare, stateful, kept real.  The bump
                # replaces the minors list, so re-read from the leaf.
                delta, overflow_cycles = bump_leaf(leaf, line, cycle)
                major = leaf.major
                minor = leaf.minors[slot]
            # cme.encrypt
            encrypts.value += 1
            okey = (line, major, minor)
            pad = pads.get(okey)
            if pad is None:
                pad = make_otp(cme_key, line, major, minor)
                if len(pads) >= pad_limit:
                    pads.clear()
                pads[okey] = pad
            ciphertext = (int.from_bytes(payload, "little")
                          ^ int.from_bytes(pad, "little")) \
                .to_bytes(64, "little")
            data_macs[line] = mac(line, ciphertext, major, minor)
            plaintexts[line] = payload
            scheme_cycles = tail(leaf, leaf_index, delta, cycle, maddr)
            wpq_stall = wpq_enqueue(line, cycle, False)
            nvm_writes.value += 1
            row = line >> 12
            bank = row % banks
            if open_rows.get(bank) == row:
                row_hits.value += 1
            else:
                row_misses.value += 1
            open_rows[bank] = row
            nvm_lines[line] = ciphertext
            data_writes.value += 1
            flush_cycles = ctl._flush_charge
            if flush_cycles:
                ctl._flush_charge = 0
            critical = (fetch_latency + overflow_cycles
                        + scheme_cycles + flush_cycles)
            latency = critical + wpq_stall + write_service
            hadd(write_hist, latency)
            hadd(verify_hist, fetch_latency)
            cpu_stall = (critical + wpq_stall) if persist else 0
            if is_eager:
                extra = ctl._window_extra
                for entry in ctl._pending_root:
                    if entry[0] is None:
                        entry[0] = cycle + cpu_stall + extra
            return (cpu_stall, fetch_latency, overflow_cycles,
                    scheme_cycles, flush_cycles, wpq_stall)

        # ---- the interpreter: System.execute + read_data ------------
        def execute(access):
            retired = access.gap + 1
            cycle = system.cycle + retired
            system.cycle = cycle
            attr["cpu"] += retired
            instructions.value += retired
            addr = access.addr
            line = addr & -64
            if line >= cap:
                raise AddressError(
                    f"trace address {addr:#x} beyond the data region")
            kind = access.kind
            if kind is READ:
                loads.value += 1
                miss, writebacks, _ = load_step(line)
                if miss:
                    if line < 0:
                        cb_of_data(line)  # raises like the scalar path
                    if is_eager and ctl._pending_root:
                        apply_due(cycle)
                    ctl._op_cycle = cycle
                    leaf_index = line >> 12
                    maddr = cap + (leaf_index << 6)
                    leaf, fetch_latency, _ = fetch_leaf(
                        leaf_index, maddr, True)
                    if leaf.__class__ is not CounterBlock:
                        expect_node(leaf, CounterBlock, name + ": data read")
                    row = line >> 12
                    bank = row % banks
                    hit = open_rows.get(bank) == row
                    array_latency = row_hit_read if hit else row_miss_read
                    nvm_reads.value += 1
                    if hit:
                        row_hits.value += 1
                    else:
                        row_misses.value += 1
                    open_rows[bank] = row
                    ciphertext = nvm_lines.get(line, ZERO_LINE)
                    data_reads.value += 1
                    stored_mac = data_macs.get(line)
                    if stored_mac is not None:
                        # cme.decrypt: the plaintext is discarded by the
                        # caller, so only the counted side effects run.
                        decrypts.value += 1
                        hashes.value += 1
                        busy.value += hash_lat
                        if stored_mac != mac(
                                line, ciphertext, leaf.major,
                                leaf.minors[(line >> 6) & 63]):
                            raise IntegrityError(
                                f"{name}: data MAC mismatch at {line:#x} "
                                f"— tampered user data detected")
                    flush_cycles = ctl._flush_charge
                    if flush_cycles:
                        ctl._flush_charge = 0
                    latency = (fetch_latency
                               if fetch_latency >= array_latency
                               else array_latency) + flush_cycles
                    hadd(read_hist, latency)
                    hadd(verify_hist, fetch_latency)
                    cycle += latency
                    system.cycle = cycle
                    load_stalls.value += latency
                    attr["read_flush"] += flush_cycles
                    overlapped = latency - flush_cycles
                    if fetch_latency > array_latency:
                        attr["read_verify"] += overlapped
                    else:
                        attr["read_media"] += overlapped
            elif kind is WRITE:
                stores.value += 1
                _, writebacks, _ = store_step(line)
                data = access.data
                if data is not None:
                    if len(data) != 64:
                        data = (data + ZERO_LINE)[:64]
                    plaintexts[line] = bytes(data)
            else:  # PERSIST
                persists.value += 1
                _, writebacks, _ = persist_step(line)
                if line < 0:
                    cb_of_data(line)  # raises like the scalar path
                (cpu_stall, fetch_latency, overflow_cycles, scheme_cycles,
                 flush_cycles, wpq_stall) = write_line(line, access.data,
                                                       cycle, True)
                cycle += cpu_stall
                system.cycle = cycle
                persist_stalls.value += cpu_stall
                attr["write_fetch"] += fetch_latency
                attr["write_overflow"] += overflow_cycles
                attr["write_scheme"] += scheme_cycles
                attr["write_flush"] += flush_cycles
                attr["write_wpq"] += wpq_stall
            for writeback in writebacks:
                if writeback < cap:
                    write_line(writeback, None, cycle, False)
            # ctl.tick: eager lands due root updates, then the WPQ drains.
            if is_eager and ctl._pending_root:
                apply_due(cycle)
            wpq_advance(cycle)

        # ---- epoch loop ----------------------------------------------
        it = iter(trace)
        try:
            while True:
                window = list(islice(it, EPOCH_WINDOW))
                if not window:
                    break
                self.window_rows += len(window)
                for access in window:
                    execute(access)
        finally:
            # chain_miss <-> fetch_chain and install -> flush_victim ->
            # ... -> install are closure cycles that hold the whole
            # machine; cut both so refcounting frees a finished run.
            fetch_chain = flush_victim = None  # noqa: F811
        if self.replay is not None:
            for counter, value in zip(_cpu_counters(hierarchy),
                                      self.replay.counters[self.runs]):
                counter.value = value
        elif record is not None:
            record.counters.append(tuple(
                counter.value for counter in _cpu_counters(hierarchy)))
        self.runs += 1
