"""Scalar/epoch engine equivalence: the byte-identical oracle as tests.

The epoch-batched engine (:mod:`repro.sim.epoch`) promises to reproduce
the scalar reference loop *exactly* — same result digest, same
cycle-attribution ledger, same latency histograms — for every scheme,
and to fall back to the scalar loop (with an unchanged event stream)
whenever anything it cannot model is attached.  These tests pin both
halves of that promise:

* every scheme, over randomized-seed mixed workloads, digests
  identically under both engines (small caches force eviction cascades,
  so the inlined flush paths are exercised, not just the happy path);
* a minor-counter overflow (>= 64 persists to one line) re-encrypts the
  block through the *real* ``_bump_leaf`` seam and still digests
  identically;
* dirty LLC writebacks run through the interpreter's inlined write path,
  not the controller's ``write_data``: on a store-heavy trace the
  scalar loop sends ``persist=False`` writes while the epoch engine
  calls ``write_data`` not at all, the two digest identically, and
  eager's in-flight root updates end on the same completion cycles (a
  writeback opens its window with no CPU stall);
* PLP with a 2-way metadata cache evicts dirty ancestors and still
  digests identically: no other test runs the epoch engine's PLP flush;
* the CPU caches' dirty bits are the epoch engine's to write: a line
  kept dirty only in L1 is written back when L3 evicts it, and an eADR
  crash after a store-heavy run flushes the same dirty lines and
  digests identically, whichever engine filled the caches;
* under write-through, baseline and BMF-ideal never flush, even from a
  direct-mapped cache, and a dirty BMF-ideal victim (which cannot
  happen) makes the epoch engine raise;
* a byte flipped on media in a counter block, a SIT node or a data line
  makes the next epoch-engine read of that line raise
  :class:`~repro.errors.IntegrityError`, and untampered media verifies;
* the persist-order sanitizer's seam patches make the run ineligible:
  ``engine="auto"`` silently takes the scalar loop and the sanitizer
  observes the exact same persist-event stream as an explicit scalar
  run, while driving :class:`~repro.sim.epoch.EpochEngine` directly
  refuses loudly;
* a finished run leaves no reference cycle behind, so the simulated
  machine is freed as soon as the last reference to it goes.

Every batched run here drives ``EpochEngine`` itself rather than
``engine="auto"``: it raises on an ineligible run, so a silent fallback
can't masquerade as coverage.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.cme.counters import MINOR_LIMIT
from repro.errors import ConfigError, IntegrityError, SimulationError
from repro.mem.trace import AccessType, MemoryAccess
from repro.perf.harness import result_digest
from repro.secure import SCHEMES as CONTROLLERS
from repro.secure.base import SecureMemoryController
from repro.sim import epoch
from repro.sim.system import System
from repro.workloads import make_workload

from tests.conftest import (
    SMALL_CAPACITY,
    persist_trace,
    random_trace,
    small_config,
    store_heavy_trace,
)
from tests.secure.test_runtime_detection import force_refetch

SCHEMES = ("baseline", "lazy", "eager", "plp", "bmf-ideal", "scue")


def build_system(scheme: str, engine: str = "auto",
                 **overrides) -> System:
    # check_data is a shadow-verification debug mode the epoch engine
    # does not transcribe; the equivalence runs use the production
    # setting (off) so both engines are eligible for comparison.
    config = small_config(scheme, check_data=False, **overrides)
    return System(config, engine=engine)


def run_trace(scheme: str, trace, engine: str, **overrides) -> System:
    """Run ``trace`` through the scalar loop or, for ``"epoch"``, the
    epoch engine itself."""
    if engine == "epoch":
        system = build_system(scheme, **overrides)
        epoch.EpochEngine(system).run(iter(trace))
    else:
        system = build_system(scheme, engine, **overrides)
        system.run(iter(trace))
    return system


def hot_line_trace(persists: int) -> list[MemoryAccess]:
    """Hammer one data line with persists (plus a neighbour read per
    round so the branch stays warm the way real traffic keeps it)."""
    trace = []
    for i in range(persists):
        trace.append(MemoryAccess(AccessType.PERSIST, 0x40, gap=i % 3))
        if i % 8 == 0:
            trace.append(MemoryAccess(AccessType.READ, 0x80, gap=1))
    return trace


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seed", (3, 11, 29))
    def test_every_scheme_digests_identically(self, scheme, seed):
        trace = random_trace(500, seed=seed)
        scalar = run_trace(scheme, trace, "scalar")
        batched = run_trace(scheme, trace, "epoch")
        scalar_result = scalar.result("equivalence")
        batched_result = batched.result("equivalence")
        assert result_digest(scalar_result) \
            == result_digest(batched_result)
        # The digest covers these, but asserting them directly makes a
        # failure point at the diverging field instead of a hash.
        assert scalar_result.cycles == batched_result.cycles
        assert scalar_result.attribution == batched_result.attribution
        assert scalar_result.histograms == batched_result.histograms
        assert scalar_result.stats == batched_result.stats

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_overflow_hot_line(self, scheme):
        # >= MINOR_LIMIT persists to one line force a minor-counter
        # overflow: the epoch engine must route it through the real
        # _bump_leaf (whole-block re-encryption) and stay identical.
        trace = hot_line_trace(MINOR_LIMIT + 8)
        scalar = run_trace(scheme, trace, "scalar")
        batched = run_trace(scheme, trace, "epoch")
        assert result_digest(scalar.result("overflow")) \
            == result_digest(batched.result("overflow"))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_writebacks_skip_the_scalar_write_path(self, scheme,
                                                   monkeypatch):
        # Eager's override reaches the base method through super(), so
        # a class-level spy there sees every scheme's writes.
        persist_flags = []
        write_data = SecureMemoryController.write_data

        def counting(ctl, addr, data, cycle, persist=True):
            persist_flags.append(persist)
            return write_data(ctl, addr, data, cycle, persist)

        monkeypatch.setattr(SecureMemoryController, "write_data", counting)
        trace = store_heavy_trace(600, seed=5)
        scalar = run_trace(scheme, trace, "scalar")
        assert False in persist_flags
        persist_flags.clear()
        batched = run_trace(scheme, trace, "epoch")
        assert persist_flags == []
        assert result_digest(scalar.result("writeback")) \
            == result_digest(batched.result("writeback"))
        if scheme == "eager":
            assert scalar.controller._pending_root \
                == batched.controller._pending_root


    def test_plp_flushes_from_a_two_way_metadata_cache(self):
        # PLP cleans its whole branch on every write; only a branch walk
        # that evicts an ancestor it has just dirtied sends it through
        # the epoch engine's flush_simple, and a 2-way cache does that.
        trace = store_heavy_trace(400, seed=5)
        results = [run_trace("plp", trace, engine, metadata_cache_size=1024,
                             metadata_cache_ways=2).result("plp-2way")
                   for engine in ("scalar", "epoch")]
        assert results[0].stats["controller.metadata_cache.writebacks"] > 0
        assert result_digest(results[0]) == result_digest(results[1])


def back_invalidation_trace() -> list[MemoryAccess]:
    """Line 0 stays dirty in L1 (a store hit after every load) while
    eight loads to its set evict it from L3 and L2, where it is clean:
    only the L1 copy's dirty bit, ORed in by back-invalidation, makes
    the writeback.  ``small_config``'s L1 and L3 both have 32 sets."""
    stride = 32 * 64
    trace = [MemoryAccess(AccessType.WRITE, 0)]
    for i in range(1, 9):
        trace += [MemoryAccess(AccessType.READ, i * stride),
                  MemoryAccess(AccessType.WRITE, 0)]
    return trace


class TestCpuCacheDirtyBits:
    """The epoch engine writes the CPU caches' dirty bits; the scalar
    hierarchy and ``drop_all`` read them."""

    def test_back_invalidation_writes_back_an_inner_dirty_line(self):
        hierarchy = build_system("scue").hierarchy
        writebacks = []
        for access in back_invalidation_trace():
            step = hierarchy.store if access.kind is AccessType.WRITE \
                else hierarchy.load
            writebacks += step(access.addr).writebacks
        assert writebacks == [0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_back_invalidated_writeback_digests_identically(self, scheme):
        results = [run_trace(scheme, back_invalidation_trace(), engine)
                   .result("back-invalidation")
                   for engine in ("scalar", "epoch")]
        assert result_digest(results[0]) == result_digest(results[1])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_crash_flushes_the_same_dirty_lines(self, scheme):
        trace = store_heavy_trace(600, seed=5)
        runs = []
        for engine in ("scalar", "epoch"):
            system = run_trace(scheme, trace, engine, eadr=True)
            flushed = system.hierarchy.drop_all()
            # System.crash() drops the caches itself: hand it the lines
            # just taken (patched after the run, so no engine sees it).
            system.hierarchy.drop_all = lambda lines=flushed: lines
            system.crash()
            runs.append((flushed, result_digest(system.result("eadr"))))
        (scalar_lines, scalar_digest), (epoch_lines, epoch_digest) = runs
        assert scalar_lines, "the trace left no dirty line to flush"
        assert scalar_lines == epoch_lines
        assert scalar_digest == epoch_digest


class TestWriteThroughNeverFlushes:
    """Baseline and BMF-ideal cache only leaves, and write-through
    persists each leaf as it is written, so no metadata-cache victim is
    ever dirty: the epoch engine has no BMF-ideal flush to run."""

    @pytest.mark.parametrize("workload", ("store-heavy", "btree"))
    @pytest.mark.parametrize("scheme", ("baseline", "bmf-ideal"))
    def test_direct_mapped_cache_evicts_only_clean_lines(
            self, scheme, workload, monkeypatch):
        flushes = []
        cls = CONTROLLERS[scheme]
        flush_node = cls._flush_node

        def counting(ctl, node, cycle):
            flushes.append(node)
            return flush_node(ctl, node, cycle)

        monkeypatch.setattr(cls, "_flush_node", counting)
        trace = store_heavy_trace(600, seed=5) if workload == "store-heavy" \
            else list(make_workload(workload, SMALL_CAPACITY, 400).trace())
        systems = [run_trace(scheme, trace, engine, metadata_cache_size=256,
                             metadata_cache_ways=1)
                   for engine in ("scalar", "epoch")]
        assert flushes == []
        assert systems[0].controller.meta_cache.stats.evictions > 0
        assert result_digest(systems[0].result(workload)) \
            == result_digest(systems[1].result(workload))

    def test_a_dirty_bmf_victim_raises(self):
        trace = store_heavy_trace(600, seed=5)
        system = build_system("bmf-ideal", "scalar", metadata_cache_size=256,
                              metadata_cache_ways=1)
        system.run(iter(trace[:100]))
        # Re-insert every resident line dirty, in LRU order per set.
        meta_cache = system.controller.meta_cache
        for line in meta_cache.drop_all():
            meta_cache.insert(line.addr, line.payload, dirty=True)
        with pytest.raises(SimulationError, match="dirty BMF-ideal"):
            epoch.EpochEngine(system).run(iter(trace[100:]))


def tampered_read(scheme: str, target: str | None) -> None:
    """Persist through the epoch engine, flush every dirty node and drop
    the metadata and CPU caches, flip one byte of the ``target`` line on
    media (none when ``target`` is ``None``), then read data line 0
    through a second epoch run: its leaf, the leaf's SIT parent and the
    line itself are fetched from media and verified again."""
    system = build_system(scheme)
    ctl = system.controller
    epoch.EpochEngine(system).run(iter(
        [MemoryAccess(AccessType.PERSIST, 0)] + persist_trace(200, seed=13)))
    force_refetch(ctl)
    system.hierarchy.drop_all()
    if target is not None:
        addr = {"counter-block": ctl.amap.counter_block_addr(0),
                "sit-node": ctl.store.node_addr(1, 0),
                "data": 0}[target]
        image = bytearray(ctl.nvm.peek_line(addr))
        assert any(image), f"{target} line never persisted"
        image[4] ^= 0x40
        ctl.nvm.poke_line(addr, bytes(image))
    epoch.EpochEngine(system).run(iter(
        [MemoryAccess(AccessType.READ, 0)]))


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "baseline"])
class TestTamperDetection:
    """The epoch engine verifies media itself: a chain miss MACs the
    media line it read, and a data read recomputes the data MAC.  A
    tampered line must raise there, as on the scalar path
    (tests/secure/test_runtime_detection.py)."""

    def test_untampered_media_verifies(self, scheme):
        tampered_read(scheme, None)

    @pytest.mark.parametrize("target", ("counter-block", "sit-node", "data"))
    def test_tampered_line_raises(self, scheme, target):
        if scheme == "bmf-ideal" and target == "sit-node":
            pytest.skip("BMF-ideal keeps no SIT node on media")
        # A tampered counter would also fail the data MAC, which hashes
        # the counters: the message pins which check caught it.
        check = "data MAC mismatch" if target == "data" \
            else "verification failed for tree node"
        with pytest.raises(IntegrityError, match=check):
            tampered_read(scheme, target)


class TestSanitizerFallback:
    def test_sanitizer_makes_run_ineligible(self):
        system = build_system("scue")
        assert epoch.ineligible_reason(system) is None
        attach_sanitizer(system.controller)
        assert epoch.ineligible_reason(system) is not None

    def test_forced_epoch_refuses_sanitized_run(self):
        system = build_system("scue")
        attach_sanitizer(system.controller)
        with pytest.raises(ConfigError, match="epoch engine ineligible"):
            epoch.EpochEngine(system)

    @pytest.mark.parametrize("scheme", ("scue", "eager", "plp"))
    def test_fallback_preserves_persist_event_stream(self, scheme):
        # Same trace, sanitizer attached both times: engine="auto" must
        # fall back to the scalar loop and the sanitizer must observe
        # the identical persist-event stream (sequence numbers, kinds,
        # addresses, cycles, flush nesting) an explicit scalar run sees.
        trace = random_trace(400, seed=17)
        streams = {}
        for engine in ("scalar", "auto"):
            system = build_system(scheme, engine)
            sanitizer = attach_sanitizer(system.controller)
            system.run(iter(trace))
            streams[engine] = (sanitizer.recorder._seq, list(sanitizer.events),
                               result_digest(system.result("fallback")))
        assert streams["auto"][0] == streams["scalar"][0]  # event count
        assert streams["auto"][1] == streams["scalar"][1]  # trace window
        assert streams["auto"][2] == streams["scalar"][2]  # full digest


class TestEligibilityGate:
    def test_system_engine_is_auto_or_scalar(self):
        # Forcing the epoch engine is EpochEngine's job, not System's.
        with pytest.raises(ConfigError, match="unknown engine 'epoch'"):
            build_system("scue", "epoch")

    def test_recorder_disables_epoch(self):
        from repro.obs.recorder import TraceRecorder

        config = small_config("scue", check_data=False)
        system = System(config, recorder=TraceRecorder())
        assert epoch.ineligible_reason(system) is not None

    def test_check_data_disables_epoch(self):
        system = System(small_config("scue", check_data=True))
        assert epoch.ineligible_reason(system) \
            == "check_data shadow verification"


class TestFinishedRunIsFreed:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_reference_cycle_outlives_the_run(self, scheme):
        # The interpreter's closures recurse into each other (the fetch
        # chain, the eviction cascade); a cycle left among them would
        # hold NVM media, caches and memos until the cyclic collector
        # happened to run.  With the collector off, dropping the last
        # reference must free the machine at once.
        trace = random_trace(500, seed=7)
        gc.disable()
        try:
            system = build_system(scheme)
            assert epoch.ineligible_reason(system) is None
            system.run(iter(trace))
            nvm = weakref.ref(system.controller.nvm)
            del system
            assert nvm() is None
        finally:
            gc.enable()
