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
from repro.errors import ConfigError
from repro.mem.trace import AccessType, MemoryAccess
from repro.perf.harness import result_digest
from repro.secure.base import SecureMemoryController
from repro.sim import epoch
from repro.sim.system import System

from tests.conftest import random_trace, small_config, store_heavy_trace

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
            streams[engine] = (sanitizer._seq, list(sanitizer.events),
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
