"""End-to-end observability: traced runs across every scheme produce
valid Chrome traces, attribution sums exactly to simulated cycles, stats
reset cleanly at the warm-up boundary, and the recorder coexists with
the persist-order sanitizer without reordering its event stream."""

from collections import Counter

import pytest

from repro.analysis import attach_sanitizer
from repro.obs import events as ev
from repro.obs.attribution import ATTRIBUTION_COMPONENTS
from repro.obs.export import to_chrome_trace
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.obs.validate import validate_chrome_trace
from repro.secure import SCHEMES
from repro.sim.system import System

from tests.conftest import (
    persist_trace,
    random_trace,
    small_config,
    store_heavy_trace,
)

ALL = sorted(SCHEMES)

DEFERRED = {"leaf_write_through": False}

#: Schemes whose deferred-leaf ``_on_leaf_persist`` returns without a
#: leaf_persist event: the dirty leaf waits for its flush.
DEFERRED_SILENT = frozenset({"baseline", "lazy", "scue"})

#: A 2-way metadata cache: PLP's branch walk can evict a parent it has
#: just dirtied, which is how PLP reaches ``_flush_node``.
TWO_WAY = {"metadata_cache_ways": 2}

#: Every scheme as configured by default, every scheme with deferred
#: leaves, SCUE with deferred leaves under the Osiris write-back
#: discipline, and PLP with a 2-way metadata cache.
HOOK_CASES = (
    [pytest.param(scheme, {}, id=scheme) for scheme in ALL]
    + [pytest.param(scheme, DEFERRED, id=f"{scheme}-deferred")
       for scheme in ALL]
    + [pytest.param("scue", {**DEFERRED, "osiris_limit": 2},
                    id="scue-osiris"),
       pytest.param("plp", TWO_WAY, id="plp-2way")])


def traced_run(scheme: str, trace=None,
               config=None) -> tuple[System, TraceRecorder]:
    recorder = TraceRecorder()
    system = System(config or small_config(scheme), recorder=recorder)
    system.run(trace if trace is not None else random_trace(120))
    return system, recorder


class TestAttributionInvariant:
    @pytest.mark.parametrize("scheme", ALL)
    def test_attribution_sums_to_cycles(self, scheme):
        system, _ = traced_run(scheme)
        result = system.result("mixed")  # result() re-checks the sum
        assert sum(result.attribution.values()) == result.cycles
        assert set(result.attribution) == set(ATTRIBUTION_COMPONENTS)

    @pytest.mark.parametrize("scheme", ALL)
    def test_attribution_sums_without_tracing(self, scheme):
        system = System(small_config(scheme))
        system.run(persist_trace(80))
        result = system.result("persist")
        assert sum(result.attribution.values()) == result.cycles
        assert result.attribution["cpu"] > 0

    def test_persist_heavy_traffic_charges_write_components(self):
        system = System(small_config("scue"))
        system.run(persist_trace(120))
        attr = system.result("persist").attribution
        assert attr["write_scheme"] > 0

    def test_histograms_land_in_result(self):
        system, _ = traced_run("scue")
        result = system.result("mixed")
        write = result.histograms["controller.write_latency"]
        assert write["count"] == result.persists + result.stores \
            or write["count"] > 0
        assert write["p99"] is not None
        assert result.avg_write_latency == pytest.approx(write["mean"])


class TestTracedRuns:
    @pytest.mark.parametrize("scheme", ALL)
    def test_trace_exports_valid_chrome_json(self, scheme):
        system, recorder = traced_run(scheme)
        result = system.result("mixed")
        payload = to_chrome_trace(recorder, scheme=scheme,
                                  workload="mixed",
                                  attribution=result.attribution,
                                  total_cycles=result.cycles)
        assert validate_chrome_trace(payload) == []
        assert len(recorder) > 0

    def test_expected_event_mix_for_scue(self):
        _, recorder = traced_run("scue", persist_trace(100))
        names = {event.name for event in recorder}
        assert ev.EV_WRITE_OP in names
        assert ev.EV_ROOT_UPDATE in names
        assert ev.EV_WPQ_ENQUEUE in names
        assert ev.EV_NVM_WRITE in names
        assert ev.EV_HMAC in names

    @pytest.mark.parametrize("scheme,overrides", HOOK_CASES)
    def test_every_hook_call_emits_its_event(self, scheme, overrides,
                                              monkeypatch):
        """Every scheme hook that charges cycles names them in the
        trace: one leaf_persist per leaf-persist call and one meta_flush
        per flush.  Under write-through, baseline and bmf-ideal cache
        only leaves, which every write persists, so they never flush.
        PLP persists and cleans its whole branch on every write, yet
        its branch walk can evict an ancestor it has just dirtied: that
        takes a small, low-associativity metadata cache, so the 2-way
        case must flush.  With deferred leaves every scheme but plp
        flushes."""
        calls = Counter()
        cls = SCHEMES[scheme]
        for name in ("_on_leaf_persist", "_flush_node"):
            def counting(ctl, *args, _real=getattr(cls, name),
                         _name=name):
                calls[_name] += 1
                return _real(ctl, *args)
            monkeypatch.setattr(cls, name, counting)
        config = small_config(scheme, metadata_cache_size=1024,
                              **overrides)
        system, recorder = traced_run(scheme, store_heavy_trace(400, 5),
                                      config)
        leaf_events = [event for event in recorder
                       if event.name == ev.EV_LEAF_PERSIST]
        flushes = sum(event.name == ev.EV_META_FLUSH
                      for event in recorder)
        assert calls["_on_leaf_persist"] > 0
        assert flushes == calls["_flush_node"]
        if overrides and (scheme != "plp" or overrides == TWO_WAY):
            assert flushes > 0
        if overrides.get("osiris_limit"):
            # Deferred leaves persist only when _osiris_writeback forces
            # them, and each forced write-back is one marked event.
            forced = system.result("osiris").stats[
                "controller.osiris_writebacks"]
            assert forced > 0
            assert len(leaf_events) == forced
            assert all(event.args["osiris_forced"]
                       for event in leaf_events)
        elif overrides and scheme in DEFERRED_SILENT:
            assert leaf_events == []
        else:
            assert len(leaf_events) == calls["_on_leaf_persist"]

    def test_event_names_stay_in_taxonomy(self):
        _, recorder = traced_run("scue")
        for event in recorder:
            assert event.name in ev.ALL_EVENTS
            assert event.track in ev.ALL_TRACKS

    def test_null_recorder_records_nothing(self):
        system = System(small_config("scue"))
        assert system.obs is NULL_RECORDER
        system.run(random_trace(50))
        assert len(system.obs) == 0

    def test_ring_buffer_bounds_a_system_run(self):
        recorder = TraceRecorder(capacity=64)
        system = System(small_config("scue"), recorder=recorder)
        system.run(random_trace(200))
        assert len(recorder) == 64
        payload = to_chrome_trace(recorder)
        assert validate_chrome_trace(payload) == []

    def test_crash_and_recovery_are_traced(self):
        system, recorder = traced_run("scue", persist_trace(60))
        system.crash()
        report = system.recover()
        assert report.success
        names = [event.name for event in recorder]
        assert ev.EV_CRASH in names
        assert ev.EV_RECOVERY in names
        assert names.index(ev.EV_CRASH) < names.index(ev.EV_RECOVERY)


class TestResetRoundTrip:
    def test_reset_zeroes_every_counter_between_windows(self):
        """The warm-up boundary: after reset_stats, every statistic the
        result reports starts from zero — warm-up traffic cannot leak
        into the measured window."""
        system = System(small_config("scue"))
        system.run(random_trace(100, seed=1))   # warm-up window
        system.reset_stats()
        baseline = system.result("empty")        # immediately after reset
        assert baseline.cycles == 0
        assert baseline.instructions == 0
        assert baseline.loads == 0
        assert baseline.persists == 0
        assert sum(baseline.attribution.values()) == 0
        assert baseline.avg_write_latency == 0.0
        for snapshot in baseline.histograms.values():
            assert snapshot["count"] == 0
        for key, value in baseline.stats.items():
            assert value == 0, f"{key} leaked through reset_stats"

    def test_measured_window_after_reset_is_self_consistent(self):
        system = System(small_config("scue"))
        system.run(random_trace(80, seed=2))
        system.reset_stats()
        system.run(random_trace(80, seed=3))
        result = system.result("measured")
        assert result.cycles > 0
        assert sum(result.attribution.values()) == result.cycles


class TestSanitizerCoexistence:
    def test_traced_run_under_sanitizer_stays_ordered(self):
        """Tracing must not perturb the persist-order rules: run SCUE
        with both the sanitizer and the recorder attached, then check
        the recorded stream respects the same ordering the sanitizer
        enforces on the write path."""
        recorder = TraceRecorder()
        system = System(small_config("scue"), recorder=recorder)
        sanitizer = attach_sanitizer(system.controller, collect=True)
        system.run(persist_trace(80))
        assert sanitizer.violations == []

        # WPQ conservation in recorded order: at no prefix of the stream
        # have more entries drained than were enqueued.
        outstanding = 0
        for event in recorder:
            if event.name == ev.EV_WPQ_ENQUEUE:
                outstanding += 1
            elif event.name == ev.EV_WPQ_DRAIN:
                outstanding -= 1
                assert outstanding >= 0, "drain recorded before enqueue"

        # SCUE's shortcut: every persisted leaf was preceded (in the
        # recorded stream) by at least as many root-register updates.
        roots = leaves = 0
        for event in recorder:
            if event.name == ev.EV_ROOT_UPDATE:
                roots += 1
            elif event.name == ev.EV_LEAF_PERSIST:
                leaves += 1
                assert roots >= leaves, \
                    "leaf persisted before its root update was recorded"
