"""The lazy and eager baselines: correct during runtime, root crash
inconsistent after failures (§II-D4, §III-B)."""

import random

import pytest

from repro.perf.harness import result_digest
from repro.secure.eager import EagerController
from repro.secure.lazy import LazyController
from repro.sim import epoch
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads import make_workload

from tests.conftest import small_config


def run_writes(controller, n=60, seed=2, spacing=100):
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * spacing)
    return controller


class TestLazyRuntime:
    def test_reads_and_writes_work(self):
        controller = LazyController(small_config("lazy"))
        controller.write_data(0, b"\x42" * 64, cycle=0)
        assert controller.read_data(0, cycle=500).plaintext == b"\x42" * 64

    def test_parent_counter_counts_leaf_flushes(self):
        controller = LazyController(small_config("lazy"))
        controller.write_data(0, None, cycle=0)
        controller.write_data(0, None, cycle=200)
        parent, _ = controller.fetch_node(1, 0, charge=False)
        assert parent.counter(0) == 2

    def test_root_lags_leaves(self):
        """The lazy root only moves when top-level nodes flush: after a
        few writes it is still zero — the crash-inconsistency source."""
        controller = run_writes(LazyController(small_config("lazy")), n=5)
        assert controller.running_root.counters == [0] * 8

    def test_survives_metadata_pressure(self):
        controller = LazyController(
            small_config("lazy", metadata_cache_size=1024))
        run_writes(controller, n=200, seed=8)


class TestLazyRecovery:
    def test_recovery_fails_after_crash_with_writes(self):
        controller = run_writes(LazyController(small_config("lazy")))
        controller.crash()
        report = controller.recover()
        assert not report.success
        assert not report.root_matched
        assert report.attack_reported  # the false positive of §III-B

    def test_recovery_succeeds_with_no_writes(self):
        controller = LazyController(small_config("lazy"))
        controller.crash()
        assert controller.recover().success


class TestEagerRuntime:
    def test_reads_and_writes_work(self):
        controller = EagerController(small_config("eager"))
        controller.write_data(0, b"\x24" * 64, cycle=0)
        assert controller.read_data(0, cycle=10**6).plaintext == b"\x24" * 64

    def test_root_update_pends_during_window(self):
        controller = EagerController(small_config("eager"))
        controller.write_data(0, None, cycle=0)
        assert controller.in_window
        # The architectural (effective) root already reflects the write.
        assert controller._root_counter(0) == 1
        # The register itself has not landed yet.
        assert controller.running_root.counter(0) == 0

    def test_pending_update_lands_after_window(self):
        controller = EagerController(small_config("eager"))
        controller.write_data(0, None, cycle=0)
        controller.read_data(64, cycle=10**6)   # far past the window
        assert not controller.in_window
        assert controller.running_root.counter(0) == 1

    def test_effective_root_verifies_mid_window(self):
        """Back-to-back writes: the second write's verification happens
        while the first root update is still in flight."""
        controller = EagerController(small_config("eager"))
        controller.write_data(0, None, cycle=0)
        controller.write_data(64 * 64 * 3, None, cycle=1)  # other leaf
        controller.read_data(0, cycle=2)

    def test_survives_metadata_pressure(self):
        controller = EagerController(
            small_config("eager", metadata_cache_size=1024))
        run_writes(controller, n=200, seed=8)


def climb_evicting_run(engine: str, **overrides) -> System:
    """500 array operations on a 4 MiB, 4-level tree behind an 8 KiB
    direct-mapped metadata cache: a climb's grandparent fetch evicts
    the parent it has just bumped (SIT level 1, index 0).  ``engine``
    is ``"scalar"`` or ``"epoch"``, which drives the epoch engine
    itself so that a fallback cannot pass for it."""
    config = SystemConfig(scheme="eager", data_capacity=4 << 20,
                          tree_levels=4, metadata_cache_size=8192,
                          metadata_cache_ways=1, **overrides)
    trace = make_workload("array", 4 << 20, 500, seed=42).trace()
    if engine == "epoch":
        system = System(config)
        epoch.EpochEngine(system).run(trace)
    else:
        system = System(config, engine="scalar")
        system.run(trace)
    return system


class TestEagerEvictionMidClimb:
    """A branch node evicted between its bump and its seal was flushed
    with the HMAC of its old counters.  Eager reinstalls it dirty once
    sealed, so media get the sealed node and its next fetch verifies;
    before, that fetch raised a false IntegrityError."""

    def test_write_through_leaves_on_both_engines(self):
        results = [climb_evicting_run(engine).result("array")
                   for engine in ("scalar", "epoch")]
        assert results[0].stats["controller.metadata_cache.writebacks"] > 0
        assert result_digest(results[0]) == result_digest(results[1])

    def test_deferred_leaves_on_the_scalar_loop(self):
        # The epoch engine refuses deferred leaves; here the leaf itself
        # can be evicted before its seal, and is reinstalled too.
        system = climb_evicting_run("scalar", leaf_write_through=False,
                                    check_data=True)
        assert system.result("array").nvm_data_writes > 0


class TestEagerCrashWindow:
    def test_crash_in_window_fails_recovery(self):
        controller = EagerController(small_config("eager"))
        controller.write_data(0, None, cycle=0)
        assert controller.in_window
        controller.crash()
        report = controller.recover()
        assert not report.success
        assert controller.stats.counter("window_lost_updates").value == 1

    def test_crash_outside_window_recovers(self):
        controller = EagerController(small_config("eager"))
        controller.write_data(0, None, cycle=0)
        controller.read_data(64, cycle=10**6)   # window closes
        assert not controller.in_window
        controller.crash()
        assert controller.recover().success

    def test_eadr_does_not_save_eager(self):
        """§III-C: eADR flushes caches but cannot update the root."""
        controller = EagerController(small_config("eager", eadr=True))
        controller.write_data(0, None, cycle=0)
        assert controller.in_window
        controller.crash()
        assert not controller.recover().success


@pytest.mark.parametrize("cls,scheme", [(LazyController, "lazy"),
                                        (EagerController, "eager")])
def test_single_root_register_overhead(cls, scheme):
    assert cls(small_config(scheme)).onchip_overhead_bytes() == 64
