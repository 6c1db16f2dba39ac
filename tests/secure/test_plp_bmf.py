"""PLP-on-SIT and BMF-ideal: the crash-consistent baselines and their
costs (§V-A, §VI)."""

import random

import pytest

from repro.errors import SimulationError
from repro.secure.bmf import BMFIdealController
from repro.secure.plp import PLPController

from tests.conftest import small_config


def run_writes(controller, n=60, seed=2):
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * 100)
    return controller


class TestPLP:
    def test_root_updated_immediately(self):
        controller = PLPController(small_config("plp"))
        controller.write_data(0, None, cycle=0)
        assert controller.running_root.counter(0) == 1

    def test_whole_branch_persisted_per_write(self):
        controller = PLPController(small_config("plp"))
        controller.write_data(0, None, cycle=0)
        # Leaf + every intermediate level, plus shadow copies.
        levels = controller.amap.tree_levels
        assert controller.stats.counter("meta_writes").value \
            >= 2 * levels - 2

    def test_shadow_writes_counted(self):
        controller = PLPController(small_config("plp"))
        controller.write_data(0, None, cycle=0)
        assert controller.stats.counter("shadow_writes").value \
            == controller.amap.tree_levels - 1

    def test_crash_recovery_succeeds(self):
        controller = run_writes(PLPController(small_config("plp")))
        controller.crash()
        report = controller.recover()
        assert report.success
        assert report.root_matched

    def test_writes_cost_more_than_scue(self):
        """Back-to-back writes at the paper's 9-level geometry: PLP's
        whole-branch persists back-pressure the 10-entry metadata WPQ,
        SCUE's shortcut does not (Fig 9)."""
        from repro.secure.scue import SCUEController
        plp = PLPController(small_config("plp", tree_levels=9))
        scue = SCUEController(small_config("scue", tree_levels=9))
        costs = {}
        for name, controller in (("plp", plp), ("scue", scue)):
            total = 0
            for i in range(10):
                total += controller.write_data(i * 64, None,
                                               cycle=i * 10).latency
            costs[name] = total
        assert costs["plp"] > 1.5 * costs["scue"]

    def test_onchip_overhead_includes_ptt_ett(self):
        controller = PLPController(small_config("plp"))
        assert controller.onchip_overhead_bytes() == 64 + 616 + 6

    def test_runs_under_metadata_pressure(self):
        run_writes(PLPController(
            small_config("plp", metadata_cache_size=1024)), n=150, seed=5)


class TestBMFIdeal:
    def test_no_tree_above_level_one(self):
        controller = BMFIdealController(small_config("bmf-ideal"))
        with pytest.raises(SimulationError):
            controller.fetch_node(2, 0)

    def test_persistent_root_tracks_leaf(self):
        controller = BMFIdealController(small_config("bmf-ideal"))
        controller.write_data(0, None, cycle=0)
        controller.write_data(0, None, cycle=200)
        assert controller._persistent_root(0).counter(0) == 2

    def test_no_intermediate_metadata_writes(self):
        """The whole point: persistent roots never touch media."""
        controller = BMFIdealController(small_config("bmf-ideal"))
        run_writes(controller, n=40)
        amap = controller.amap
        for level in range(1, amap.tree_levels):
            for index in range(amap.level_width(level)):
                addr = amap.tree_node_addr(level, index)
                assert not any(controller.nvm.peek_line(addr))

    def test_nvmc_survives_crash(self):
        controller = run_writes(BMFIdealController(
            small_config("bmf-ideal")))
        before = {i: node.counters[:] for i, node
                  in controller._nvmc.items()}
        controller.crash()
        after = {i: node.counters[:] for i, node in controller._nvmc.items()}
        assert before == after

    def test_crash_recovery_succeeds(self):
        controller = run_writes(BMFIdealController(
            small_config("bmf-ideal")))
        controller.crash()
        assert controller.recover().success

    @pytest.mark.parametrize("write_through", [True, False])
    def test_recovery_does_not_grow_the_nvmc(self, write_through):
        """Recovery reads the persistent roots; a level-1 index never
        written has no root, and reading it must not create one."""
        controller = run_writes(BMFIdealController(small_config(
            "bmf-ideal", leaf_write_through=write_through)), n=10)
        controller.crash()
        roots = len(controller._nvmc)
        assert roots < controller.amap.level_width(1)
        controller.recover()
        assert len(controller._nvmc) == roots

    def test_tampered_leaf_detected_at_recovery(self):
        from repro.crash.attacks import roll_forward_leaf
        controller = BMFIdealController(small_config("bmf-ideal"))
        controller.write_data(0, None, cycle=0)
        controller.crash()
        roll_forward_leaf(controller.store, 0, slot=0)
        report = controller.recover()
        assert not report.success
        assert report.leaf_hmac_failures == [0]

    def test_nvmc_overhead_scales_with_capacity(self):
        small = BMFIdealController(small_config("bmf-ideal"))
        big = BMFIdealController(small_config(
            "bmf-ideal", data_capacity=4 * 1024 * 1024))
        assert big.onchip_overhead_bytes() \
            == 4 * small.onchip_overhead_bytes()

    def test_runs_under_metadata_pressure(self):
        run_writes(BMFIdealController(
            small_config("bmf-ideal", metadata_cache_size=1024)),
            n=150, seed=5)
