"""Runtime persist-ordering sanitizer: clean schemes run and crash
without a peep; seeded ordering bugs fail loudly with the offending
write pair."""

import random

import pytest

from repro.analysis import attach_sanitizer
from repro.errors import PersistOrderingError
from repro.secure import make_controller
from repro.secure.base import REGISTER_UPDATE_CYCLES
from repro.secure.eager import EagerController
from repro.secure.plp import PLPController
from repro.secure.scue import SCUEController

from tests.conftest import small_config


def run_writes(controller, n=40, seed=11):
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * 100)
    return controller


class BrokenSCUE(SCUEController):
    """Seeded ordering bug: the leaf persists BEFORE the shortcut
    Recovery_root update — the exact §IV-A2 inversion that would leave
    the root lagging the persisted leaves across a crash."""

    def _on_leaf_persist(self, leaf, leaf_index, dummy_delta, cycle):
        dummy = leaf.dummy_counter(self.amap.counter_bits)
        addr = self.amap.counter_block_addr(leaf_index)
        leaf.seal(self.mac, addr, dummy)
        hash_latency = self.hash_engine.charge(1)
        wpq_stall = self._persist_node(leaf, cycle)        # too early
        self.recovery_root.add(self._root_slot_of_leaf(leaf_index),
                               dummy_delta)                # too late
        self._update_parent_counter(0, leaf_index, set_to=dummy)
        return hash_latency + wpq_stall


class DeferredBrokenSCUE(SCUEController):
    """Seeded ordering bug in deferred-leaf mode: a forced Osiris
    writeback persists the leaf BEFORE this write's Recovery_root
    update, so an earlier write's update is all that covers it."""

    def _on_leaf_persist(self, leaf, leaf_index, dummy_delta, cycle):
        stall = self._osiris_writeback(leaf, leaf_index, dummy_delta,
                                       cycle)             # too early
        self.recovery_root.add(self._root_slot_of_leaf(leaf_index),
                               dummy_delta)               # too late
        return REGISTER_UPDATE_CYCLES + stall


def deferred_scue(osiris_limit):
    return small_config("scue", leaf_write_through=False,
                        osiris_limit=osiris_limit)


class SeededPLP(PLPController):
    """PLP's atomic branch update with the persist loop split out into
    :meth:`_persist_branch`, bottom-up as PLP persists it; each subclass
    below seeds one bug in that loop."""

    def _on_leaf_persist(self, leaf, leaf_index, dummy_delta, cycle):
        addrs = self.amap.branch_addrs(leaf_index)
        branch = []
        node, level, index = leaf, 0, leaf_index
        while True:
            counter, _ = self._bump_parent(level, index, dummy_delta,
                                           cycle, charge=False)
            node.seal(self.mac, addrs[level], counter)
            branch.append((addrs[level], node))
            if level + 1 == self.amap.tree_levels:
                return self._persist_branch(branch, cycle)
            level, index = self.amap.parent_coords(level, index)
            node, _ = self.fetch_node(level, index)

    def _persist_branch(self, branch, cycle):
        return sum(self._persist_node(node, cycle) for _, node in branch)


class TopDownPLP(SeededPLP):
    """Seeded ordering bug: the branch persists root side first."""

    def _persist_branch(self, branch, cycle):
        return sum(self._persist_node(node, cycle)
                   for _, node in reversed(branch))  # ancestors first


class StoreFirstPLP(SeededPLP):
    """Seeded attribution bug: each branch node reaches media before
    its WPQ enqueue."""

    def _persist_branch(self, branch, cycle):
        stall = 0
        for addr, node in branch:
            self.nvm.write_line(addr, node.to_bytes())  # store first
            stall += self.wpq.enqueue(addr, cycle, metadata=True)
        return stall


class TestCleanRuns:
    def test_scue_history_and_crash_are_quiet(self):
        controller = SCUEController(small_config("scue"))
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller)
        controller.crash()
        assert sanitizer.violations == []

    def test_eager_history_is_quiet(self):
        controller = EagerController(small_config("eager"))
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller)
        controller.crash()
        assert sanitizer.violations == []

    @pytest.mark.parametrize("config", [
        small_config("baseline"), small_config("plp"),
        small_config("lazy"), small_config("bmf-ideal"),
        small_config("bmt-eager"), deferred_scue(osiris_limit=1),
        deferred_scue(osiris_limit=2),
    ], ids=["baseline", "plp", "lazy", "bmf-ideal", "bmt-eager",
            "scue-deferred-osiris1", "scue-deferred-osiris2"])
    def test_every_other_scheme_is_quiet(self, config):
        controller = make_controller(config)
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller)
        controller.crash()
        assert sanitizer.violations == []

    def test_seeded_plp_persisting_bottom_up_is_quiet(self):
        # The unbroken parent of the seeded PLP schemes below: their
        # violations come from the seeded bug, not the rewrite.
        controller = SeededPLP(small_config("plp"))
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller)
        assert sanitizer.violations == []


class TestShortcutRootRule:
    def test_seeded_inversion_caught_on_first_write(self):
        controller = BrokenSCUE(small_config("scue"))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError,
                           match="shortcut-root-before-leaf"):
            run_writes(controller, n=1)

    def test_collect_mode_names_the_rule_and_register(self):
        controller = BrokenSCUE(small_config("scue"))
        sanitizer = attach_sanitizer(controller, collect=True)
        run_writes(controller, n=3)
        assert sanitizer.violations
        assert "Recovery_root" in sanitizer.violations[0]
        assert "scue" in sanitizer.violations[0]

    def test_an_earlier_writes_update_does_not_cover_a_writeback(self):
        # Credits count per write: the forced writeback of a leaf's
        # second bump runs before that write's own shortcut update.
        controller = DeferredBrokenSCUE(deferred_scue(osiris_limit=2))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError,
                           match="shortcut-root-before-leaf"):
            run_writes(controller)


class TestAttributablePersistRule:
    def test_unattributed_store_caught(self):
        controller = SCUEController(small_config("scue"))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError,
                           match="without a[\\s\\S]*preceding WPQ enqueue"):
            controller.nvm.write_line(0, b"\0" * 64)

    def test_enqueued_store_passes(self):
        controller = SCUEController(small_config("scue"))
        attach_sanitizer(controller)
        controller.wpq.enqueue(0, 0)
        controller.nvm.write_line(0, b"\0" * 64)

    def test_plp_node_stored_before_its_enqueue_caught(self):
        controller = StoreFirstPLP(small_config("plp"))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError,
                           match="attributable-persist"):
            run_writes(controller, n=1)


class TestLeafBeforeParentRule:
    def make(self):
        controller = EagerController(small_config("eager"))
        return controller, attach_sanitizer(controller)

    def test_ancestor_before_leaf_same_cycle_caught(self):
        controller, _ = self.make()
        amap = controller.amap
        controller.wpq.enqueue(amap.tree_node_addr(1, 0), 100,
                               metadata=True)
        with pytest.raises(PersistOrderingError,
                           match="bottom-up"):
            controller.wpq.enqueue(amap.counter_block_addr(0), 100,
                                   metadata=True)

    def test_leaf_first_is_fine(self):
        controller, _ = self.make()
        amap = controller.amap
        controller.wpq.enqueue(amap.counter_block_addr(0), 100,
                               metadata=True)
        controller.wpq.enqueue(amap.tree_node_addr(1, 0), 100,
                               metadata=True)

    def test_plp_branch_persisted_top_down_caught(self):
        controller = TopDownPLP(small_config("plp"))
        attach_sanitizer(controller)
        with pytest.raises(PersistOrderingError,
                           match="leaf-before-parent"):
            run_writes(controller, n=1)

    def test_different_cycles_are_independent_operations(self):
        controller, _ = self.make()
        amap = controller.amap
        controller.wpq.enqueue(amap.tree_node_addr(1, 0), 100,
                               metadata=True)
        controller.wpq.enqueue(amap.counter_block_addr(0), 200,
                               metadata=True)

    def test_eviction_flush_is_exempt(self):
        controller, sanitizer = self.make()
        amap = controller.amap
        sanitizer.recorder._flush = 0  # simulate a victim writeback
        controller.wpq.enqueue(amap.tree_node_addr(1, 0), 100,
                               metadata=True)
        controller.wpq.enqueue(amap.counter_block_addr(0), 100,
                               metadata=True)


class TestRecoveryRootSumRule:
    def test_poisoned_register_caught_at_the_crash_point(self):
        controller = SCUEController(small_config("scue"))
        attach_sanitizer(controller)
        run_writes(controller)
        controller.recovery_root.add(0, 1)  # drift the register
        with pytest.raises(PersistOrderingError,
                           match="counter-summing"):
            controller.crash()


class TestLifecycle:
    def test_dormant_after_crash(self):
        controller = SCUEController(small_config("scue"))
        attach_sanitizer(controller)
        run_writes(controller)
        controller.crash()
        # Recovery-regime traffic is uninstrumented by design.
        controller.nvm.write_line(0, b"\0" * 64)

    def test_detach_restores_the_originals(self):
        controller = SCUEController(small_config("scue"))
        sanitizer = attach_sanitizer(controller)
        sanitizer.detach()
        controller.nvm.write_line(0, b"\0" * 64)
        run_writes(controller, n=5)
