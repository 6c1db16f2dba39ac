"""Targeted (STAR/AGIT) reconstruction: functional fast recovery must be
equivalent to the full counter-summing rebuild."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import attach_sanitizer
from repro.crash.attacks import replay_leaf, roll_forward_leaf, snapshot_leaf
from repro.crash.fast_recovery import targeted_reconstruction
from repro.crash.recovery import counter_summing_reconstruction
from repro.secure.scue import SCUEController

from tests.conftest import small_config


def tracked_scue(tracker="star", **overrides) -> SCUEController:
    overrides.setdefault("metadata_cache_size", 2048)
    controller = SCUEController(small_config(
        "scue", recovery_tracker=tracker, **overrides))
    # Sanitizer rides along until the first crash; recovery and
    # post-recovery traffic run uninstrumented (it goes dormant).
    attach_sanitizer(controller)
    return controller


def run_writes(controller, n=100, seed=3):
    rng = random.Random(seed)
    for i in range(n):
        controller.write_data(
            rng.randrange(0, controller.config.data_capacity, 64),
            None, cycle=i * 100)
    return controller


class TestTargetedReconstruction:
    def test_clean_crash_recovers(self):
        controller = run_writes(tracked_scue())
        controller.crash()
        report = controller.recover()
        assert report.success
        assert "targeted" in report.detail

    def test_rebuilds_only_stale_nodes(self):
        controller = run_writes(tracked_scue())
        stale = len(controller.tracker.stale_coords())
        controller.crash()
        report = controller.recover()
        # Far fewer reads than a full leaf-level scan.
        assert report.metadata_reads \
            < controller.amap.num_counter_blocks
        assert report.metadata_writes <= stale

    def test_runtime_continues_after_targeted_recovery(self):
        controller = run_writes(tracked_scue())
        controller.crash()
        assert controller.recover().success
        run_writes(controller, n=40, seed=9)
        controller.read_data(0, cycle=10**9)

    def test_matches_full_reconstruction(self):
        """The headline property: targeted == full, on the same crash
        state."""
        controller = run_writes(tracked_scue(), n=150, seed=7)
        stale = controller.tracker.stale_coords()
        controller.crash()
        targeted = targeted_reconstruction(controller, stale)
        full = counter_summing_reconstruction(
            controller.store, controller.amap, controller.mac,
            controller.recovery_root, write_back=False)
        assert targeted.root_matched == full.root_matched is True
        assert targeted.root_counters == full.root_counters

    @given(st.integers(0, 2**32 - 1), st.integers(20, 120))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_over_random_histories(self, seed, writes):
        controller = run_writes(tracked_scue(), n=writes, seed=seed)
        stale = controller.tracker.stale_coords()
        controller.crash()
        targeted = targeted_reconstruction(controller, stale)
        full = counter_summing_reconstruction(
            controller.store, controller.amap, controller.mac,
            controller.recovery_root, write_back=False)
        assert targeted.root_counters == full.root_counters
        assert targeted.root_matched and full.root_matched

    def test_replay_detected(self):
        controller = tracked_scue()
        controller.write_data(0, None, cycle=0)
        snap = snapshot_leaf(controller.store, 0)
        controller.write_data(0, None, cycle=100)
        controller.crash()
        replay_leaf(controller.store, snap)
        report = controller.recover()
        assert not report.success
        assert not report.root_matched

    def test_roll_forward_in_stale_subtree_detected_at_recovery(self):
        """Tampering a leaf whose branch IS stale: the rebuild reads the
        tampered leaf and the root sum no longer matches."""
        controller = tracked_scue()
        controller.write_data(0, None, cycle=0)       # leaf 0's branch
        controller.write_data(64, None, cycle=100)    # stays dirty/stale
        controller.crash()
        roll_forward_leaf(controller.store, 0, slot=0, amount=2)
        report = controller.recover()
        assert not report.success

    @pytest.mark.parametrize("tracker", ["star", "agit"])
    def test_tampered_stale_leaf_fails_targeted_recovery(self, tracker):
        """Deferred leaves stay dirty, so the tracker hands recovery a
        stale *leaf*: its HMAC is the only check.  The roll-forward
        matches the two shortcut bumps, so the root sum alone passes."""
        controller = tracked_scue(tracker=tracker,
                                  leaf_write_through=False)
        controller.write_data(0, None, cycle=0)
        controller.write_data(64, None, cycle=100)
        controller.crash()
        roll_forward_leaf(controller.store, 0, slot=0, amount=2)
        report = controller.recover()
        assert not report.success
        assert report.leaf_hmac_failures == [0]

    def test_tamper_in_clean_subtree_caught_at_runtime(self):
        """The STAR/Anubis security model: an attack on an untouched
        subtree passes *recovery* (its media was never rebuilt) but dies
        on first runtime access — verification on fetch."""
        from repro.errors import IntegrityError
        controller = run_writes(tracked_scue(metadata_cache_size=4096),
                                n=60)
        controller.crash()
        assert controller.recover().success           # clean recovery
        controller.crash()                            # quiesce again
        # Tamper a leaf while every branch is clean (nothing stale).
        roll_forward_leaf(controller.store, 0, slot=0, amount=2)
        assert controller.recover().success           # not seen yet...
        with pytest.raises(IntegrityError):
            controller.read_data(0, cycle=10**9)      # ...caught on access

    @pytest.mark.parametrize("tracker", ["star", "agit"])
    def test_both_trackers_drive_recovery(self, tracker):
        controller = run_writes(tracked_scue(tracker=tracker))
        controller.crash()
        report = controller.recover()
        assert report.success
        assert tracker in report.detail
        assert controller.tracker.stale_nodes == 0  # reset on success
