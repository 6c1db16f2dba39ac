"""Crash-state explorer: pruning soundness against a brute-force
reference, the two-sided oracle on clean and seeded-bug schemes, and
the shard/report plumbing.

The pruning-soundness tests are the load-bearing ones: the sharded
``iter_cuts`` enumeration (antichain growth with lag sets) must produce
*exactly* the crash-state set that the naive downward-closed-set
enumeration produces — same cuts, same canonical state hashes — on both
a totally-ordered trace and a two-branch trace where commutativity
pruning actually fires.
"""

from repro.analysis.explorer.model import CrashStateModel, brute_force_cuts
from repro.analysis.explorer.record import PersistRecorder, record_writes
from repro.analysis.explorer.report import (
    REX_MISSED_DETECTION,
    exploration_sarif,
    single_row_result,
    text_matrix,
    violations_report,
)
from repro.analysis.explorer.seams import (
    EXPLORED_ROOT_REGISTERS,
    SEAM_METHODS,
)
from repro.analysis.explorer.shards import (
    ShardResult,
    explore_range,
    parse_group,
    shard_group,
)
from repro.secure import make_controller
from repro.sim.config import SystemConfig

from tests.analysis.fixtures.broken_schemes import BrokenEagerScheme

LEAF_BYTES = 64 * 64  # one counter block covers 64 data lines


def tiny_config(scheme="scue", **overrides):
    base = dict(scheme=scheme, data_capacity=16 * 1024,
                tree_levels=2, metadata_cache_size=64 * 1024,
                check_data=True)
    base.update(overrides)
    return SystemConfig(**base)


def sharded_cuts(model, shard_units=2):
    cuts = set()
    for lo in range(0, max(len(model.units), 1), shard_units):
        hi = min(lo + shard_units, len(model.units))
        for cut in model.iter_cuts(lo, hi):
            assert cut not in cuts, "shards must partition the cut space"
            cuts.add(cut)
    return cuts


class TestPruningSoundness:
    """ISSUE acceptance: bounded exploration on the tiny reference
    config enumerates the exact same canonical crash-state set as the
    brute-force oracle."""

    def test_total_order_trace_matches_brute_force(self):
        recording = record_writes(
            tiny_config(),
            [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)])
        model = CrashStateModel(recording)
        smart = sharded_cuts(model)
        brute = brute_force_cuts(model)
        assert smart == brute
        assert {model.state_of(c).canonical for c in smart} == \
            {model.state_of(c).canonical for c in brute}

    def test_two_branch_commutativity_matches_brute_force(self):
        recording = record_writes(
            tiny_config(data_capacity=64 * 1024),
            [leaf * LEAF_BYTES for leaf in (0, 8, 1, 9, 0, 8)])
        model = CrashStateModel(recording)
        # Disjoint branches really are unordered here: some unit must
        # have more than one immediate predecessor-free alternative.
        assert any(len(p) == 0 for p in model.preds[1:]) or \
            any(len(model.preds[i]) < i for i in range(len(model.units)))
        smart = sharded_cuts(model)
        brute = brute_force_cuts(model)
        assert smart == brute
        assert {model.state_of(c).canonical for c in smart} == \
            {model.state_of(c).canonical for c in brute}

    def test_max_lag_yields_a_subset(self):
        recording = record_writes(
            tiny_config(data_capacity=64 * 1024),
            [leaf * LEAF_BYTES for leaf in (0, 8, 1, 9, 0, 8)])
        full = sharded_cuts(CrashStateModel(recording))
        lagged = sharded_cuts(CrashStateModel(recording, max_lag=1))
        assert lagged < full
        # The prefix cuts (lag 0) always survive the bound.
        assert frozenset() in lagged

    def test_eager_trace_matches_brute_force(self):
        recording = record_writes(
            tiny_config(scheme="eager"),
            [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)])
        model = CrashStateModel(recording)
        assert sharded_cuts(model) == brute_force_cuts(model)


class TestOracle:
    """ISSUE acceptance: a seeded BrokenEagerScheme run produces at
    least one missed-detection violation; clean SCUE and eager runs
    produce zero."""

    ADDRS = [leaf * LEAF_BYTES for leaf in (0, 1, 2, 3, 0, 1)]

    def explore(self, config, factory=None):
        recording = record_writes(config, self.ADDRS, factory)
        model = CrashStateModel(recording)
        return explore_range(model, 0, len(model.units),
                             workload="unit-test")

    def test_clean_scue_has_no_violations(self):
        shard = self.explore(tiny_config())
        assert shard.violations == []
        assert shard.recovery_failures == 0
        assert shard.cuts > 0

    def test_clean_eager_window_is_not_a_violation(self):
        shard = self.explore(tiny_config(scheme="eager"))
        # Crashes inside the crash window legitimately fail recovery
        # (Fig 5b) — the oracle must not flag an expected failure as a
        # false abort, because eager never claims root consistency.
        assert shard.recovery_failures > 0
        assert shard.violations == []

    def test_broken_eager_misses_a_detection(self):
        config = tiny_config(scheme="eager")
        shard = self.explore(config,
                             factory=lambda: BrokenEagerScheme(config))
        missed = [v for v in shard.violations if v["missed_detection"]]
        assert missed, "parent-before-leaf inversion must be caught"
        assert all(not v["false_abort"] for v in shard.violations)
        assert any("durable" in v["detail"] for v in missed)

    def test_shard_result_round_trips(self):
        shard = self.explore(tiny_config())
        clone = ShardResult.from_dict(shard.to_dict())
        assert clone.to_dict() == shard.to_dict()
        assert clone.state_hashes == shard.state_hashes


class TestFlushUnits:
    """A 128 B direct-mapped metadata cache evicts dirty nodes, so the
    recording carries ``_flush_node`` brackets and each becomes its own
    persist unit; the sharded cuts and the oracle's verdicts hold."""

    def explore(self, scheme):
        recording = record_writes(
            tiny_config(scheme=scheme, data_capacity=64 * 1024,
                        metadata_cache_size=128, metadata_cache_ways=1),
            [leaf * LEAF_BYTES for leaf in (0, 8, 1, 9, 0, 8)])
        model = CrashStateModel(recording)
        assert any(unit.kind == "flush" for unit in model.units)
        assert sharded_cuts(model) == brute_force_cuts(model)
        return explore_range(model, 0, len(model.units),
                             workload="unit-test")

    def test_clean_scue_recovers_every_cut(self):
        shard = self.explore("scue")
        assert shard.violations == []
        assert shard.recovery_failures == 0

    def test_clean_eager_has_no_violations(self):
        assert self.explore("eager").violations == []


class TestReporting:
    def broken_shard(self):
        config = tiny_config(scheme="eager")
        recording = record_writes(
            config, TestOracle.ADDRS,
            factory=lambda: BrokenEagerScheme(config))
        model = CrashStateModel(recording)
        return explore_range(model, 0, len(model.units),
                             workload="unit-test")

    def test_sarif_carries_rex001(self):
        result = single_row_result("eager", "unit-test",
                                   self.broken_shard())
        sarif = exploration_sarif(result)
        (run,) = sarif["runs"]
        rules = {r["id"] for r in
                 run["tool"]["driver"]["rules"]}
        assert REX_MISSED_DETECTION.id in rules
        results = run["results"]
        assert any(r["ruleId"] == REX_MISSED_DETECTION.id
                   for r in results)
        uri = results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri.startswith("explore://eager/")

    def test_text_matrix_flags_the_failure(self):
        result = single_row_result("eager", "unit-test",
                                   self.broken_shard())
        matrix = text_matrix(result)
        assert "eager" in matrix
        assert "FAIL" in matrix
        report = violations_report(result)
        assert all(v.rule.id.startswith("REX")
                   for v in report.violations)

    def test_clean_matrix_reports_ok(self):
        config = tiny_config()
        recording = record_writes(config, TestOracle.ADDRS)
        model = CrashStateModel(recording)
        shard = explore_range(model, 0, len(model.units),
                              workload="unit-test")
        matrix = text_matrix(
            single_row_result("scue", "unit-test", shard))
        assert "OK: no oracle violations" in matrix


class TestShardPlumbing:
    def test_group_round_trip(self):
        group = shard_group("scue+asit", 8, 16, 2)
        assert parse_group(group) == (8, 16, 2)
        assert group.startswith("scue+asit:")

    def test_group_without_lag(self):
        assert parse_group(shard_group("eager", 0, 8, None)) == \
            (0, 8, None)

    def test_labels_disambiguate_same_scheme_rows(self):
        # scue and scue+asit share config.scheme; the label prefix is
        # what keeps their campaign cell ids distinct.
        assert shard_group("scue", 0, 8, None) != \
            shard_group("scue+asit", 0, 8, None)


class TestRecorderSeams:
    def test_patches_exactly_the_registered_seams(self):
        controller = make_controller(tiny_config())
        owners = {"": controller, "wpq.": controller.wpq,
                  "nvm.": controller.nvm}
        owners.update({f"{name}.": getattr(controller, name)
                       for name in EXPLORED_ROOT_REGISTERS})
        before = {prefix: dict(vars(obj))
                  for prefix, obj in owners.items()}
        recorder = PersistRecorder(controller, lambda event: None)
        recorder.attach()
        patched = {prefix + attr
                   for prefix, obj in owners.items()
                   for attr, value in vars(obj).items()
                   if before[prefix].get(attr) is not value}
        assert patched == set(SEAM_METHODS) | {
            f"{name}.{method}" for name in EXPLORED_ROOT_REGISTERS
            for method in ("add", "set")}
        recorder.detach()
        assert {prefix: dict(vars(obj))
                for prefix, obj in owners.items()} == before
