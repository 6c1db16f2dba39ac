"""Golden-digest determinism guard for the hot-path optimizations.

Every digest here is sha256 over the canonical JSON of a simulation
result (:func:`repro.perf.harness.result_digest`), and every one is the
byte-identical contract in executable form: if any optimization —
present or future — changes the simulated behaviour by even one counter
value, the exported result changes and this test fails.

* ``GOLDEN`` was captured on the pre-optimization tree (before the MAC
  memos, branch-chain interning and allocation-free packing landed)
  over the fig10-quick array recipe, with the persist-ordering
  sanitizer attached.
* ``SCHEME_GOLDEN``, ``FIG10_QUICK_GOLDEN`` and ``SERVE_CACHE_HIT_GOLDEN``
  were captured by the perf-baseline rows of the same names
  (``scheme:<name>``, ``fig10_quick``, ``serve_cache_hit``) and are
  copied from them verbatim.  Each scheme digest is checked under the
  scalar loop and again under the epoch engine;
  :class:`~repro.sim.epoch.EpochEngine` raises on an ineligible run, so
  a silent fallback cannot pass as epoch coverage.
* ``RECOVERY_GOLDEN`` pins crash recovery: a 16 MiB system power-failed
  right after a persist (or tampered with, for the Table I trials) and
  recovered.  Each digest covers the :class:`RecoveryReport` and a
  sha256 of the post-recovery media (every stored line in address
  order, plus the count of lines ever stored), so a recovery that
  reports the same verdict but writes back a different tree still
  fails.

Recompute a digest only after deliberately changing simulation
semantics, with the recipe helpers below.
"""

import hashlib
import json
import tempfile

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.bench.figures import fig10_execution_time
from repro.bench.harness import BenchScale
from repro.crash import (
    CrashPlan,
    replay_leaf,
    roll_forward_leaf,
    run_with_crash,
    snapshot_leaf,
)
from repro.crash.attacks import combined_attack
from repro.perf.harness import result_digest
from repro.sim import epoch
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads import make_workload

#: fig10-quick array workload (seed 42), sanitizer attached,
#: ``System.result("array")``; captured before the optimization layers.
GOLDEN = {
    "scue":
        "02502bebfc68649f032b37c59563706df9e4daa5a56a2a7d4fbd90418c3af3e0",
    "eager":
        "8b556ac50af1aa20c7dc2fd249057e1a328e73d17e91aaaebc6d60ff5d270d2f",
}

#: ``scheme:<name>``: the same array trace on each scheme, no sanitizer,
#: ``System.result("perf")``.
SCHEME_GOLDEN = {
    "baseline":
        "513472ffe5eda0bdcdf825ff5662ed75766a4a9d93cb2f81a98d55b73beec701",
    "bmf-ideal":
        "877b6e79072c2dfd538b7ce78858ed53dfa8f5ed83de9d2f4dab5094d1397872",
    "eager":
        "2f485aa18dc89bc797304ed3225989c672f57ca2b6a09c09b94b81270986e0e6",
    "lazy":
        "97217ebe459efcd7f87ac6ac0d5f5a353de7c63655001842c6419189321fa7d4",
    "plp":
        "fd87ba7b9a6660128f534fc42de8424601547639f8cfd40bf7d8a6bd6fa0e417",
    "scue":
        "ba52fa669acef2871d264cd582005f40a2f4b39e08f5a6fcf38eb6043f8ef436",
}

#: ``fig10_quick``: Figure 10 at quick scale over array and queue, the
#: ratio table plus every per-cell result.
FIG10_QUICK_GOLDEN = \
    "211e09657cf53927fe570e80d6e5a1bac6b81d3dba12ff283208aa99f9b6982c"

#: ``serve_cache_hit``: one quick SCUE cell stored in a
#: ``CampaignStore`` and read back through ``get_raw``.
SERVE_CACHE_HIT_GOLDEN = \
    "1d09954973c7b3bd5f17093daee1f863bf27d414da461304a1c763c86b02a4a5"

#: Crash recovery at 16 MiB, array workload (seed 42): the report plus
#: the post-recovery media.  Crash trials crash right after the first
#: persist at or beyond access 150; Table I trials run the whole trace
#: on SCUE, then crash and tamper.
RECOVERY_GOLDEN = {
    "crash:scue":
        "a4035babf3da4986789bbc048d95e98a0226bbd1fe668fde8e77213078793475",
    "crash:plp":
        "205cecb5ca8e7dfc39f941b46cffa31395e9bfee0273a244d59d096a770dcea1",
    "crash:eager":
        "3e54058aec25b8141d2c2ac7f56264898719bde4f8b398f3a373bb9ae3a87b7b",
    "crash:lazy":
        "681df6784fe58c7a92da8ec7b46389db41cc366a614fbee7ad8c5e7c2977dd2a",
    "crash:bmt-eager":
        "b28250d2cf88eda271da2682d948e62d2648201b53415968403f9046973d3c31",
    "crash:bmf-ideal":
        "85768c4044da57f6c98485e376182c3c82d0cb8e3502f26b53cd5e4a4ecda060",
    "crash:bmf-ideal-no-wt":
        "6f7f4521ab14b81ee8182962482a90145673e8c6e59e5b915b0931f456df1ee8",
    "attack:roll_forward":
        "a2032ec8155a862f39780a7739ba6c8253998dc12cd8e023ece7d8ba6b8bc04e",
    "attack:replay_roll_back":
        "b566fdda2f4c4d7b2c5e8db71aa965e71f32408ca3f9ef66987a26d78ba2cb5b",
    "attack:forward_plus_back":
        "b4233dd8c2534682655afd26b01eff75b0dd3f9caa4f94f622f8be4f7aa4573f",
    "attack:no_attack_control":
        "ad46a6e0ca6b529c3fce343e7b107dcc2f8ebb18f8359254c472543a2502e255",
}

RECOVERY_CAPACITY = 16 * 1024 * 1024
RECOVERY_CRASH_AT = 150
#: ``trial -> (scheme, config overrides)``.
RECOVERY_TRIALS = {
    "crash:scue": ("scue", {}),
    "crash:plp": ("plp", {}),
    "crash:eager": ("eager", {}),
    "crash:lazy": ("lazy", {}),
    "crash:bmt-eager": ("bmt-eager", {}),
    "crash:bmf-ideal": ("bmf-ideal", {}),
    "crash:bmf-ideal-no-wt": ("bmf-ideal", {"leaf_write_through": False}),
}


def array_trace(scale: BenchScale):
    return make_workload("array", scale.data_capacity, scale.operations,
                         seed=42).trace()


def fig10_quick_digest(scheme: str) -> str:
    scale = BenchScale.quick()
    system = System(scale.config(scheme))
    # The sanitizer hooks the controller's persist seams; running with it
    # attached also proves the optimizations kept those seams patchable.
    attach_sanitizer(system.controller)
    system.run(array_trace(scale))
    return result_digest(system.result("array"))


def scheme_digest(scheme: str, engine: str) -> str:
    scale = BenchScale.quick()
    system = System(scale.config(scheme), engine="scalar")
    if engine == "epoch":
        epoch.EpochEngine(system).run(array_trace(scale))
    else:
        system.run(array_trace(scale))
    return result_digest(system.result("perf"))


def fig10_figure_digest() -> str:
    figure = fig10_execution_time(BenchScale.quick(),
                                  workloads=("array", "queue"), seed=42)
    # The full per-cell results, not just the ratio table: a drift that
    # cancels out in the ratios must still fail.
    return result_digest({"figure": figure,
                          "cells": figure.matrix.results})


def serve_cache_hit_digest() -> str:
    from repro.campaign.cache import cell_key
    from repro.campaign.executor import execute_cell
    from repro.campaign.spec import CampaignSpec
    from repro.serve.storage import CampaignStore

    spec = CampaignSpec.matrix(BenchScale.quick(), ["array"], ("scue",),
                               seed=42, name="serve-bench")
    cell = spec.cells[0]
    with tempfile.TemporaryDirectory() as root:
        store = CampaignStore(root)
        try:
            store.put(cell, execute_cell(cell), wall_time=0.0)
            data = store.get_raw(cell_key(cell))
        finally:
            store.close()
    return result_digest(json.loads(data))


def media_sha(nvm) -> str:
    """sha256 over every stored line in address order, then the number
    of lines ever stored."""
    digest = hashlib.sha256()
    for addr, raw in sorted(nvm._lines.items()):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(raw)
    digest.update(nvm.lines_written.to_bytes(8, "little"))
    return digest.hexdigest()


def _table1_attack(system: System, attack: str) -> None:
    """Power-fail ``system`` and tamper with its media (Table I)."""
    ctl = system.controller
    if attack == "replay_roll_back":
        # Snapshot a leaf, advance it once more so the snapshot is stale,
        # then replay it after the crash.
        ctl.write_data(0, None, cycle=system.cycle + 100)
        snapshot = snapshot_leaf(ctl.store, 0)
        ctl.write_data(0, None, cycle=system.cycle + 200)
        system.crash()
        replay_leaf(ctl.store, snapshot)
        return
    system.crash()
    if attack == "roll_forward":
        roll_forward_leaf(ctl.store, 0, slot=3, amount=2)
    elif attack == "forward_plus_back":
        combined_attack(ctl.store, forward_index=0, back_index=1, slot=2,
                        amount=1)


def recovery_digest(trial: str) -> str:
    kind, name = trial.split(":")
    scheme, overrides = RECOVERY_TRIALS.get(trial, ("scue", {}))
    system = System(SystemConfig(scheme=scheme,
                                 data_capacity=RECOVERY_CAPACITY,
                                 **overrides))
    trace = make_workload("array", RECOVERY_CAPACITY, 300, seed=42).trace()
    if kind == "attack":
        system.run(trace)
        _table1_attack(system, name)
    else:
        run_with_crash(system, trace, CrashPlan(RECOVERY_CRASH_AT))
    report = system.recover()
    return result_digest({"report": report,
                          "media": media_sha(system.controller.nvm)})


CASES = (
    [pytest.param(fig10_quick_digest, (scheme,), GOLDEN[scheme],
                  id=scheme)
     for scheme in sorted(GOLDEN)]
    + [pytest.param(scheme_digest, (scheme, engine), SCHEME_GOLDEN[scheme],
                    id=f"scheme:{scheme}-{engine}")
       for scheme in sorted(SCHEME_GOLDEN)
       for engine in ("scalar", "epoch")]
    + [pytest.param(fig10_figure_digest, (), FIG10_QUICK_GOLDEN,
                    id="fig10_quick"),
       pytest.param(serve_cache_hit_digest, (), SERVE_CACHE_HIT_GOLDEN,
                    id="serve_cache_hit")]
    + [pytest.param(recovery_digest, (trial,), RECOVERY_GOLDEN[trial],
                    id=f"recovery:{trial}")
       for trial in RECOVERY_GOLDEN]
)


@pytest.mark.parametrize("recipe, args, golden", CASES)
def test_fig10_quick_result_matches_pre_optimization_golden(recipe, args,
                                                            golden):
    assert recipe(*args) == golden


def test_digest_is_stable_across_runs_in_one_process():
    """Warm memos (second run) must not change the exported result."""
    assert fig10_quick_digest("scue") == fig10_quick_digest("scue")
