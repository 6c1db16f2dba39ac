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

Recompute a digest only after deliberately changing simulation
semantics, with the recipe helpers below.
"""

import json
import tempfile

import pytest

from repro.analysis.sanitizer import attach_sanitizer
from repro.bench.figures import fig10_execution_time
from repro.bench.harness import BenchScale
from repro.perf.harness import result_digest
from repro.secure import vector
from repro.sim import epoch
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


needs_numpy = pytest.mark.skipif(
    not vector.HAVE_NUMPY, reason="epoch engine requires numpy")

CASES = (
    [pytest.param(fig10_quick_digest, (scheme,), GOLDEN[scheme],
                  id=scheme)
     for scheme in sorted(GOLDEN)]
    + [pytest.param(scheme_digest, (scheme, engine), SCHEME_GOLDEN[scheme],
                    id=f"scheme:{scheme}-{engine}",
                    marks=[needs_numpy] if engine == "epoch" else [])
       for scheme in sorted(SCHEME_GOLDEN)
       for engine in ("scalar", "epoch")]
    + [pytest.param(fig10_figure_digest, (), FIG10_QUICK_GOLDEN,
                    id="fig10_quick"),
       pytest.param(serve_cache_hit_digest, (), SERVE_CACHE_HIT_GOLDEN,
                    id="serve_cache_hit")]
)


@pytest.mark.parametrize("recipe, args, golden", CASES)
def test_fig10_quick_result_matches_pre_optimization_golden(recipe, args,
                                                            golden):
    assert recipe(*args) == golden


def test_digest_is_stable_across_runs_in_one_process():
    """Warm memos (second run) must not change the exported result."""
    assert fig10_quick_digest("scue") == fig10_quick_digest("scue")
