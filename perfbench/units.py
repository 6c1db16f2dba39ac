"""The benchmark's units of work and how each mode runs them.

A *unit* is one figure cell (one workload on one scheme, as
``run_matrix`` runs it) or one crash trial (a short persistent trace on
a large-capacity system, power-failed right after a persist, then
recovered; or one Table I attack on SCUE).

Modes:

* ``user``   -- the entry points a user calls (``System.run`` with engine
  auto, ``run_with_crash``, ``System.recover``);
* ``auto``   -- the same work, but the benchmark drives
  ``repro.sim.epoch.EpochEngine`` itself wherever ``System.run`` would,
  so it can read the planner's row counts and say which engine ran;
* ``scalar`` -- ``engine="scalar"``, timed around the outer calls only;
* ``inner``  -- scalar, with every layer of ``tracer.LAYERS`` wrapped on
  the live instances.  Its span counts are reconciled with the
  simulator's own counters, so a seam that stops going through the
  instance (and escapes the wrappers) shows up as a mismatch.

Every unit returns a sha256 digest (``repro.perf.harness.result_digest``)
that must not depend on the mode.

Importing this module loads only what a crash user loads (``repro.crash``,
``repro.sim``, ``repro.workloads``).  ``repro.bench`` and
``repro.campaign`` are imported where a grid is built, and
``repro.perf.harness`` (which loads numpy) only once a unit's timed
calls are over, so a timed run's set-up and body pay for the same
imports a user's do.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from repro.crash import (
    CrashPlan,
    replay_leaf,
    roll_forward_leaf,
    run_with_crash,
    snapshot_leaf,
)
from repro.crash.attacks import combined_attack
from repro.crash.injection import split_at_crash
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads import PERSISTENT_WORKLOADS, make_workload

if TYPE_CHECKING:
    from repro.bench.harness import BenchScale
    from repro.campaign.spec import CellSpec

#: The six schemes the epoch engine transcribes (Figs 9/10 plus eager).
SCHEMES = ("baseline", "plp", "lazy", "bmf-ideal", "scue", "eager")
#: SPEC-like traces that use the controller unlike the persist mix:
#: mcf misses everywhere, libquantum sweeps reads, lbm stores half the
#: time and so writes back dirty LLC lines.
SPEC_TRACES = ("mcf", "libquantum", "lbm")

#: Crash trials: ``variant -> (scheme, config overrides, recovers)``.
#: ``recovers`` is the paper's verdict for a crash right after a
#: persist: lazy always fails, eager fails inside its Fig 5b window,
#: and the baseline has no tree, so it has nothing to fail.
VARIANTS: dict[str, tuple[str, dict, bool]] = {
    "baseline": ("baseline", {}, True),
    "scue": ("scue", {}, True),
    "scue-star": ("scue", {"recovery_tracker": "star"}, True),
    "scue-agit": ("scue", {"recovery_tracker": "agit"}, True),
    "plp": ("plp", {}, True),
    "bmf-ideal": ("bmf-ideal", {}, True),
    "eager": ("eager", {}, False),
    "lazy": ("lazy", {}, False),
}
#: Table I on SCUE: ``attack -> the detector that must fire``.
ATTACKS = {"roll_forward": "leaf_hmac", "replay_roll_back": "root",
           "forward_plus_back": "leaf_hmac", "no_attack_control": "none"}

CRASH_CAPACITY = 256 * 1024 * 1024
PROBE_CAPACITY = 16 * 1024 * 1024
CRASH_OPERATIONS = 300


# ----------------------------------------------------------------------
# Unit lists
# ----------------------------------------------------------------------
#: Cell grids as ``(BenchScale preset, trace lengths, workloads,
#: schemes)``.  The fig-* grids keep ``BenchScale.default``'s capacity,
#: caches and tree with shorter traces, so that one 20 s run holds seven
#: or more cold runs and their median rides out bursts of noise from
#: neighbouring tenants.  The serve probe is the small grid a traced run
#: of another workload uses to measure the serve layers (see README.md).
GRIDS = {
    "fig-persist": ("default", {"operations": 600},
                    PERSISTENT_WORKLOADS, SCHEMES),
    "fig-spec": ("default", {"spec_accesses": 12000}, SPEC_TRACES, SCHEMES),
    "serve": ("quick", {}, ("array", "hash"), SCHEMES),
    "serve-probe": ("quick", {}, ("array",), ("baseline", "scue")),
}


def grid(name: str) -> tuple[BenchScale, tuple[str, ...], tuple[str, ...]]:
    """``(scale, workloads, schemes)``, the arguments of ``run_matrix``."""
    from repro.bench.harness import BenchScale

    preset, lengths, workloads, schemes = GRIDS[name]
    scale = dataclasses.replace(getattr(BenchScale, preset)(), **lengths)
    return scale, workloads, schemes


def fig_cells(name: str, seed: int) -> list[CellSpec]:
    from repro.campaign.spec import CampaignSpec

    scale, workloads, schemes = grid(name)
    return list(CampaignSpec.matrix(scale, workloads, schemes, seed=seed,
                                    name=name).cells)


def _digest(value) -> str:
    from repro.perf.harness import result_digest

    return result_digest(value)


@dataclass(frozen=True)
class Trial:
    """One crash trial (``attack`` empty) or one Table I attack."""

    variant: str
    workload: str
    seed: int
    crash_at: int
    capacity: int
    attack: str = ""

    @property
    def unit_id(self) -> str:
        return f"attack:{self.attack}" if self.attack \
            else f"crash:{self.variant}"

    @property
    def scheme(self) -> str:
        return VARIANTS[self.variant][0]

    def config(self) -> SystemConfig:
        scheme, overrides, _ = VARIANTS[self.variant]
        return SystemConfig(scheme=scheme, data_capacity=self.capacity,
                            **overrides)


def crash_trials(seed: int, probe: bool = False) -> list[Trial]:
    """One trial per variant, then the four Table I attacks.  Each
    variant runs a fixed persistent workload (so the memory a run needs
    does not depend on the seed); ``seed`` draws its trace and the
    crash point."""
    rng = random.Random(seed)
    capacity = PROBE_CAPACITY if probe else CRASH_CAPACITY
    trials = [Trial(variant,
                    PERSISTENT_WORKLOADS[i % len(PERSISTENT_WORKLOADS)],
                    rng.randrange(1 << 30), rng.randrange(60, 240),
                    capacity)
              for i, variant in enumerate(VARIANTS)]
    attack_seed = rng.randrange(1 << 30)
    trials += [Trial("scue", "array", attack_seed, 0, capacity, attack)
               for attack in ATTACKS]
    return trials


# ----------------------------------------------------------------------
# Running one unit
# ----------------------------------------------------------------------
@dataclass
class Record:
    """What one unit produced, in the JSON form the parent reads."""

    unit: str
    scheme: str
    engine: str = ""
    digest: str = ""
    ok: bool = True
    detail: str = ""
    accesses: int = 0
    metadata_reads: int = 0
    planned_rows: int = 0
    window_rows: int = 0
    times: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    layers: dict[str, list[int]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)


class _Clock:
    """Seconds per outer-call name; an outer span too when tracing."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.outer(name):
                    yield
        finally:
            self.times[name] = self.times.get(name, 0.0) \
                + time.perf_counter() - start


def _drive(system: System, part, mode: str, record: Record) -> None:
    """Run ``part`` of a trace the way ``mode`` asks for."""
    if mode == "auto":
        from repro.sim import epoch
        reason = epoch.ineligible_reason(system)
        if reason is None:
            engine = epoch.EpochEngine(system)
            engine.run(part)
            record.planned_rows += engine.planned_rows
            record.window_rows += engine.window_rows
            record.engine = "epoch"
            return
        record.engine = f"scalar ({reason})"
    elif not record.engine:
        record.engine = "scalar" if mode in ("scalar", "inner") else "auto"
    system.run(part)


def _counters(result) -> dict[str, int]:
    stats = result.stats
    return {"cycles": result.cycles, "hashes": result.hashes,
            "meta_reads": result.nvm_meta_reads,
            "meta_writes": result.nvm_meta_writes,
            "mc_hits": stats.get("controller.metadata_cache.hits", 0),
            "mc_misses": stats.get("controller.metadata_cache.misses", 0),
            "l3_hits": stats.get("system.cpu_caches.l3.hits", 0),
            "l3_misses": stats.get("system.cpu_caches.l3.misses", 0),
            "wpq_stall": stats.get("controller.wpq.stall_cycles", 0)}


def _live_counts(system: System) -> tuple[int, int]:
    """``(nvm writes, metadata-cache lookups)`` as the simulator counts
    them right now (``reset_stats`` zeroes both)."""
    ctl = system.controller
    cache = ctl.meta_cache.stats
    return ctl.nvm.stats.counter("writes").value, cache.hits + cache.misses


#: Spans whose count must equal a count the simulator keeps itself.
RECONCILED = (("sim.loop", "execute", "trace records"),
              ("mem.nvm", "write_line", "nvm.writes"),
              ("secure.meta_cache", "lookup",
               "metadata_cache hits + misses"))


def _span_counts(tracer) -> list[int]:
    return [tracer.calls_of(layer, method)
            for layer, method, _ in RECONCILED]


def _reconcile(tracer, before: list[int], expected: tuple[int, ...],
               record: Record) -> None:
    """This unit's span counts against the simulator's counters."""
    for (layer, method, what), start, count, want in zip(
            RECONCILED, before, _span_counts(tracer), expected):
        if count - start != want:
            record.mismatches.append(
                f"{record.unit}: {count - start} {layer}.{method} spans "
                f"vs {want} {what}")


def _layer_delta(tracer, before) -> dict[str, list[int]]:
    after = tracer.snapshot()
    return {layer: [a - b for a, b in zip(row, before.get(layer,
                                                          (0, 0, 0)))]
            for layer, row in after.items()}


def run_cell(cell: CellSpec, mode: str, tracer=None) -> Record:
    """One figure cell, exactly as ``execute_cell``/``run_workload`` run
    it, split into timed outer calls."""
    record = Record(cell.cell_id, cell.config.scheme)
    clock = _Clock(tracer)
    before_layers = tracer.snapshot() if tracer else {}
    before_spans = _span_counts(tracer) if tracer else {}
    with clock("unit"):
        with clock("workloads"):
            workload = make_workload(cell.workload, cell.config.data_capacity,
                                     cell.operations, seed=cell.seed)
            trace = workload.record() if hasattr(workload, "record") \
                else list(workload.trace())
        system = System(cell.config,
                        engine="scalar" if mode in ("scalar", "inner")
                        else "auto")
        if mode == "inner":
            tracer.instrument(system)
        iterator = iter(trace)
        pre_counts = (0, 0)
        with clock("sim.run"):
            if cell.warmup_accesses:
                _drive(system, islice(iterator, cell.warmup_accesses),
                       mode, record)
                pre_counts = _live_counts(system)
                system.reset_stats()
            _drive(system, iterator, mode, record)
        result = system.result(cell.workload)
    record.times = clock.times
    record.accesses = len(trace)
    record.digest = _digest(result)
    record.counters = _counters(result)
    if mode == "inner":
        post = _live_counts(system)
        _reconcile(tracer, before_spans,
                   (len(trace), pre_counts[0] + post[0],
                    pre_counts[1] + post[1]), record)
        record.layers = _layer_delta(tracer, before_layers)
    return record


def _inject(attack: str, system: System) -> None:
    """Power-fail ``system`` and tamper with the NVM image (Table I)."""
    ctl = system.controller
    if attack == "replay_roll_back":
        # Persist a known line, snapshot its leaf, advance it once more
        # so the snapshot is provably stale, then replay it.
        ctl.write_data(0, None, cycle=10**9)
        snapshot = snapshot_leaf(ctl.store, 0)
        ctl.write_data(0, None, cycle=10**9 + 100)
        system.crash()
        replay_leaf(ctl.store, snapshot)
        return
    system.crash()
    if attack == "roll_forward":
        roll_forward_leaf(ctl.store, 0, slot=3, amount=2)
    elif attack == "forward_plus_back":
        combined_attack(ctl.store, forward_index=0, back_index=1, slot=2,
                        amount=1)


def _detector(report) -> str:
    if report.leaf_hmac_failures:
        return "leaf_hmac"
    if not report.root_matched:
        return "root"
    return "none" if report.success else "other"


def run_trial(trial: Trial, mode: str, tracer=None) -> Record:
    """One crash trial or Table I attack; the verdict is checked."""
    record = Record(trial.unit_id, trial.scheme)
    clock = _Clock(tracer)
    before_layers = tracer.snapshot() if tracer else {}
    before_spans = _span_counts(tracer) if tracer else {}
    with clock("unit"):
        with clock("workloads"):
            workload = make_workload(trial.workload, trial.capacity,
                                     CRASH_OPERATIONS, seed=trial.seed)
            if trial.attack:
                executed = list(workload.trace())
            elif mode == "user":
                executed = workload.trace()
            else:
                executed, _ = split_at_crash(workload.trace(),
                                             CrashPlan(trial.crash_at))
        system = System(trial.config(),
                        engine="scalar" if mode in ("scalar", "inner")
                        else "auto")
        if mode == "inner":
            tracer.instrument(system)
        result = None
        if mode == "user" and not trial.attack:
            record.engine = "auto"
            with clock("sim.run"):
                record.accesses = run_with_crash(system, executed,
                                                 CrashPlan(trial.crash_at))
        else:
            with clock("sim.run"):
                _drive(system, executed, mode, record)
            record.accesses = len(executed)
            if mode != "user":
                result = system.result(trial.unit_id)
            if not trial.attack:
                with clock("crash.crash"):
                    system.crash()
        if trial.attack:
            with clock("crash.attack"):
                _inject(trial.attack, system)
                with clock("crash.recovery"):
                    report = system.recover()
        else:
            with clock("crash.recovery"):
                report = system.recover()
    record.times = clock.times
    record.metadata_reads = report.metadata_reads
    if result is not None:
        record.counters = _counters(result)
    if trial.attack:
        caught_by = _detector(report)
        record.ok = caught_by == ATTACKS[trial.attack]
        record.detail = f"caught by {caught_by}"
    else:
        expected = VARIANTS[trial.variant][2]
        record.ok = report.success == expected
        record.detail = (f"{'recovered' if report.success else 'failed'}"
                         f" (paper: {'recovers' if expected else 'fails'})")
    record.digest = _digest({"unit": trial.unit_id,
                             "accesses": record.accesses, "report": report})
    if mode == "inner":
        _reconcile(tracer, before_spans,
                   (record.accesses, *_live_counts(system)), record)
        record.layers = _layer_delta(tracer, before_layers)
    return record
