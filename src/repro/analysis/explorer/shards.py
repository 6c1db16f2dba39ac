"""Sharded, resumable execution of a crash-state exploration.

Each shard is one :class:`repro.campaign.spec.CellSpec` whose ``group``
encodes the boundary range and lag bound (``explore[lo:hi)/lag=N``), so
the whole campaign machinery comes for free: parallel workers, kill -9
resume from the manifest, and per-(scheme, trace, boundary-range)
result caching keyed on the cell's canonical JSON.  Workers re-record
the (deterministic) persist stream locally — a recording is cheap, the
cut enumeration is the expensive part — and return a picklable
:class:`ShardResult`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.explorer.model import CrashStateModel
from repro.analysis.explorer.oracle import evaluate_state
from repro.analysis.explorer.record import (
    Recording, record_system_run,
)
from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign, trace_of
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.errors import ConfigError
from repro.obs import events as ev
from repro.obs.recorder import NULL_RECORDER
from repro.sim.config import SystemConfig
from repro.sim.system import System

_GROUP_RE = re.compile(r"explore\[(\d+):(\d+)\)(?:/lag=(\d+))?$")

#: Scheme rows of the exploration matrix: label -> config overrides.
#: ``scue+asit`` is the shadow-table (Anubis-style) variant — same
#: persist stream as SCUE (the tracker is an in-memory observer), but a
#: distinct row so its cache shards and report line stand on their own.
SCHEME_VARIANTS: dict[str, dict[str, Any]] = {
    "scue": {"scheme": "scue"},
    "eager": {"scheme": "eager"},
    "scue+asit": {"scheme": "scue", "recovery_tracker": "asit"},
}


@dataclass
class ShardResult:
    """Picklable outcome of exploring one boundary range."""

    scheme: str
    workload: str
    lo: int
    hi: int
    units: int = 0
    cuts: int = 0
    unique_states: int = 0
    pruned_duplicates: int = 0
    recovered: int = 0
    recovery_failures: int = 0
    violations: list[dict] = field(default_factory=list)
    state_hashes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme, "workload": self.workload,
            "lo": self.lo, "hi": self.hi, "units": self.units,
            "cuts": self.cuts, "unique_states": self.unique_states,
            "pruned_duplicates": self.pruned_duplicates,
            "recovered": self.recovered,
            "recovery_failures": self.recovery_failures,
            "violations": list(self.violations),
            "state_hashes": list(self.state_hashes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardResult":
        return cls(**data)


def explore_range(model: CrashStateModel, lo: int, hi: int,
                  *, workload: str = "", obs: Any = NULL_RECORDER,
                  now: int = 0) -> ShardResult:
    """Enumerate and verify every crash cut in boundary range [lo, hi)."""
    n = len(model.units)
    hi = min(hi, n)
    result = ShardResult(scheme=model.recording.scheme, workload=workload,
                         lo=lo, hi=hi, units=n)
    seen: set[str] = set()
    for cut in model.iter_cuts(lo, hi):
        result.cuts += 1
        state = model.state_of(cut)
        if state.canonical in seen:
            result.pruned_duplicates += 1
            if obs.enabled:
                obs.instant(ev.EV_EXPLORE_PRUNED, ev.TRACK_EXPLORE,
                            scheme=result.scheme, reason="state-hash")
            continue
        seen.add(state.canonical)
        verdict = evaluate_state(model, state)
        result.unique_states += 1
        if verdict.recovered:
            result.recovered += 1
        else:
            result.recovery_failures += 1
        if verdict.violating:
            result.violations.append(verdict.to_dict())
        if obs.enabled:
            obs.instant(ev.EV_EXPLORE_STATE, ev.TRACK_EXPLORE,
                        scheme=result.scheme, boundary=verdict.boundary,
                        recovered=verdict.recovered,
                        violating=verdict.violating)
    result.state_hashes = sorted(seen)
    if obs.enabled:
        obs.span(ev.EV_EXPLORE, ev.TRACK_EXPLORE, now, 1,
                 scheme=result.scheme, lo=lo, hi=hi,
                 states=result.unique_states,
                 pruned=result.pruned_duplicates)
    return result


# ----------------------------------------------------------------------
def record_cell(cell: CellSpec) -> Recording:
    """Deterministically (re)record the cell's persist stream over the
    trace :func:`repro.campaign.executor.execute_cell` runs, so a shard
    recorded in a worker matches the driver's recording."""
    return record_system_run(System(cell.config), iter(trace_of(cell)))


def parse_group(group: str) -> tuple[int, int, int | None]:
    """``explore[lo:hi)/lag=N`` -> (lo, hi, max_lag)."""
    match = _GROUP_RE.search(group)
    if match is None:
        raise ConfigError(f"not an explore shard group: {group!r}")
    lag = match.group(3)
    return (int(match.group(1)), int(match.group(2)),
            int(lag) if lag is not None else None)


def explore_cell_fn(cell: CellSpec) -> ShardResult:
    """Campaign cell function: re-record, model, explore one shard."""
    lo, hi, max_lag = parse_group(cell.group)
    recording = record_cell(cell)
    model = CrashStateModel(recording, max_lag=max_lag)
    return explore_range(model, lo, hi, workload=cell.workload)


def shard_group(label: str, lo: int, hi: int, max_lag: int | None) -> str:
    """The label prefix keeps cell ids unique when two rows share a
    scheme (scue vs. scue+asit) and names the row in status output."""
    suffix = "" if max_lag is None else f"/lag={max_lag}"
    return f"{label}:explore[{lo}:{hi}){suffix}"


@dataclass
class ExplorationResult:
    """Merged view over every scheme row's shards."""

    workload: str
    shards: dict[str, list[ShardResult]]
    campaign: Any = None

    def merged(self, label: str) -> ShardResult:
        parts = self.shards[label]
        total = ShardResult(scheme=parts[0].scheme if parts else label,
                            workload=self.workload, lo=0,
                            hi=max((p.hi for p in parts), default=0),
                            units=max((p.units for p in parts), default=0))
        hashes: set[str] = set()
        for part in parts:
            total.cuts += part.cuts
            total.pruned_duplicates += part.pruned_duplicates
            total.recovered += part.recovered
            total.recovery_failures += part.recovery_failures
            total.violations.extend(part.violations)
            hashes.update(part.state_hashes)
        total.unique_states = len(hashes)
        total.state_hashes = sorted(hashes)
        return total

    @property
    def violation_count(self) -> int:
        return sum(len(part.violations)
                   for parts in self.shards.values() for part in parts)

    @property
    def ok(self) -> bool:
        campaign_ok = self.campaign.ok if self.campaign else True
        return campaign_ok and self.violation_count == 0


def build_exploration_cells(
        base_config: SystemConfig, workload: str, operations: int,
        *, seed: int = 42, schemes: Iterable[str] = ("scue", "eager"),
        shard_units: int = 8,
        max_lag: int | None = None) -> tuple[list[CellSpec], list[str]]:
    """One recording per scheme row to size the unit stream, then split
    [0, n) into boundary-range shards.  Returns (cells, row labels)."""
    cells: list[CellSpec] = []
    labels: list[str] = []
    for label in schemes:
        overrides = SCHEME_VARIANTS.get(label)
        if overrides is None:
            overrides = {"scheme": label}
        config = base_config.with_(**overrides)
        sizing = CellSpec(workload=workload, config=config,
                          operations=operations, seed=seed)
        recording = record_cell(sizing)
        units = len(CrashStateModel(recording, max_lag=max_lag).units)
        for lo in range(0, max(units, 1), shard_units):
            hi = min(lo + shard_units, units)
            cells.append(CellSpec(
                workload=workload, config=config, operations=operations,
                seed=seed, group=shard_group(label, lo, hi, max_lag)))
            labels.append(label)
    return cells, labels


def run_exploration(base_config: SystemConfig, workload: str,
                    operations: int, *, seed: int = 42,
                    schemes: Iterable[str] = ("scue", "eager"),
                    shard_units: int = 8, max_lag: int | None = None,
                    jobs: int = 1, cache: ResultCache | None = None,
                    manifest_path: Any = None,
                    progress: Any = None) -> ExplorationResult:
    """Drive the full exploration as a campaign and merge the shards."""
    schemes = list(schemes)
    cells, labels = build_exploration_cells(
        base_config, workload, operations, seed=seed, schemes=schemes,
        shard_units=shard_units, max_lag=max_lag)
    spec = CampaignSpec(name=f"explore-{workload}", cells=cells)
    campaign = run_campaign(spec, jobs=jobs, cache=cache,
                            manifest_path=manifest_path,
                            cell_fn=explore_cell_fn, progress=progress)
    shards: dict[str, list[ShardResult]] = {label: [] for label in schemes}
    for index, label in enumerate(labels):
        shard = campaign.results.get(index)
        if shard is not None:
            shards[label].append(shard)
    return ExplorationResult(workload=workload, shards=shards,
                             campaign=campaign)


def exploration_cache(root: Any) -> ResultCache:
    """A ResultCache that decodes :class:`ShardResult` payloads."""
    return ResultCache(root, decode=ShardResult.from_dict)
