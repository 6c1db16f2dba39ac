"""Shared experiment plumbing: run a workload x scheme matrix at a chosen
scale and aggregate the paper-style normalised ratios.

Cell execution goes through :mod:`repro.campaign` — serially in-process
by default, across a worker pool with ``jobs>1``, and resumably when a
result cache is supplied (docs/benchmarks.md).

Scaling methodology (DESIGN.md §2): the paper simulates 16 GB of PCM under
a 256 KB metadata cache and a 4 MB LLC — the metadata cache covers 1/1024
of the counter region, and application footprints dwarf the LLC.  Running
16 GB of traffic through a Python model is pointless, so a
:class:`BenchScale` shrinks capacity *and* the caches together, keeping
the pressure ratios (counter-region : metadata-cache, footprint : LLC) in
the paper's regime while forcing the paper's 9-level tree geometry so
branch lengths — the quantity the schemes fight over — match Table II.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import CampaignSpec
from repro.mem.hierarchy import HierarchyConfig
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.workloads import ALL_WORKLOADS, SPEC_WORKLOADS

#: The comparison set of Figs 9/10 (baseline is the denominator).
EVAL_SCHEMES = ("plp", "lazy", "bmf-ideal", "scue")


@dataclass(frozen=True)
class BenchScale:
    """How big an experiment to run.

    ``quick`` keeps unit-test latency sane; ``default`` is what the
    ``benchmarks/`` suite runs; ``paper`` is the scale behind the
    committed EXPERIMENTS.md numbers.
    """

    data_capacity: int
    operations: int          # persistent-workload operations
    spec_accesses: int       # SPEC-like trace length (accesses)
    warmup_accesses: int
    tree_levels: int = 9     # Table II geometry
    metadata_cache_size: int = 32 * 1024
    l1_size: int = 16 * 1024
    l2_size: int = 64 * 1024
    l3_size: int = 512 * 1024

    @classmethod
    def quick(cls) -> "BenchScale":
        return cls(data_capacity=16 * 1024 * 1024, operations=500,
                   spec_accesses=6000, warmup_accesses=200,
                   metadata_cache_size=16 * 1024, l3_size=256 * 1024)

    @classmethod
    def default(cls) -> "BenchScale":
        return cls(data_capacity=32 * 1024 * 1024, operations=2500,
                   spec_accesses=40000, warmup_accesses=500)

    @classmethod
    def paper(cls) -> "BenchScale":
        return cls(data_capacity=64 * 1024 * 1024, operations=8000,
                   spec_accesses=120000, warmup_accesses=2000,
                   metadata_cache_size=64 * 1024,
                   l3_size=1024 * 1024)

    def config(self, scheme: str = "scue", **overrides) -> SystemConfig:
        hierarchy = HierarchyConfig(
            l1_size=self.l1_size, l1_ways=2,
            l2_size=self.l2_size, l2_ways=8,
            l3_size=self.l3_size, l3_ways=8)
        base = dict(scheme=scheme,
                    data_capacity=self.data_capacity,
                    tree_levels=self.tree_levels,
                    metadata_cache_size=self.metadata_cache_size,
                    hierarchy=hierarchy)
        base.update(overrides)
        return SystemConfig(**base)

    def operations_for(self, workload: str) -> int:
        return self.spec_accesses if workload in SPEC_WORKLOADS \
            else self.operations


@dataclass
class MatrixResult:
    """Results of a workload x scheme sweep, plus ratio helpers."""

    results: dict[str, dict[str, RunResult]] = field(default_factory=dict)

    def add(self, workload: str, scheme: str, result: RunResult) -> None:
        self.results.setdefault(workload, {})[scheme] = result

    @property
    def workloads(self) -> list[str]:
        return list(self.results)

    def schemes(self) -> list[str]:
        first = next(iter(self.results.values()), {})
        return list(first)

    def ratio(self, workload: str, scheme: str, metric: str,
              baseline: str = "baseline") -> float:
        row = self.results[workload]
        if metric == "write_latency":
            return row[scheme].write_latency_vs(row[baseline])
        if metric == "execution_time":
            return row[scheme].execution_time_vs(row[baseline])
        if metric == "metadata_accesses":
            denom = row[baseline].metadata_accesses
            return row[scheme].metadata_accesses / denom if denom else 0.0
        raise ValueError(f"unknown metric {metric!r}")

    def ratio_table(self, metric: str, schemes: Sequence[str],
                    baseline: str = "baseline") -> dict[str, dict[str, float]]:
        """``{workload: {scheme: ratio}}`` plus a geometric-mean row."""
        table = {
            workload: {scheme: self.ratio(workload, scheme, metric, baseline)
                       for scheme in schemes}
            for workload in self.results
        }
        table["geomean"] = {
            scheme: geomean(table[w][scheme] for w in self.results)
            for scheme in schemes
        }
        return table

    def merged_histograms(self, scheme: str) -> dict[str, dict]:
        """Bucket-wise merge of one scheme's latency histograms across
        every workload (``{metric: LatencyHistogram.to_dict()}``) — the
        campaign-level tail view (p99 across the whole matrix) that a
        mean-of-means cannot provide."""
        from repro.obs.histogram import LatencyHistogram

        merged: dict[str, LatencyHistogram] = {}
        for row in self.results.values():
            result = row.get(scheme)
            if result is None:
                continue
            for metric, snapshot in result.histograms.items():
                hist = LatencyHistogram.from_dict(snapshot, name=metric)
                if metric in merged:
                    merged[metric].merge(hist)
                else:
                    merged[metric] = hist
        return {metric: hist.to_dict() for metric, hist in merged.items()}

    def merged_attribution(self, scheme: str) -> dict[str, int]:
        """One scheme's cycle-attribution ledger summed across every
        workload (``{component: cycles}``, sorted by component) — the
        campaign-level composition view behind the report bundle's
        stacked-bar dashboard."""
        merged: dict[str, int] = {}
        for row in self.results.values():
            result = row.get(scheme)
            if result is None:
                continue
            for component, cycles in result.attribution.items():
                merged[component] = merged.get(component, 0) + cycles
        return dict(sorted(merged.items()))


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_matrix(scale: BenchScale,
               workloads: Sequence[str] = ALL_WORKLOADS,
               schemes: Sequence[str] = ("baseline",) + EVAL_SCHEMES,
               seed: int = 42,
               jobs: int = 1,
               cache: ResultCache | str | Path | None = None,
               manifest_path: str | Path | None = None,
               progress: ProgressReporter | None = None,
               **config_overrides) -> MatrixResult:
    """Run every (workload, scheme) pair on identical traces.

    Cells are submitted through the campaign engine: ``jobs=1`` (the
    default) executes them serially in-process, one pass per workload
    row (the row's cells build its trace once and replay one recorded
    CPU-cache pass), while ``jobs>1`` shards them across a worker pool
    and gives that sharing up.  Because every workload generator is
    seed-deterministic, the two paths produce identical results cell
    for cell.  Pass ``cache`` (a
    :class:`~repro.campaign.cache.ResultCache` or a directory path) to
    skip cells a previous — possibly killed — run already completed, and
    ``manifest_path`` to stream per-cell status to a manifest JSON.
    """
    spec = CampaignSpec.matrix(scale, workloads, schemes, seed=seed,
                               **config_overrides)
    outcome = run_campaign(
        spec, jobs=jobs, cache=cache, manifest_path=manifest_path,
        progress=progress, fail_fast=True)
    outcome.raise_on_failure()
    matrix = MatrixResult()
    for cell, result in outcome.iter_results():
        matrix.add(cell.workload, cell.config.scheme, result)
    return matrix
