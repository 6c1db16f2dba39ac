"""Map simulation results to :class:`~repro.viz.spec.FigureArtifact`.

One builder per paper figure / dashboard panel, each a pure function
from a result structure (a :class:`~repro.bench.harness.MatrixResult`,
a hash-sweep table, a :class:`~repro.bench.figures.RecoveryFigure`...)
to an artifact: spec dict + tidy rows + provenance.
Ordering is pinned everywhere — workloads sort alphabetically, schemes
follow :data:`SCHEME_ORDER` — because artifacts must serialize
byte-identically run over run.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.bench.figures import (
    CrashWindowResult,
    HashSweepFigure,
    RecoveryFigure,
)
from repro.bench.harness import MatrixResult
from repro.bench.overheads import OverheadRow, overhead_long_rows
from repro.obs.export import attribution_rows, histogram_summary_rows
from repro.viz.spec import (
    FigureArtifact,
    ci_bar,
    grouped_bar,
    line_chart,
    stacked_bar,
)
from repro.viz.stats import (
    DEFAULT_RESAMPLES,
    DEFAULT_SEED,
    SchemeStats,
    format_stats_table,
    ratio_table_stats,
)

#: Canonical scheme presentation order (baseline first, then the Fig
#: 9/10 comparison set); unknown schemes sort alphabetically after.
SCHEME_ORDER = ("baseline", "plp", "lazy", "bmf-ideal", "scue", "eager")


def scheme_sort_key(scheme: str) -> tuple[int, str]:
    try:
        return (SCHEME_ORDER.index(scheme), scheme)
    except ValueError:
        return (len(SCHEME_ORDER), scheme)


def order_schemes(schemes: Sequence[str]) -> list[str]:
    return sorted(schemes, key=scheme_sort_key)


# ----------------------------------------------------------------------
# Ratio figures (Figs 9/10, §V-E) + their stats companions
# ----------------------------------------------------------------------
def ratio_artifact(name: str, title: str,
                   table: Mapping[str, Mapping[str, float]],
                   *, y_title: str, baseline: str,
                   inputs: Sequence[str] = ()) -> FigureArtifact:
    """Grouped-bar artifact from a ``{workload: {scheme: ratio}}``
    table (the :meth:`MatrixResult.ratio_table` shape)."""
    workloads = sorted(w for w in table if w != "geomean")
    schemes = order_schemes(next(iter(table.values())).keys()) \
        if table else []
    rows = [{"workload": workload, "scheme": scheme,
             "ratio": table[workload][scheme]}
            for workload in workloads for scheme in schemes]
    spec = grouped_bar(
        name, title, x="workload", y="ratio", group="scheme",
        y_title=y_title, x_sort=workloads, group_sort=schemes,
        description=f"{title} (normalized to {baseline})")
    return FigureArtifact(name, title, spec,
                          ("workload", "scheme", "ratio"), rows,
                          tuple(inputs))


def ratio_stats_artifact(name: str, title: str,
                         stats_rows: Sequence[SchemeStats],
                         *, y_title: str,
                         inputs: Sequence[str] = ()) -> FigureArtifact:
    """Geomean-with-CI layered artifact from the stats layer."""
    schemes = [row.scheme for row in stats_rows]
    rows = [{"scheme": row.scheme, "geomean": row.geomean,
             "ci_low": row.ci_low, "ci_high": row.ci_high}
            for row in stats_rows]
    spec = ci_bar(name, title, x="scheme", y="geomean",
                  lo="ci_low", hi="ci_high", y_title=y_title,
                  x_sort=schemes,
                  description=f"{title} with bootstrap 95% CIs")
    return FigureArtifact(name, title, spec,
                          ("scheme", "geomean", "ci_low", "ci_high"),
                          rows, tuple(inputs))


def ratio_figure_set(name: str, title: str,
                     table: Mapping[str, Mapping[str, float]],
                     *, y_title: str, baseline: str,
                     reference: str,
                     resamples: int = DEFAULT_RESAMPLES,
                     seed: int = DEFAULT_SEED,
                     paper_average: Mapping[str, float] | None = None,
                     inputs: Sequence[str] = ()
                     ) -> tuple[list[FigureArtifact], str]:
    """The full treatment of one ratio table: the per-workload grouped
    bar, the geomean+CI companion, and the text stats table."""
    from repro.bench.reporting import format_ratio_table

    schemes = order_schemes(next(iter(table.values())).keys())
    stats_rows = ratio_table_stats(table, schemes, reference,
                                   resamples=resamples, seed=seed)
    artifacts = [
        ratio_artifact(name, title, table, y_title=y_title,
                       baseline=baseline, inputs=inputs),
        ratio_stats_artifact(f"{name}_ci", f"{title} (geomean + CI)",
                             stats_rows, y_title=y_title,
                             inputs=inputs),
    ]
    text = format_ratio_table(title, table, paper_average,
                              baseline_note=f"normalized to {baseline}")
    stats_text = format_stats_table(f"{title}: scheme geomeans",
                                    stats_rows, reference,
                                    resamples=resamples, seed=seed)
    return artifacts, f"{text}\n\n{stats_text}"


# ----------------------------------------------------------------------
# Sweeps and direct-run figures (Figs 11-13, Fig 5, §V-F)
# ----------------------------------------------------------------------
def hash_sweep_artifact(name: str, title: str, sweep: HashSweepFigure,
                        *, inputs: Sequence[str] = ()) -> FigureArtifact:
    rows = sweep.long_rows()
    spec = line_chart(
        name, title, x="hash_latency", y="ratio", series="workload",
        x_title="hash latency (cycles)",
        y_title=f"{sweep.metric} vs 20-cycle hash",
        description=f"{title}: SCUE sensitivity to hash latency")
    return FigureArtifact(name, title, spec,
                          ("workload", "hash_latency", "ratio"), rows,
                          tuple(inputs))


def recovery_artifact(name: str, title: str, figure: RecoveryFigure,
                      *, inputs: Sequence[str] = ()) -> FigureArtifact:
    rows = figure.long_rows()
    spec = line_chart(
        name, title, x="cache_kb", y="seconds", series="tracker",
        x_title="metadata cache (KB)", y_title="recovery time (s)",
        description=f"{title}: STAR vs AGIT recovery cost as the "
                    "worst-case stale set grows")
    return FigureArtifact(
        name, title, spec,
        ("tracker", "cache_kb", "seconds", "stale_nodes"), rows,
        tuple(inputs))


def crash_window_artifact(name: str, title: str,
                          result: CrashWindowResult,
                          *, inputs: Sequence[str] = ()
                          ) -> FigureArtifact:
    rows = result.long_rows()
    schemes = [row["scheme"] for row in rows]
    spec = grouped_bar(
        name, title, x="scheme", y="success_rate", group="scheme",
        y_title="recovery success rate", x_sort=schemes,
        group_sort=schemes,
        description=f"{title}: mid-burst crash recovery over "
                    f"{result.trials} trials per scheme")
    return FigureArtifact(name, title, spec,
                          ("scheme", "success_rate", "trials"), rows,
                          tuple(inputs))


def overheads_artifact(name: str, title: str,
                       rows: list[OverheadRow],
                       *, inputs: Sequence[str] = ()) -> FigureArtifact:
    long_rows = overhead_long_rows(rows)
    schemes = sorted({row["scheme"] for row in long_rows})
    spec = grouped_bar(
        name, title, x="scheme", y="bytes", group="source",
        y_title="on-chip non-volatile bytes", x_sort=schemes,
        group_sort=["measured", "paper"],
        description=f"{title}: measured vs published on-chip state")
    spec["encoding"]["y"]["scale"] = {"type": "symlog"}
    return FigureArtifact(name, title, spec,
                          ("scheme", "source", "bytes"), long_rows,
                          tuple(inputs))


# ----------------------------------------------------------------------
# Dashboards: latency tails, attribution
# ----------------------------------------------------------------------
def latency_tails_artifact(name: str, title: str, matrix: MatrixResult,
                           *, inputs: Sequence[str] = ()
                           ) -> FigureArtifact:
    """p50/p95/p99 panels per scheme from the campaign's bucket-merged
    histograms (one facet column per scheme)."""
    rows: list[dict[str, Any]] = []
    for scheme in order_schemes(matrix.schemes()):
        merged = matrix.merged_histograms(scheme)
        for row in histogram_summary_rows(merged):
            rows.append({"scheme": scheme, **row})
    spec = grouped_bar(
        name, title, x="metric", y="cycles", group="stat",
        y_title="latency (cycles)",
        group_sort=["p50", "p95", "p99"],
        description=f"{title}: campaign-wide latency tails from "
                    "bucket-merged histograms")
    spec["encoding"]["column"] = {"field": "scheme", "type": "nominal"}
    spec["encoding"]["y"]["scale"] = {"type": "symlog"}
    return FigureArtifact(name, title, spec,
                          ("scheme", "metric", "stat", "cycles"), rows,
                          tuple(inputs))


def attribution_artifact(name: str, title: str, matrix: MatrixResult,
                         *, inputs: Sequence[str] = ()
                         ) -> FigureArtifact:
    """Stacked per-component cycle shares per scheme, summed across the
    campaign's workloads (the AttributionLedger dashboard)."""
    rows: list[dict[str, Any]] = []
    schemes = order_schemes(matrix.schemes())
    for scheme in schemes:
        merged = matrix.merged_attribution(scheme)
        total = sum(merged.values())
        for row in attribution_rows(merged, total):
            rows.append({"scheme": scheme, **row})
    spec = stacked_bar(
        name, title, x="scheme", y="share", stack="component",
        y_title="share of cycles", x_sort=schemes,
        description=f"{title}: per-component cycle composition, "
                    "summed across workloads")
    return FigureArtifact(name, title, spec,
                          ("scheme", "component", "cycles", "share"),
                          rows, tuple(inputs))
