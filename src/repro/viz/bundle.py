"""Walk a campaign directory, build every applicable figure, write the
report bundle.

The bundle is a directory of ``<figure>.vl.json`` + ``<figure>.csv``
pairs, ``<figure>.stats.txt`` text tables, and a ``STATUS.md`` manifest
listing every artifact with its inputs and content hash — the
QueryTorque-style one-glance answer to "what is in this report and did
it change".  Everything is derived from the campaign's content-addressed
result cache (``<dir>/cache/objects``), so a report can be regenerated
from any campaign directory — batch (``repro-sim campaign run``),
service (``repro-sim serve``) or figure-driver runs share that layout —
and regenerating twice produces byte-identical files.

Cells are classified by their grid coordinate: ``group == ""`` cells
form the Fig 9/10/§V-E workload x scheme matrix, ``group == "hash=N"``
cells form the Fig 11/12 sensitivity sweep.  Direct-run figures (Fig 13
recovery, Fig 5 crash window) are injected by the caller — they are not
campaign cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.figures import (
    PAPER_FIG9,
    PAPER_FIG10,
    PAPER_FIG11_AVG_160,
    PAPER_FIG12_AVG_160,
    PAPER_SEC5E,
    CrashWindowResult,
    HashSweepFigure,
    RecoveryFigure,
)
from repro.bench.harness import MatrixResult
from repro.bench.overheads import sec5f_space_overheads
from repro.bench.reporting import format_markdown_table
from repro.campaign.spec import CellSpec
from repro.errors import ConfigError
from repro.sim.results import RunResult
from repro.util.atomic import atomic_write_text
from repro.viz import figures as fig
from repro.viz.spec import FigureArtifact, content_hash
from repro.viz.stats import DEFAULT_RESAMPLES, DEFAULT_SEED

#: STATUS.md shows this many hex chars of each artifact's sha256.
HASH_WIDTH = 16


@dataclass
class CampaignData:
    """Cached campaign cells, classified by grid coordinate."""

    root: Path
    matrix: MatrixResult = field(default_factory=MatrixResult)
    #: ``{workload: {hash_latency: result}}`` from ``hash=N`` cells.
    sweep: dict[str, dict[int, RunResult]] = field(default_factory=dict)
    cells: int = 0
    skipped: int = 0

    def has_matrix(self) -> bool:
        return bool(self.matrix.results) \
            and "baseline" in self.matrix.schemes() \
            and len(self.matrix.schemes()) >= 2

    def has_sec5e(self) -> bool:
        return bool(self.matrix.results) \
            and "lazy" in self.matrix.schemes() \
            and len(self.matrix.schemes()) >= 2

    def has_sweep(self) -> bool:
        return any(len(by_latency) >= 2
                   for by_latency in self.sweep.values())


def _cache_objects_dir(campaign_dir: Path) -> Path:
    for candidate in (campaign_dir / "cache", campaign_dir):
        if (candidate / "objects").is_dir():
            return candidate / "objects"
    raise ConfigError(
        f"{campaign_dir}: no cache/objects directory — run a campaign "
        "into this directory first (repro-sim campaign run --dir ...)")


def load_campaign(campaign_dir: str | Path) -> CampaignData:
    """Read every cached cell under ``campaign_dir`` and classify it.

    Entries that fail to parse (torn writes, schema drift from another
    repro version) are counted in ``skipped`` rather than failing the
    report — a damaged cache degrades to a smaller bundle.  Results are
    inserted in sorted (workload, scheme/latency) order so downstream
    row emission is byte-stable regardless of key-hash file order.
    """
    root = Path(campaign_dir)
    objects = _cache_objects_dir(root)
    matrix_cells: list[tuple[str, str, RunResult]] = []
    sweep_cells: list[tuple[str, int, RunResult]] = []
    data = CampaignData(root)
    for path in sorted(objects.glob("*/*.json")):
        try:
            payload = json.loads(path.read_text())
            cell = CellSpec.from_dict(payload["cell"])
            result = RunResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            data.skipped += 1
            continue
        data.cells += 1
        if cell.group.startswith("hash="):
            sweep_cells.append(
                (cell.workload, cell.config.hash_latency, result))
        elif not cell.group:
            matrix_cells.append(
                (cell.workload, cell.config.scheme, result))
        else:
            data.skipped += 1
    for workload, scheme, result in sorted(
            matrix_cells, key=lambda item: item[:2]):
        data.matrix.add(workload, scheme, result)
    for workload, latency, result in sorted(
            sweep_cells, key=lambda item: item[:2]):
        data.sweep.setdefault(workload, {})[latency] = result
    return data


def sweep_figure(data: CampaignData, metric: str) -> HashSweepFigure:
    """Rebuild the Fig 11/12 ratio table from cached sweep cells."""
    latencies = sorted({latency for by_latency in data.sweep.values()
                        for latency in by_latency})
    base_latency = latencies[0]
    table: dict[int, dict[str, float]] = {lat: {} for lat in latencies}
    for workload in sorted(data.sweep):
        by_latency = data.sweep[workload]
        if base_latency not in by_latency:
            continue
        base_result = by_latency[base_latency]
        base = (base_result.avg_write_latency
                if metric == "write_latency"
                else base_result.cycles) or 1.0
        for latency in latencies:
            if latency not in by_latency:
                continue
            result = by_latency[latency]
            value = (result.avg_write_latency
                     if metric == "write_latency" else result.cycles)
            table[latency][workload] = value / base
    paper = PAPER_FIG11_AVG_160 if metric == "write_latency" \
        else PAPER_FIG12_AVG_160
    return HashSweepFigure(metric, table, paper)


# ----------------------------------------------------------------------
# Bundle assembly
# ----------------------------------------------------------------------
@dataclass
class BundleManifest:
    """What :func:`write_bundle` produced."""

    out_dir: Path
    artifacts: list[FigureArtifact]
    stats_files: list[str]
    files: list[str]            # every written file, sorted
    status_path: Path


def build_artifacts(data: CampaignData, *,
                    resamples: int = DEFAULT_RESAMPLES,
                    seed: int = DEFAULT_SEED,
                    overheads: bool = True,
                    recovery: RecoveryFigure | None = None,
                    crash_window: CrashWindowResult | None = None,
                    ) -> tuple[list[FigureArtifact], dict[str, str]]:
    """Every artifact the available data supports, plus the text stats
    tables keyed by figure name."""
    artifacts: list[FigureArtifact] = []
    stats: dict[str, str] = {}
    matrix_inputs = (f"campaign matrix: "
                     f"{len(data.matrix.workloads)} workloads x "
                     f"{len(data.matrix.schemes())} schemes",)

    if data.has_matrix():
        schemes = [s for s in data.matrix.schemes() if s != "baseline"]
        reference = "scue" if "scue" in schemes \
            else fig.order_schemes(schemes)[-1]
        for name, title, metric, paper in (
                ("fig9_write_latency", "Fig 9: write latency",
                 "write_latency", PAPER_FIG9),
                ("fig10_execution_time", "Fig 10: execution time",
                 "execution_time", PAPER_FIG10)):
            table = data.matrix.ratio_table(metric, schemes)
            arts, text = fig.ratio_figure_set(
                name, title, table, y_title=f"{metric} vs baseline",
                baseline="baseline", reference=reference,
                resamples=resamples, seed=seed, paper_average=paper,
                inputs=matrix_inputs)
            artifacts.extend(arts)
            stats[name] = text

    if data.has_sec5e():
        schemes = [s for s in data.matrix.schemes() if s != "lazy"]
        reference = "scue" if "scue" in schemes \
            else fig.order_schemes(schemes)[-1]
        table = data.matrix.ratio_table(
            "metadata_accesses", schemes + ["lazy"], baseline="lazy")
        arts, text = fig.ratio_figure_set(
            "sec5e_metadata_accesses", "Sec V-E: metadata accesses",
            table, y_title="metadata accesses vs lazy",
            baseline="lazy", reference=reference, resamples=resamples,
            seed=seed, paper_average=PAPER_SEC5E, inputs=matrix_inputs)
        artifacts.extend(arts)
        stats["sec5e_metadata_accesses"] = text

    if data.matrix.results:
        artifacts.append(fig.latency_tails_artifact(
            "dash_latency_tails", "Latency tails (p50/p95/p99)",
            data.matrix, inputs=matrix_inputs))
        artifacts.append(fig.attribution_artifact(
            "dash_attribution", "Cycle attribution by component",
            data.matrix, inputs=matrix_inputs))

    if data.has_sweep():
        sweep_inputs = (f"campaign hash sweep: "
                        f"{len(data.sweep)} workloads",)
        artifacts.append(fig.hash_sweep_artifact(
            "fig11_hash_sweep_write_latency",
            "Fig 11: write latency vs hash latency",
            sweep_figure(data, "write_latency"), inputs=sweep_inputs))
        artifacts.append(fig.hash_sweep_artifact(
            "fig12_hash_sweep_execution_time",
            "Fig 12: execution time vs hash latency",
            sweep_figure(data, "execution_time"), inputs=sweep_inputs))

    if overheads:
        artifacts.append(fig.overheads_artifact(
            "sec5f_space_overheads", "Sec V-F: space overheads",
            sec5f_space_overheads(),
            inputs=("static accounting at the paper's 16 GB geometry",)))

    if recovery is not None:
        artifacts.append(fig.recovery_artifact(
            "fig13_recovery_time", "Fig 13: recovery time",
            recovery, inputs=("direct run: crash + targeted rebuild per "
                              "(tracker, cache size)",)))

    if crash_window is not None:
        artifacts.append(fig.crash_window_artifact(
            "fig5_crash_window", "Fig 5: crash-window recovery",
            crash_window,
            inputs=(f"direct run: {crash_window.trials} crash trials "
                    "per scheme",)))

    return artifacts, stats


def render_status(data: CampaignData, artifacts: list[FigureArtifact],
                  stats_texts: dict[str, str], *, resamples: int,
                  seed: int) -> str:
    """The bundle's ``STATUS.md``: every figure, its inputs, and the
    content hash of both halves.  No timestamps — the file must be
    byte-stable across regeneration."""
    lines = [
        "# Report bundle",
        "",
        "Generated by `repro-sim report` "
        f"(seed {seed}, {resamples} bootstrap resamples).",
        f"Source: {data.cells} cached campaign cells"
        + (f" ({data.skipped} unreadable/ignored)" if data.skipped
           else "") + ".",
        "Validate with `python -m repro.viz.validate <this dir>`.",
        "",
        "## Figures",
        "",
    ]
    rows = []
    for artifact in sorted(artifacts, key=lambda a: a.name):
        rows.append([
            artifact.name, artifact.title,
            f"`{artifact.spec_file()}`", f"`{artifact.data_file()}`",
            len(artifact.rows),
            f"`{content_hash(artifact.spec_str())[:HASH_WIDTH]}`",
            f"`{content_hash(artifact.csv_str())[:HASH_WIDTH]}`",
            "; ".join(artifact.inputs),
        ])
    lines.append(format_markdown_table(
        ["figure", "title", "spec", "data", "rows", "spec sha256",
         "data sha256", "inputs"], rows))
    if stats_texts:
        lines += ["", "## Stats tables", ""]
        stat_rows = [[f"`{name}.stats.txt`",
                      f"`{content_hash(text)[:HASH_WIDTH]}`"]
                     for name, text in sorted(stats_texts.items())]
        lines.append(format_markdown_table(["file", "sha256"],
                                           stat_rows))
    lines.append("")
    return "\n".join(lines)


#: File patterns a bundle owns; cleared before writing so a shrinking
#: figure set cannot leave stale artifacts behind.
_BUNDLE_PATTERNS = ("*.vl.json", "*.csv", "*.stats.txt", "STATUS.md")


def write_bundle(campaign_dir: str | Path, out_dir: str | Path, *,
                 resamples: int = DEFAULT_RESAMPLES,
                 seed: int = DEFAULT_SEED,
                 overheads: bool = True,
                 recovery: RecoveryFigure | None = None,
                 crash_window: CrashWindowResult | None = None,
                 ) -> BundleManifest:
    """Load ``campaign_dir``, build every artifact, write the bundle."""
    data = load_campaign(campaign_dir)
    if not data.cells:
        raise ConfigError(
            f"{campaign_dir}: campaign cache holds no readable cells")
    artifacts, stats_texts = build_artifacts(
        data, resamples=resamples, seed=seed, overheads=overheads,
        recovery=recovery, crash_window=crash_window)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in _BUNDLE_PATTERNS:
        for stale in out.glob(pattern):
            stale.unlink()

    # Every bundle file publishes atomically: a dashboard (or the CI
    # sha256 comparison) watching the directory never reads a torn
    # spec/csv, and a killed rebuild leaves the previous bundle intact.
    files: list[str] = []
    for artifact in artifacts:
        atomic_write_text(out / artifact.spec_file(),
                          artifact.spec_str())
        atomic_write_text(out / artifact.data_file(),
                          artifact.csv_str())
        files += [artifact.spec_file(), artifact.data_file()]
    stats_files = []
    for name, text in sorted(stats_texts.items()):
        stats_name = f"{name}.stats.txt"
        atomic_write_text(out / stats_name, text)
        stats_files.append(stats_name)
        files.append(stats_name)
    status = render_status(data, artifacts, stats_texts,
                           resamples=resamples, seed=seed)
    status_path = out / "STATUS.md"
    atomic_write_text(status_path, status)
    files.append("STATUS.md")
    return BundleManifest(out, artifacts, stats_files, sorted(files),
                          status_path)


def schemes_summary(data: CampaignData) -> str:
    """One-line human summary for the CLI."""
    parts = [f"{data.cells} cells"]
    if data.matrix.results:
        parts.append(f"matrix {len(data.matrix.workloads)}x"
                     f"{len(data.matrix.schemes())}")
    if data.sweep:
        latencies = sorted({lat for by in data.sweep.values()
                            for lat in by})
        parts.append(f"hash sweep {len(data.sweep)}x{len(latencies)}")
    return ", ".join(parts)
