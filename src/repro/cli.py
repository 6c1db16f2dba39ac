"""Command-line interface: drive the simulator without writing Python.

::

    repro-sim info                                    # schemes & workloads
    repro-sim run --scheme scue --workload btree      # one simulation
    repro-sim compare --workload hash                 # all schemes, one table
    repro-sim crash --scheme lazy --workload array    # crash + recovery
    repro-sim record --workload rbtree -o rbtree.trc  # trace to file
    repro-sim replay rbtree.trc --scheme scue         # file-driven run
    repro-sim figures fig10 --jobs 4                  # parallel figure
    repro-sim campaign run --grid matrix --jobs 8     # resumable sweep
    repro-sim campaign status .repro-campaign/matrix-quick
    repro-sim serve --dir .repro-serve --port 8023    # campaign service
    repro-sim submit --grid matrix --dir .repro-serve # client: submit+wait
    repro-sim fetch job-000001 --dir .repro-serve     # client: results
    repro-sim trace --workload btree --scheme scue --out trace.json
    repro-sim stats diff scue.json eager.json         # compare two runs

Installed as ``repro-sim`` via the package's console script; also
runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.bench.reporting import format_simple_table, human_bytes
from repro.crash.injection import CrashPlan, run_with_crash
from repro.secure import SCHEMES
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads import ALL_WORKLOADS, make_workload
from repro.workloads.traceio import load_trace, save_trace

DEFAULT_CAPACITY = 16 * 1024 * 1024
DEFAULT_OPERATIONS = 500


def _add_system_args(parser: argparse.ArgumentParser,
                     with_scheme: bool = True) -> None:
    if with_scheme:
        parser.add_argument("--scheme", default="scue",
                            choices=sorted(SCHEMES))
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                        help="simulated data bytes "
                             f"(default {DEFAULT_CAPACITY})")
    parser.add_argument("--tree-levels", type=int, default=None)
    parser.add_argument("--tree-arity", type=int, default=8,
                        choices=(8, 16, 32))
    parser.add_argument("--hash-latency", type=int, default=40)
    parser.add_argument("--metadata-cache", type=int, default=256 * 1024)
    parser.add_argument("--eadr", action="store_true")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="array",
                        choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--operations", type=int,
                        default=DEFAULT_OPERATIONS)
    parser.add_argument("--seed", type=int, default=42)


def _config(args: argparse.Namespace, scheme: str | None = None
            ) -> SystemConfig:
    return SystemConfig(
        scheme=scheme or args.scheme,
        data_capacity=args.capacity,
        tree_levels=args.tree_levels,
        tree_arity=args.tree_arity,
        hash_latency=args.hash_latency,
        metadata_cache_size=args.metadata_cache,
        eadr=args.eadr)


def _print_result(result) -> None:
    print(f"workload          : {result.workload}")
    print(f"scheme            : {result.scheme}")
    print(f"cycles            : {result.cycles:,}")
    print(f"instructions      : {result.instructions:,}  "
          f"(IPC {result.ipc:.2f})")
    print(f"loads/stores/psts : {result.loads}/{result.stores}/"
          f"{result.persists}")
    print(f"avg write latency : {result.avg_write_latency:.0f} cycles")
    print(f"avg read latency  : {result.avg_read_latency:.0f} cycles")
    print(f"NVM accesses      : data {result.nvm_data_reads}r/"
          f"{result.nvm_data_writes}w, metadata {result.nvm_meta_reads}r/"
          f"{result.nvm_meta_writes}w")
    print(f"hashes computed   : {result.hashes:,}")


# ======================================================================
# Subcommands
# ======================================================================
def cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(SCHEMES):
        cls = SCHEMES[name]
        rows.append([name, "yes" if cls.crash_consistent_root else "no",
                     (cls.__doc__ or "").strip().splitlines()[0]])
    print(format_simple_table("schemes",
                              ["name", "root consistent", "summary"], rows))
    print()
    print("workloads:", ", ".join(sorted(ALL_WORKLOADS)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    system = System(_config(args))
    workload = make_workload(args.workload, args.capacity,
                             args.operations, seed=args.seed)
    system.run(workload.trace())
    result = system.result(args.workload)
    _print_result(result)
    if args.json:
        import json
        from pathlib import Path
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=1, sort_keys=True))
        print(f"wrote {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import TraceRecorder
    from repro.obs.export import (
        attribution_report,
        histogram_report,
        save_chrome_trace,
    )

    recorder = TraceRecorder(capacity=args.ring)
    system = System(_config(args), recorder=recorder)
    workload = make_workload(args.workload, args.capacity,
                             args.operations, seed=args.seed)
    system.run(workload.trace())
    result = system.result(args.workload)
    save_chrome_trace(recorder, args.out, scheme=result.scheme,
                      workload=result.workload,
                      attribution=result.attribution,
                      total_cycles=result.cycles)
    print(f"wrote {len(recorder)} events to {args.out} "
          "(load in https://ui.perfetto.dev)")
    meta = system.controller.meta_cache.stats.to_dict()
    print(f"metadata cache    : {meta['hits']:.0f} hits / "
          f"{meta['misses']:.0f} misses ({meta['hit_rate']:.1%})")
    print()
    print(attribution_report(result.attribution, result.cycles,
                             title=f"{result.scheme}/{result.workload}"))
    histograms = {name: data for name, data in result.histograms.items()
                  if data.get("count")}
    if histograms:
        print()
        print(histogram_report(histograms))
    if args.result_json:
        Path(args.result_json).write_text(
            json.dumps(result.to_dict(), indent=1, sort_keys=True))
        print(f"\nwrote {args.result_json}")
    return 0


def cmd_stats_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_results, load_result

    print(diff_results(load_result(args.a), load_result(args.b)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload, args.capacity,
                             args.operations, seed=args.seed)
    trace = list(workload.trace())
    rows = []
    baseline = None
    for scheme in sorted(SCHEMES):
        system = System(_config(args, scheme))
        system.run(iter(trace))
        result = system.result(args.workload)
        if scheme == "baseline":
            baseline = result
        rows.append((scheme, result, system))
    table = []
    for scheme, result, system in rows:
        table.append([
            scheme,
            f"{result.write_latency_vs(baseline):.2f}x" if baseline else "-",
            f"{result.execution_time_vs(baseline):.2f}x" if baseline else "-",
            f"{result.metadata_accesses:,}",
            human_bytes(system.controller.onchip_overhead_bytes()),
        ])
    print(format_simple_table(
        f"all schemes on '{args.workload}' ({len(trace)} accesses)",
        ["scheme", "write lat", "exec time", "meta accesses", "on-chip"],
        table))
    return 0


def cmd_crash(args: argparse.Namespace) -> int:
    system = System(_config(args))
    workload = make_workload(args.workload, args.capacity,
                             args.operations, seed=args.seed)
    executed = run_with_crash(system, workload.trace(),
                              CrashPlan(args.crash_after))
    print(f"crashed after {executed} accesses; recovering...")
    report = system.recover()
    print(f"recovery : {'SUCCESS' if report.success else 'FAILED'}")
    print(f"detail   : {report.detail}")
    print(f"reads    : {report.metadata_reads:,} "
          f"(~{report.recovery_seconds * 1000:.2f} ms at 100ns/fetch)")
    return 0 if report.success else 1


def cmd_record(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload, args.capacity,
                             args.operations, seed=args.seed)
    count = save_trace(args.output, workload.trace(),
                       compress=args.compress)
    print(f"wrote {count} records to {args.output}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    system = System(_config(args))
    system.run(load_trace(args.trace))
    _print_result(system.result(f"replay:{args.trace}"))
    return 0


def _campaign_opts(args: argparse.Namespace) -> dict:
    """Campaign keywords shared by ``figures`` and ``campaign run``."""
    from pathlib import Path

    from repro.campaign import ProgressReporter, ResultCache

    opts: dict = {"jobs": args.jobs}
    if args.jobs > 1 or getattr(args, "campaign_dir", None):
        opts["progress"] = ProgressReporter()
    if getattr(args, "campaign_dir", None):
        # The campaign-directory layout a server's --dir shares, so a
        # figure run against it reuses and adds to the served cells.
        base = Path(args.campaign_dir)
        opts["cache"] = ResultCache(base / "cache")
        opts["manifest_path"] = base / "manifest.json"
    return opts


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import (
        BenchScale,
        fig5_crash_window,
        fig9_write_latency,
        fig10_execution_time,
        fig11_hash_sweep_write_latency,
        fig12_hash_sweep_execution_time,
        fig13_recovery_time,
        format_ratio_table,
        format_simple_table,
        sec5e_memory_accesses,
        sec5f_space_overheads,
        table1_attack_detection,
    )
    from repro.bench.export import save_json
    from repro.bench.reporting import human_bytes

    scale = {"quick": BenchScale.quick, "default": BenchScale.default,
             "paper": BenchScale.paper}[args.scale]()
    campaign_opts = _campaign_opts(args)
    name = args.figure
    if name in ("fig9", "fig10", "sec5e"):
        matrix_fig = fig9_write_latency(scale, **campaign_opts)
        if name == "fig9":
            result = matrix_fig
            print(format_ratio_table("Fig 9: write latency", result.table,
                                     result.paper_average))
        elif name == "fig10":
            result = fig10_execution_time(matrix=matrix_fig.matrix)
            print(format_ratio_table("Fig 10: execution time",
                                     result.table, result.paper_average))
        else:
            result = sec5e_memory_accesses(matrix=matrix_fig.matrix)
            print(format_ratio_table("Sec V-E: metadata accesses",
                                     result.table, result.paper_average,
                                     baseline_note="normalized to Lazy"))
    elif name in ("fig11", "fig12"):
        fn = fig11_hash_sweep_write_latency if name == "fig11" \
            else fig12_hash_sweep_execution_time
        result = fn(scale, **campaign_opts)
        for latency, row in result.table.items():
            print(f"{latency:>4} cycles: geomean "
                  f"{result.average(latency):.3f}")
    elif name == "fig13":
        result = fig13_recovery_time()
        for tracker, row in result.table.items():
            for size, seconds in row.items():
                print(f"{tracker:5s} {size >> 10:5d}KB "
                      f"{seconds * 1000:8.2f} ms")
    elif name == "fig5":
        result = fig5_crash_window()
        for scheme, rate in result.success_rate.items():
            print(f"{scheme:10s} {rate:.0%}")
    elif name == "table1":
        result = table1_attack_detection()
        for attack, outcome in result.outcomes.items():
            print(f"{attack:20s} detected={outcome['detected']} "
                  f"by={outcome['by']}")
    elif name == "sec5f":
        result = sec5f_space_overheads()
        print(format_simple_table(
            "Sec V-F", ["scheme", "measured", "paper"],
            [[r.scheme, human_bytes(r.measured_bytes),
              human_bytes(r.paper_bytes)] for r in result]))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown figure {name}")
    if args.json:
        save_json(result, args.json)
        print(f"\nwrote {args.json}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.viz.bundle import write_bundle

    recovery = None
    if args.recovery:
        from repro.bench.figures import fig13_recovery_time
        sizes = tuple(int(s) for s in args.recovery_sizes.split(","))
        print(f"running Fig 13 recovery sweep ({len(sizes)} cache "
              "sizes x 2 trackers)...")
        recovery = fig13_recovery_time(cache_sizes=sizes,
                                       seed=args.seed)
    crash_window = None
    if args.crash_window:
        from repro.bench.figures import fig5_crash_window
        print("running Fig 5 crash-window trials...")
        crash_window = fig5_crash_window(seed=args.seed)
    out_dir = Path(args.out) if args.out \
        else Path(args.dir) / "report"
    manifest = write_bundle(
        args.dir, out_dir, resamples=args.resamples, seed=args.seed,
        overheads=not args.no_overheads, recovery=recovery,
        crash_window=crash_window)
    print(f"report bundle: {manifest.out_dir}")
    for artifact in sorted(manifest.artifacts, key=lambda a: a.name):
        print(f"  {artifact.spec_file()} + {artifact.data_file()} "
              f"({len(artifact.rows)} rows)")
    for stats_file in manifest.stats_files:
        print(f"  {stats_file}")
    print(f"wrote {len(manifest.files)} files: "
          f"{len(manifest.artifacts)} figures, "
          f"{len(manifest.stats_files)} stats tables, STATUS.md")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.cli import main as analysis_main
    return analysis_main(args.lint_args)


# ======================================================================
# Campaigns (docs/benchmarks.md)
# ======================================================================
def _campaign_spec(args: argparse.Namespace):
    from repro.bench import BenchScale
    from repro.bench.harness import EVAL_SCHEMES
    from repro.campaign import CampaignSpec

    scale = {"quick": BenchScale.quick, "default": BenchScale.default,
             "paper": BenchScale.paper}[args.scale]()
    workloads = args.workloads.split(",") if args.workloads \
        else list(ALL_WORKLOADS)
    name = f"{args.grid}-{args.scale}"
    if args.grid == "matrix":
        schemes = tuple(args.schemes.split(",")) if args.schemes \
            else ("baseline",) + EVAL_SCHEMES
        return CampaignSpec.matrix(scale, workloads, schemes,
                                   seed=args.seed, name=name)
    return CampaignSpec.hash_sweep(scale, workloads, seed=args.seed,
                                   name=name)


def _campaign_dir(args: argparse.Namespace) -> "Path":
    from pathlib import Path
    if args.dir:
        return Path(args.dir)
    return Path(".repro-campaign") / f"{args.grid}-{args.scale}"


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import ProgressReporter, ResultCache, run_campaign

    spec = _campaign_spec(args)
    base = _campaign_dir(args)
    cache = ResultCache(base / "cache")
    manifest_path = base / "manifest.json"
    print(f"campaign directory: {base}")
    outcome = run_campaign(
        spec, jobs=args.jobs, cache=cache, manifest_path=manifest_path,
        timeout=args.timeout, retries=args.retries,
        progress=ProgressReporter())
    counts = outcome.manifest.counts()
    print(f"cells     : {len(spec)}")
    print(f"cache hits: {counts['cached']}/{len(spec)}")
    print(f"computed  : {counts['done']}")
    print(f"failed    : {counts['failed']}")
    print(f"wall time : {outcome.manifest.wall_time:.2f}s "
          f"(jobs={args.jobs})")
    print(f"manifest  : {manifest_path}")
    for record in outcome.manifest.failures():
        print(f"  FAILED {record.cell_id}: "
              f"{record.error.strip().splitlines()[-1]}")
    return 0 if outcome.ok else 1


def cmd_campaign_status(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.campaign import RunManifest

    path = Path(args.dir) / "manifest.json"
    try:
        manifest = RunManifest.load(path)
    except FileNotFoundError:
        if getattr(args, "json", False):
            print(json.dumps({"error": "no_manifest",
                              "detail": str(path)}))
        else:
            print(f"no manifest at {path}")
        return 1
    counts = manifest.counts()
    if getattr(args, "json", False):
        # Machine-readable summary: what the server and CI consume
        # instead of scraping the text output.
        payload = {
            "campaign": manifest.campaign,
            "finished": manifest.finished,
            "complete": manifest.complete,
            "jobs": manifest.jobs,
            "wall_time": manifest.wall_time,
            "total": len(manifest.cells),
            "counts": counts,
        }
        if args.cells:
            payload["cells"] = [record.to_dict()
                                for record in manifest.cells]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0 if manifest.complete else 1
    state = "finished" if manifest.finished else "in progress"
    print(f"campaign  : {manifest.campaign} ({state}, "
          f"jobs={manifest.jobs})")
    print(f"cells     : {len(manifest.cells)}  "
          + "  ".join(f"{status}={n}" for status, n in counts.items()
                      if n))
    print(f"wall time : {manifest.wall_time:.2f}s")
    if args.cells:
        for record in manifest.cells:
            line = (f"  {record.status:8s} {record.cell_id:<28s} "
                    f"{record.wall_time:7.2f}s")
            if record.retries:
                line += f" retries={record.retries}"
            print(line)
    return 0 if manifest.complete else 1


def cmd_campaign_clean(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.campaign import ResultCache

    base = Path(args.dir)
    removed = ResultCache(base / "cache").clear()
    manifest = base / "manifest.json"
    had_manifest = manifest.is_file()
    if had_manifest:
        manifest.unlink()
    print(f"removed {removed} cached result(s)"
          + (" and the manifest" if had_manifest else ""))
    return 0


# ======================================================================
# Simulation-as-a-service (docs/serving.md)
# ======================================================================
def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.app import ServeConfig, run_server

    config = ServeConfig(
        root=args.dir, host=args.host, port=args.port, slots=args.jobs,
        timeout=args.timeout, retries=args.retries,
        max_queued_cells=args.max_queued,
        max_running_cells=args.max_running,
        max_active_jobs=args.max_jobs)
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _serve_url(args: argparse.Namespace) -> str:
    from repro.serve.client import discover_url

    if args.url:
        return args.url
    return discover_url(args.dir)


def cmd_submit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.client import ServeClient

    spec = _campaign_spec(args)
    client = ServeClient(_serve_url(args))
    accepted = client.submit(spec.to_dict(), tenant=args.tenant)
    job_id = accepted["job_id"]
    print(f"job       : {job_id} ({accepted['state']})")
    if args.no_wait:
        print(f"fetch with: repro-sim fetch {job_id}")
        return 0
    if args.events:
        # Following the event stream doubles as waiting: the server
        # closes it at job_finished.
        with Path(args.events).open("w") as sink:
            for event in client.events(job_id):
                sink.write(json.dumps(event, sort_keys=True,
                                      separators=(",", ":")) + "\n")
        print(f"events    : {args.events}")
    view = client.wait(job_id, timeout=args.wait_timeout)
    counts = view["counts"]
    total = counts["total"]
    print(f"cells     : {total}")
    print(f"cache hits: {counts['cached']}/{total}")
    print(f"computed  : {counts['done']}")
    print(f"failed    : {counts['failed']}")
    print(f"wall time : {view['wall_time']:.2f}s (server)")
    for cell in view.get("cells", []):
        if cell["state"] == "failed":
            error = cell["error"].strip().splitlines()
            print(f"  FAILED {cell['cell_id']}: "
                  f"{error[-1] if error else ''}")
    return 0 if view["state"] == "done" else 1


def cmd_fetch(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.client import ServeClient

    client = ServeClient(_serve_url(args))
    if args.cell:
        payload = client.fetch_cell(args.target)
    else:
        payload = client.results(args.target)
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _explore_config(args: argparse.Namespace) -> SystemConfig:
    return SystemConfig(
        scheme="scue", data_capacity=args.capacity,
        tree_levels=args.tree_levels, tree_arity=args.tree_arity,
        metadata_cache_size=args.metadata_cache, check_data=True)


def _explore_print(result, base, sarif_path) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.explorer import exploration_sarif, text_matrix

    counts = result.campaign.manifest.counts()
    total = len(result.campaign.manifest.cells)
    print(f"explore directory: {base}")
    print(f"shards    : {total}")
    print(f"cache hits: {counts['cached']}/{total}")
    print(f"computed  : {counts['done']}")
    print(f"failed    : {counts['failed']}")
    print(text_matrix(result))
    if sarif_path:
        Path(sarif_path).write_text(
            _json.dumps(exploration_sarif(result), indent=2) + "\n")
        print(f"sarif     : {sarif_path}")
    for record in result.campaign.manifest.failures():
        print(f"  FAILED {record.cell_id}: "
              f"{record.error.strip().splitlines()[-1]}")
    return 0 if result.ok else 1


def cmd_explore_run(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.explorer import exploration_cache, run_exploration
    from repro.campaign import ProgressReporter

    base = Path(args.dir or Path(".repro-explore") / args.workload)
    base.mkdir(parents=True, exist_ok=True)
    config = _explore_config(args)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    params = {
        "workload": args.workload, "operations": args.operations,
        "seed": args.seed, "schemes": schemes,
        "shard_units": args.shard_units, "max_lag": args.max_lag,
        "config": config.to_dict(),
    }
    (base / "exploration.json").write_text(
        _json.dumps(params, indent=2, sort_keys=True) + "\n")
    result = run_exploration(
        config, args.workload, args.operations, seed=args.seed,
        schemes=schemes, shard_units=args.shard_units,
        max_lag=args.max_lag, jobs=args.jobs,
        cache=exploration_cache(base / "cache"),
        manifest_path=base / "manifest.json",
        progress=ProgressReporter())
    return _explore_print(result, base, args.sarif)


def cmd_explore_report(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.explorer import exploration_cache, run_exploration

    base = Path(args.dir)
    try:
        params = _json.loads((base / "exploration.json").read_text())
    except FileNotFoundError:
        print(f"no exploration.json in {base}; run "
              f"'repro-sim explore run --dir {base}' first")
        return 1
    config = SystemConfig.from_dict(params["config"])
    result = run_exploration(
        config, params["workload"], params["operations"],
        seed=params["seed"], schemes=params["schemes"],
        shard_units=params["shard_units"], max_lag=params["max_lag"],
        jobs=1, cache=exploration_cache(base / "cache"),
        manifest_path=base / "manifest.json")
    return _explore_print(result, base, args.sarif)


# ======================================================================
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="SCUE secure-NVM simulator (HPCA'23 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list schemes and workloads") \
        .set_defaults(func=cmd_info)

    p = sub.add_parser("run", help="run one workload on one scheme")
    _add_system_args(p)
    _add_workload_args(p)
    p.add_argument("--json", help="also write the RunResult as JSON "
                                  "(feeds 'stats diff')")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "trace",
        help="run one workload with event tracing; write a Chrome-trace/"
             "Perfetto JSON (docs/observability.md)")
    _add_system_args(p)
    _add_workload_args(p)
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace output path (default trace.json)")
    p.add_argument("--ring", type=int, default=None,
                   help="keep only the most recent N events "
                        "(default: unbounded)")
    p.add_argument("--result-json",
                   help="also write the RunResult as JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats",
                       help="work with saved RunResult JSON files")
    ssub = p.add_subparsers(dest="stats_command", required=True)
    pd = ssub.add_parser(
        "diff", help="compare two RunResult JSONs (from 'run --json' or "
                     "'trace --result-json')")
    pd.add_argument("a", help="baseline result JSON")
    pd.add_argument("b", help="candidate result JSON")
    pd.set_defaults(func=cmd_stats_diff)

    p = sub.add_parser("compare", help="run every scheme on one workload")
    _add_system_args(p, with_scheme=False)
    _add_workload_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("crash", help="crash mid-run and attempt recovery")
    _add_system_args(p)
    _add_workload_args(p)
    p.add_argument("--crash-after", type=int, default=200,
                   help="accesses before the power failure")
    p.set_defaults(func=cmd_crash)

    p = sub.add_parser("record", help="record a workload trace to a file")
    _add_workload_args(p)
    p.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--compress", action="store_true")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="run a recorded trace file")
    p.add_argument("trace")
    _add_system_args(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("figures",
                       help="regenerate one of the paper's figures")
    p.add_argument("figure", choices=("fig5", "fig9", "fig10", "fig11",
                                      "fig12", "fig13", "table1",
                                      "sec5e", "sec5f"))
    p.add_argument("--scale", default="quick",
                   choices=("quick", "default", "paper"))
    p.add_argument("--json", help="also write the result as JSON")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for the matrix/sweep figures "
                        "(fig9-12, sec5e); others always run serially")
    p.add_argument("--campaign-dir",
                   help="cache + manifest directory: completed cells "
                        "are reused across invocations")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "campaign",
        help="parallel, resumable experiment campaigns (docs/benchmarks.md)")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    pr = csub.add_parser("run", help="run (or resume) a cell grid")
    pr.add_argument("--grid", default="matrix",
                    choices=("matrix", "hash-sweep"),
                    help="matrix = workloads x schemes (Figs 9/10); "
                         "hash-sweep = SCUE x hash latencies (Figs 11/12)")
    pr.add_argument("--scale", default="quick",
                    choices=("quick", "default", "paper"))
    pr.add_argument("--workloads",
                    help="comma-separated subset (default: paper set)")
    pr.add_argument("--schemes",
                    help="comma-separated subset (matrix grid only)")
    pr.add_argument("--seed", type=int, default=42)
    pr.add_argument("-j", "--jobs", type=int, default=1)
    pr.add_argument("--timeout", type=float, default=None,
                    help="per-cell seconds before a worker is killed")
    pr.add_argument("--retries", type=int, default=None,
                    help="attempts after a failure (default: 0 serial, "
                         "2 parallel)")
    pr.add_argument("--dir", default=None,
                    help="campaign directory (cache + manifest); "
                         "default .repro-campaign/<grid>-<scale>")
    pr.set_defaults(func=cmd_campaign_run)

    ps = csub.add_parser("status", help="inspect a campaign manifest")
    ps.add_argument("dir", help="campaign directory")
    ps.add_argument("--cells", action="store_true",
                    help="list every cell, not just the summary")
    ps.add_argument("--json", action="store_true",
                    help="machine-readable summary (total/done/cached/"
                         "failed cells) instead of the text table")
    ps.set_defaults(func=cmd_campaign_status)

    pc = csub.add_parser("clean",
                         help="drop a campaign's cache and manifest")
    pc.add_argument("dir", help="campaign directory")
    pc.set_defaults(func=cmd_campaign_clean)

    p = sub.add_parser(
        "report",
        help="write a deterministic figure/stats bundle from a "
             "campaign directory (docs/figures.md)")
    p.add_argument("dir", help="campaign directory (cache + manifest)")
    p.add_argument("--out", default=None,
                   help="bundle output directory (default <dir>/report)")
    p.add_argument("--seed", type=int, default=42,
                   help="stats RNG seed (bootstrap + permutation)")
    p.add_argument("--resamples", type=int, default=2000,
                   help="bootstrap/permutation resamples (default 2000)")
    p.add_argument("--recovery", action="store_true",
                   help="also run the Fig 13 recovery sweep "
                        "(direct simulation, not cached)")
    p.add_argument("--recovery-sizes",
                   default="262144,524288,1048576",
                   help="comma-separated metadata cache sizes in bytes "
                        "for --recovery")
    p.add_argument("--crash-window", action="store_true",
                   help="also run the Fig 5 crash-window trials "
                        "(direct simulation, not cached)")
    p.add_argument("--no-overheads", action="store_true",
                   help="skip the static Sec V-F space-overheads figure")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the campaign service: an async HTTP API over the "
             "shared result store (docs/serving.md)")
    p.add_argument("--dir", default=".repro-serve",
                   help="store directory (shared with batch campaigns; "
                        "default .repro-serve)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port (0 picks a free one; the bound "
                        "port is written to <dir>/server.json)")
    p.add_argument("-j", "--jobs", type=int, default=2,
                   help="concurrent worker slots (default 2)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell seconds before a worker is killed")
    p.add_argument("--retries", type=int, default=None,
                   help="attempts after a failure (default 2, the "
                        "parallel-campaign default)")
    p.add_argument("--max-queued", type=int, default=1024,
                   help="per-tenant queued-cell quota (0 = unlimited)")
    p.add_argument("--max-running", type=int, default=4,
                   help="per-tenant running-cell quota (0 = unlimited)")
    p.add_argument("--max-jobs", type=int, default=16,
                   help="per-tenant active-job quota (0 = unlimited)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a campaign grid to a running server and wait")
    p.add_argument("--grid", default="matrix",
                   choices=("matrix", "hash-sweep"))
    p.add_argument("--scale", default="quick",
                   choices=("quick", "default", "paper"))
    p.add_argument("--workloads",
                   help="comma-separated subset (default: paper set)")
    p.add_argument("--schemes",
                   help="comma-separated subset (matrix grid only)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--url", default=None,
                   help="server base URL (default: discover from "
                        "<dir>/server.json)")
    p.add_argument("--dir", default=".repro-serve",
                   help="server store directory, for URL discovery")
    p.add_argument("--tenant", default="default")
    p.add_argument("--no-wait", action="store_true",
                   help="return after submission (poll with 'fetch')")
    p.add_argument("--wait-timeout", type=float, default=600.0)
    p.add_argument("--events", default=None,
                   help="also stream the job's NDJSON events to FILE")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "fetch",
        help="fetch a job's results (or one cached cell) from a server")
    p.add_argument("target", help="job id (default) or cache key "
                                  "(--cell)")
    p.add_argument("--cell", action="store_true",
                   help="treat target as a cell cache key")
    p.add_argument("--url", default=None)
    p.add_argument("--dir", default=".repro-serve",
                   help="server store directory, for URL discovery")
    p.add_argument("--out", default=None,
                   help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser(
        "explore",
        help="exhaustive crash-state model checking "
             "(docs/crash-exploration.md)")
    esub = p.add_subparsers(dest="explore_command", required=True)

    pe = esub.add_parser("run", help="run (or resume) an exploration")
    pe.add_argument("--workload", default="array",
                    choices=sorted(ALL_WORKLOADS))
    pe.add_argument("--operations", type=int, default=6,
                    help="trace length; the state space is exponential "
                         "in persist units, keep this small")
    pe.add_argument("--seed", type=int, default=42)
    pe.add_argument("--schemes", default="scue,eager",
                    help="comma-separated rows: scue, eager, scue+asit, "
                         "or any scheme name")
    pe.add_argument("--capacity", type=int, default=64 * 1024,
                    help="data region bytes (default 64 KB: a 16-leaf, "
                         "two-branch tree)")
    pe.add_argument("--tree-levels", type=int, default=2)
    pe.add_argument("--tree-arity", type=int, default=8,
                    choices=(8, 16, 32))
    pe.add_argument("--metadata-cache", type=int, default=64 * 1024)
    pe.add_argument("--shard-units", type=int, default=8,
                    help="boundary-range width per campaign cell")
    pe.add_argument("--max-lag", type=int, default=None,
                    help="cap on in-flight older persists per cut "
                         "(depth bound; default unbounded)")
    pe.add_argument("-j", "--jobs", type=int, default=1)
    pe.add_argument("--dir", default=None,
                    help="exploration directory (cache + manifest); "
                         "default .repro-explore/<workload>")
    pe.add_argument("--sarif", default=None,
                    help="also write violations as a SARIF 2.1.0 log")
    pe.set_defaults(func=cmd_explore_run)

    ps = esub.add_parser("status",
                         help="inspect an exploration's shard manifest")
    ps.add_argument("dir", help="exploration directory")
    ps.add_argument("--cells", action="store_true",
                    help="list every shard, not just the summary")
    ps.set_defaults(func=cmd_campaign_status)

    pp = esub.add_parser(
        "report",
        help="rebuild the matrix + SARIF from cached shards")
    pp.add_argument("dir", help="exploration directory")
    pp.add_argument("--sarif", default=None,
                    help="also write violations as a SARIF 2.1.0 log")
    pp.set_defaults(func=cmd_explore_report)

    p = sub.add_parser(
        "analyze",
        help="run reprolint + the crash-consistency analysis gate")
    p.add_argument("lint_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to python -m repro.analysis "
                        "(e.g. --strict, --format json, --list-rules)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["analyze"]:
        # Forward verbatim: argparse REMAINDER refuses leading options
        # (e.g. ``analyze --strict``), so bypass the subparser.
        from repro.analysis.cli import main as analysis_main
        return analysis_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. ``repro-sim stats diff ... | head``
        return 0


if __name__ == "__main__":
    sys.exit(main())
