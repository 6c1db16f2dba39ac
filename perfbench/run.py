"""The benchmark: every end-to-end and per-layer metric from one command.

    python3 perfbench/run.py --workload fig-persist --seed 42 \\
        --seconds 20 --trace 0

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``.  Workloads, metrics and their meaning are in
``perfbench/README.md``.

``--trace 0`` times whole runs with nothing attached: each timed run is
a fresh interpreter (``child.py``), repeated while another fits in
``--seconds``; the last stdout line holds the end-to-end metrics.
``--trace 1`` is the separate traced run that splits host time by
layer; its last line holds the per-layer metrics, and the whole trace
(calibration with every pass pair's scale, per-site and per-scheme
split, the engine every cell ran on, outer spans) is written to
``.perfbench/trace-<workload>-<seed>.json``.

Both modes check outputs: sha256 digests of every cell, trial and
served result (pinned in ``pins.json`` for seed 42 and printed in full
for any other seed), the paper's crash verdicts, and in the traced run
the digests of each pass and the span counts against the simulator's
own counters.  Every miss counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_NAMES, corrected_self_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
PINS = HERE / "pins.json"
PIN_SEED = 42

WORKLOADS = ("fig-persist", "fig-spec", "crash-recover", "serve")
SCHEMES = ("baseline", "plp", "lazy", "bmf-ideal", "scue", "eager")
CRASH_VARIANTS = ("scue", "scue-star", "scue-agit", "plp", "bmf-ideal",
                  "eager", "lazy")
#: Set-ups measured per run, at least: each timed run sets up once and
#: set-up-only launches make up the rest.
MIN_SETUPS = 9
#: Warm resubmits per serve run; the traced run and the serve probe
#: only need the medians of the round trip's parts.
SERVE_TRIPS, TRACE_TRIPS, PROBE_TRIPS = 300, 200, 40
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
PER_LAYER = (
    (("workloads.trace_s", "s"), ("sim.run_s", "s"))
    + tuple((f"sim.run_s.{s}", "s") for s in SCHEMES)
    + tuple((f"epoch.speedup.{s}", "x") for s in SCHEMES)
    + (("epoch.planned_row_ratio", "ratio"),
       ("epoch.fallback_cells", "count"))
    + tuple(pair for layer in LAYER_NAMES
            for pair in ((f"{layer}.self_s", "s"),
                         (f"{layer}.calls", "count")))
    + (("trace.overhead", "x"), ("sim.cycles", "count"),
       ("crypto.hashes", "count"), ("secure.meta_reads", "count"),
       ("secure.meta_writes", "count"),
       ("secure.meta_cache.hit_ratio", "ratio"),
       ("mem.cpu_caches.l3_miss_ratio", "ratio"),
       ("mem.wpq.stall_cycles", "count"), ("crash.crash_s", "s"))
    + tuple((f"crash.recover_s.{v}", "s") for v in CRASH_VARIANTS)
    + (("crash.attack_s", "s"), ("crash.recovery.self_s", "s"),
       ("crash.recovery.calls", "count"),
       ("crash.metadata_reads", "count"),
       ("crash.recover_reads_per_s", "1/s"), ("serve.cold_rt_s", "s"),
       ("serve.warm_rt_ms_p50", "ms"), ("serve.warm_rt_ms_p95", "ms"),
       ("serve.submit_ms", "ms"), ("serve.events_ms", "ms"),
       ("serve.results_ms", "ms"), ("campaign.cell_s", "s"),
       ("serve.cold_overhead_s", "s"),
       ("serve.hot_cache_hit_ratio", "ratio"),
       ("serve.cells_computed", "count"),
       ("campaign.store.get_raw_us", "us")))

#: Units the traced run's passes go over, per workload.
PASS_UNITS = {"fig-persist": "fig-persist", "fig-spec": "fig-spec",
              "crash-recover": "crash", "serve": "serve"}
#: Scalar/inner pass pairs per set of units in a traced run.  The
#: wrapper cost is scaled to one pair's pass difference, and host noise
#: between two interpreters moves that difference; the pair with the
#: median scale is the one reported.
PAIRS = 3


class BenchError(RuntimeError):
    """A child process failed or ran out of the run's time budget."""


class Runner:
    """Starts children in fresh interpreters within one run's budget."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = OUT / f"tmp-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), self.env.get("PYTHONPATH"))))

    def spawn(self, task: dict) -> dict:
        task = dict(task, workdir=str(self.workdir),
                    launched=time.monotonic())
        # A session of its own, so a timeout also reaches a child's
        # server and that server's workers.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(task)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{task['task']} ran out of the "
                             f"{RUN_BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{task['task']} failed (exit "
                             f"{proc.returncode}):\n{err[-3000:]}")
        return json.loads(out.splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Checks:
    """Attempted and failed operations, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def digests(self, label: str, got: dict[str, str],
                expected: dict[str, str]) -> None:
        """One attempted operation per expected unit; a missing or
        different digest fails it."""
        for unit, digest in expected.items():
            self.attempted += 1
            if got.get(unit) != digest:
                self.failed.append(f"{label} {unit}: digest "
                                   f"{got.get(unit, 'missing')[:12]} != "
                                   f"{digest[:12]}")

    def outcome(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failed.extend(str(f) for f in failures)


def _pins(workload: str, seed: int) -> dict[str, str] | None:
    if seed != PIN_SEED or not PINS.exists():
        return None
    return json.loads(PINS.read_text()).get(workload)


def _print_digests(label: str, digests: dict[str, str]) -> None:
    for unit, digest in sorted(digests.items()):
        print(f"digest {label} {unit} {digest}")


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def untraced(runner: Runner, workload: str, seed: int, seconds: int,
             checks: Checks) -> dict[str, float]:
    task = {"task": "body", "workload": workload, "seed": seed,
            "trips": SERVE_TRIPS}
    bodies = []
    started = time.monotonic()
    while True:
        bodies.append(runner.spawn(task))
        elapsed = time.monotonic() - started
        if elapsed * (len(bodies) + 1) / len(bodies) > seconds:
            break
    setups = [body["setup_s"] for body in bodies]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn({"task": "setup", "workload": workload,
                                    "seed": seed})["setup_s"])

    # Served results must equal the grid computed in-process; the other
    # workloads' timed runs must reproduce their first run.
    fresh = runner.spawn({"task": "local", "grid": "serve",
                          "seed": seed})["digests"] \
        if workload == "serve" else bodies[0]["digests"]
    pinned = _pins(workload, seed)
    if pinned is None:
        _print_digests(workload, fresh)
    elif workload == "serve":
        checks.digests("local", fresh, pinned)
    for index, body in enumerate(bodies):
        label = f"run {index}"
        checks.digests(label, body["digests"], pinned or fresh)
        checks.outcome(body.get("trips", 0),
                       [f"{label} {f}" for f in body["failures"]])

    ops = sum(body["ops"] for body in bodies)
    print(f"{workload}: {len(bodies)} timed runs, each in a fresh "
          f"interpreter; {ops} operations; {len(setups)} set-ups")
    print("timed runs (s):", " ".join(f"{body['wall_s']:.4f}"
                                      for body in bodies))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(body["wall_s"] for body in bodies),
        "ops_per_s": statistics.median(body["ops"] / body["ops_s"]
                                       for body in bodies),
        "peak_rss_mib": statistics.median(body["rss_mib"]
                                          for body in bodies),
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def _sum(records, key: str, where=lambda r: True) -> float:
    return sum(r["times"].get(key, 0.0) for r in records if where(r))


def _check_passes(label: str, passes: list[tuple[str, dict]],
                  checks: Checks,
                  pinned: dict[str, str] | None) -> dict[str, str]:
    """Digests equal across passes (and to the pins); crash verdicts
    hold; span counts reconcile.  Returns the first pass's digests."""
    digests = {r["unit"]: r["digest"] for r in passes[0][1]["records"]}
    if pinned is not None:
        checks.digests(f"{label} pinned", digests, pinned)
    for name, result in passes:
        records = result["records"]
        checks.digests(f"{label} {name}",
                       {r["unit"]: r["digest"] for r in records}, digests)
        checks.outcome(0, [f"{label} {name} {r['unit']}: {r['detail']}"
                           for r in records if not r["ok"]])
        mismatches = [m for r in records for m in r["mismatches"]]
        checks.outcome(len(records) if "layers" in result else 0,
                       [f"{label} reconcile {m}" for m in mismatches])
    return digests


def _passes(runner: Runner, units: str, seed: int, checks: Checks,
            pinned: dict[str, str] | None) -> tuple[dict, dict[str, str]]:
    """The ``auto`` pass and :data:`PAIRS` alternating ``scalar``/``inner``
    pairs over one set of units, all checked.  Returns the ``auto`` pass
    and the pair whose wrapper-cost scale is the median, with every
    pair's scale, and the units' digests."""
    def spawn(mode: str) -> dict:
        return runner.spawn({"task": "pass", "units": units, "seed": seed,
                             "mode": mode})
    auto = spawn("auto")
    pairs = [(spawn("scalar"), spawn("inner")) for _ in range(PAIRS)]
    digests = _check_passes(
        units, [("auto", auto)] + [
            (f"{mode} {i}", result) for i, pair in enumerate(pairs)
            for mode, result in zip(("scalar", "inner"), pair)],
        checks, pinned)
    scales = [_calibration(inner, scalar)["scale"]
              for scalar, inner in pairs]
    scalar, inner = pairs[scales.index(statistics.median_low(scales))]
    return {"auto": auto, "scalar": scalar, "inner": inner,
            "scales": scales}, digests


def _calibration(inner: dict, scalar: dict) -> dict[str, float]:
    """Per-span wrapper cost, scaled to what the wrappers really cost.

    The probe loop in ``tracer.calibrate`` gives the split between the
    cost inside and outside a span's interval, but runs hotter than the
    simulator's calls do.  The ``inner`` and ``scalar`` passes do the
    same work with and without wrappers, so their difference is the
    wrappers' whole cost; both parts are scaled to add up to it.
    """
    probe = inner["calibration"]
    overhead_ns = (_sum(inner["records"], "unit")
                   - _sum(scalar["records"], "unit")) * 1e9
    modelled_ns = sum(calls * probe["inner_ns"] + kids * probe["outer_ns"]
                      for _, calls, kids in inner["layers"].values())
    scale = max(0.0, overhead_ns / modelled_ns) if modelled_ns else 0.0
    return {"inner_ns": probe["inner_ns"] * scale,
            "outer_ns": probe["outer_ns"] * scale,
            "probe_inner_ns": probe["inner_ns"],
            "probe_outer_ns": probe["outer_ns"], "scale": scale}


def _layer_split(inner: dict, scalar: dict) -> tuple[dict, dict]:
    """Corrected self seconds and calls per layer, overall and per
    scheme, from one ``inner`` pass and its ``scalar`` twin."""
    calibration = _calibration(inner, scalar)
    total = {layer: tuple(row) for layer, row in inner["layers"].items()}
    per_scheme: dict[str, dict[str, list[int]]] = {}
    for record in inner["records"]:
        rows = per_scheme.setdefault(record["scheme"], {})
        for layer, row in record["layers"].items():
            acc = rows.setdefault(layer, [0, 0, 0])
            for i, value in enumerate(row):
                acc[i] += value
    by_scheme = {scheme: {layer: round(seconds, 6) for layer, seconds in
                          corrected_self_s(
                              {k: tuple(v) for k, v in rows.items()},
                              calibration).items()}
                 for scheme, rows in sorted(per_scheme.items())}
    return {"self_s": corrected_self_s(total, calibration),
            "raw_self_s": {layer: row[0] / 1e9
                           for layer, row in total.items()},
            "calls": {layer: row[1] for layer, row in total.items()},
            "calibration": calibration}, by_scheme


def _raw_notes(split: dict, layers) -> dict[str, str]:
    """What each corrected self time was before the wrapper cost came
    off, so a change of the correction reads apart from a layer's."""
    scale = split["calibration"]["scale"]
    return {f"{layer}.self_s": f"raw {split['raw_self_s'].get(layer, 0):.6f}"
                               f" s, wrapper cost x{scale:.2f}"
            for layer in layers}


def traced(runner: Runner, workload: str, seed: int,
           checks: Checks) -> tuple[dict[str, float], dict]:
    units = PASS_UNITS[workload]
    passes, sim_digests = _passes(runner, units, seed, checks,
                                  _pins(workload, seed))
    if workload == "crash-recover":
        crash = passes
    else:
        crash, _ = _passes(runner, "crash-probe", seed, checks, None)
    probe = workload != "serve"
    served = runner.spawn({"task": "serve-body", "seed": seed,
                           "trips": PROBE_TRIPS if probe else TRACE_TRIPS,
                           "probe": probe})
    local = runner.spawn({"task": "local", "grid": "serve-probe",
                          "seed": seed})["digests"] if probe \
        else sim_digests
    checks.digests("served", served["digests"], local)
    checks.outcome(served["trips"],
                   [f"served {f}" for f in served["failures"]])

    auto, scalar, inner = (passes[m]["records"]
                           for m in ("auto", "scalar", "inner"))
    split, by_scheme = _layer_split(passes["inner"], passes["scalar"])
    metrics: dict[str, float] = {
        "workloads.trace_s": _sum(auto, "workloads"),
        "sim.run_s": _sum(auto, "sim.run")}
    for scheme in SCHEMES:
        mine = lambda r, s=scheme: r["scheme"] == s  # noqa: E731
        auto_s, scalar_s = _sum(auto, "sim.run", mine), \
            _sum(scalar, "sim.run", mine)
        metrics[f"sim.run_s.{scheme}"] = auto_s
        metrics[f"epoch.speedup.{scheme}"] = scalar_s / auto_s \
            if auto_s else 0.0
    scue = [r for r in auto if r["scheme"] == "scue"]
    window = sum(r["window_rows"] for r in scue)
    metrics["epoch.planned_row_ratio"] = \
        sum(r["planned_rows"] for r in scue) / window if window else 0.0
    metrics["epoch.fallback_cells"] = sum(
        1 for r in auto if r["engine"].startswith("scalar ("))
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = split["self_s"].get(layer, 0.0)
        metrics[f"{layer}.calls"] = split["calls"].get(layer, 0)
    metrics["trace.overhead"] = _sum(inner, "unit") / _sum(scalar, "unit")
    counters: dict[str, int] = {}
    for record in auto:
        for name, value in record["counters"].items():
            counters[name] = counters.get(name, 0) + value
    mc = counters.get("mc_hits", 0) + counters.get("mc_misses", 0)
    l3 = counters.get("l3_hits", 0) + counters.get("l3_misses", 0)
    metrics.update({
        "sim.cycles": counters.get("cycles", 0),
        "crypto.hashes": counters.get("hashes", 0),
        "secure.meta_reads": counters.get("meta_reads", 0),
        "secure.meta_writes": counters.get("meta_writes", 0),
        "secure.meta_cache.hit_ratio":
            counters.get("mc_hits", 0) / mc if mc else 0.0,
        "mem.cpu_caches.l3_miss_ratio":
            counters.get("l3_misses", 0) / l3 if l3 else 0.0,
        "mem.wpq.stall_cycles": counters.get("wpq_stall", 0)})

    crash_auto = crash["auto"]["records"]
    recovery_s = _sum(crash_auto, "crash.recovery")
    reads = sum(r["metadata_reads"] for r in crash_auto)
    crash_split, _ = _layer_split(crash["inner"], crash["scalar"])
    metrics["crash.crash_s"] = _sum(crash_auto, "crash.crash")
    for variant in CRASH_VARIANTS:
        metrics[f"crash.recover_s.{variant}"] = _sum(
            crash_auto, "crash.recovery",
            lambda r, v=variant: r["unit"] == f"crash:{v}")
    metrics.update({
        "crash.attack_s": _sum(crash_auto, "crash.attack"),
        "crash.recovery.self_s": crash_split["self_s"]["crash.recovery"],
        "crash.recovery.calls": crash_split["calls"]["crash.recovery"],
        "crash.metadata_reads": reads,
        "crash.recover_reads_per_s": reads / recovery_s,
        "serve.cold_rt_s": served["cold_rt_s"],
        "serve.warm_rt_ms_p50": served["warm_rt_ms_p50"],
        "serve.warm_rt_ms_p95": served["warm_rt_ms_p95"],
        "serve.submit_ms": served["submit_ms"],
        "serve.events_ms": served["events_ms"],
        "serve.results_ms": served["results_ms"],
        "campaign.cell_s": served["cold_cell_s"],
        "serve.cold_overhead_s": served["cold_rt_s"]
        - served["cold_cell_s"],
        "serve.hot_cache_hit_ratio": served["hot_cache_hit_ratio"],
        "serve.cells_computed": served["cells_computed"],
        "campaign.store.get_raw_us": served["get_raw_us"]})

    trace = {
        "workload": workload, "seed": seed,
        "note": "inner split is of the scalar engine; self times have "
                "the calibrated per-span wrapper cost taken out",
        "calibration": split["calibration"],
        "pair_scales": {"units": passes["scales"],
                        "crash": crash["scales"]},
        "notes": {**_raw_notes(split, LAYER_NAMES),
                  **_raw_notes(crash_split, ("crash.recovery",))},
        "metrics": metrics, "per_scheme_self_s": by_scheme,
        "sites": passes["inner"]["sites"],
        "outer_spans": passes["inner"]["spans"],
        "units": [{k: r[k] for k in ("unit", "scheme", "engine", "digest",
                                     "accesses", "times", "detail")}
                  for r in auto],
        "crash_units": [{k: r[k] for k in ("unit", "engine", "digest",
                                           "metadata_reads", "times",
                                           "detail")}
                        for r in crash_auto],
        "serve": {k: v for k, v in served.items() if k != "digests"},
    }
    return metrics, trace


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing (run from the root of a full checkout)",
              file=sys.stderr)
        return 2
    checks = Checks()
    runner = Runner()
    notes: dict[str, str] = {}
    try:
        if args.trace:
            values, trace = traced(runner, args.workload, args.seed, checks)
            names, notes = PER_LAYER, trace["notes"]
            trace["failed"] = checks.failed
            path = OUT / f"trace-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps(trace, indent=1) + "\n")
            print(f"trace written to {path.relative_to(ROOT)}")
        else:
            values = untraced(runner, args.workload, args.seed,
                              args.seconds, checks)
            names = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    for problem in checks.failed:
        print(f"FAILED {problem}")
    attempted, failed = checks.attempted, len(checks.failed)
    for name, unit in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34s} {values[name]:>16.6f} {unit}{note}")
    print(f"{'fail_rate':<34s} {failed / max(1, attempted):>16.6f} "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
