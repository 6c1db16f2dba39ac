"""Checks of the benchmark's own instruments.

    python -m pytest perfbench -q

The slowed-layer test is what makes the per-layer split trustworthy: a
fixed busy-wait inside one layer's wrapper must show up in that layer's
self time and in no other layer's.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import units  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_NAMES,
    Tracer,
    calibrate,
    corrected_self_s,
)

SLOWED = "mem.wpq"
DELAY_S = 20e-6


def _split(cell, calibration, slow=None):
    tracer = Tracer(slow=slow)
    record = units.run_cell(cell, "inner", tracer)
    assert record.mismatches == []
    snapshot = tracer.snapshot()
    return corrected_self_s(snapshot, calibration), snapshot[SLOWED][1]


def test_slowed_layer_lands_in_that_layer_alone():
    cell = next(c for c in units.fig_cells("serve", 42)
                if c.cell_id == "hash/scue")
    calibration = calibrate()
    base = [_split(cell, calibration)[0] for _ in range(5)]
    slowed = [_split(cell, calibration, (SLOWED, DELAY_S))
              for _ in range(3)]
    added = slowed[0][1] * DELAY_S
    for layer in LAYER_NAMES:
        samples = [split[layer] for split in base]
        noise = max(samples) - min(samples)
        moved = statistics.median(split[layer] for split, _ in slowed) \
            - statistics.median(samples)
        expected = added if layer == SLOWED else 0.0
        assert abs(moved - expected) <= 2 * noise + 0.05 * added, \
            (layer, moved, expected, noise)


def test_modes_agree_and_spans_reconcile():
    for cell in units.fig_cells("serve-probe", 42):
        records = [units.run_cell(cell, mode,
                                  Tracer() if mode == "inner" else None)
                   for mode in ("user", "auto", "scalar", "inner")]
        assert len({r.digest for r in records}) == 1, cell.cell_id
        assert records[-1].mismatches == []
    for trial in units.crash_trials(42, probe=True):
        records = [units.run_trial(trial, mode,
                                   Tracer() if mode == "inner" else None)
                   for mode in ("user", "auto", "scalar", "inner")]
        assert all(r.ok for r in records), [r.detail for r in records]
        assert len({r.digest for r in records}) == 1, trial.unit_id
        assert records[-1].mismatches == []


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_checkout_without_the_program_fails_fast(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig-persist",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
