"""Benchmark configuration.

``REPRO_BENCH_SCALE`` selects the experiment scale:

* ``quick``   — minutes-scale smoke numbers,
* ``default`` — the scale the committed EXPERIMENTS.md numbers use
  (the default),
* ``paper``   — largest trace-scale runs (slow).

``REPRO_BENCH_JOBS`` (default 1) shards the matrix across that many
worker processes, and ``REPRO_BENCH_CAMPAIGN_DIR`` points the campaign
engine at a result cache + manifest so an interrupted suite resumes
instead of recomputing (docs/benchmarks.md).  Without it, the session
uses one temporary campaign directory.

The Fig 9/10/§V-E experiments share one workload x scheme matrix; it is
computed once per session and cached here so the suite doesn't re-run a
multi-minute sweep three times.  Figs 11 and 12 read two metrics of one
hash sweep: Fig 12 takes Fig 11's cells from the session's result cache.
"""

from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

import pytest

from repro.bench import BenchScale
from repro.bench.harness import run_matrix

_SCALES = {
    "quick": BenchScale.quick,
    "default": BenchScale.default,
    "paper": BenchScale.paper,
}


def bench_scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    try:
        return _SCALES[name]()
    except KeyError:
        raise RuntimeError(
            f"REPRO_BENCH_SCALE={name!r}: choose from {sorted(_SCALES)}")


_MATRIX_CACHE: dict[str, object] = {}


@functools.cache
def _session_dir() -> tempfile.TemporaryDirectory:
    """The session's campaign directory, removed at interpreter exit."""
    return tempfile.TemporaryDirectory(prefix="repro-bench-")


def campaign_opts() -> dict:
    """Campaign-engine options every benchmark shares this session."""
    base = Path(os.environ.get("REPRO_BENCH_CAMPAIGN_DIR")
                or _session_dir().name)
    return {"jobs": int(os.environ.get("REPRO_BENCH_JOBS", "1")),
            "cache": base / "cache",
            "manifest_path": base / "manifest.json"}


def shared_matrix():
    """The Fig 9/10/§V-E matrix, computed once per session."""
    key = os.environ.get("REPRO_BENCH_SCALE", "default")
    if key not in _MATRIX_CACHE:
        _MATRIX_CACHE[key] = run_matrix(bench_scale(), **campaign_opts())
    return _MATRIX_CACHE[key]


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return bench_scale()
