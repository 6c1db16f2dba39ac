"""Fig 11 — SCUE write latency at 20/40/80/160-cycle hash latencies,
normalised to the 20-cycle configuration.

Paper: raising the latency 20 -> 160 cycles costs on average 1.20x
(up to 1.36x) write latency — small, because SCUE's write path contains
exactly one hash.
"""

import os

from repro.bench.figures import fig11_hash_sweep_write_latency, HASH_SWEEP
from repro.bench.reporting import format_simple_table

from benchmarks.conftest import bench_scale, campaign_opts

#: The sweep is 4x the matrix cost; trim workloads below the full set.
SWEEP_WORKLOADS = ("array", "hash", "queue", "rbtree", "mcf", "lbm",
                   "gcc", "bwaves")


def test_fig11_hash_sweep_write_latency(benchmark):
    scale = bench_scale()
    fig = benchmark.pedantic(
        lambda: fig11_hash_sweep_write_latency(scale, SWEEP_WORKLOADS,
                                               **campaign_opts()),
        rounds=1, iterations=1)
    rows = [[lat] + [f"{fig.table[lat][w]:.3f}" for w in SWEEP_WORKLOADS]
            + [f"{fig.average(lat):.3f}"]
            for lat in HASH_SWEEP]
    print()
    print(format_simple_table(
        "Fig 11: SCUE write latency vs hash latency (vs 20-cycle)",
        ["cycles", *SWEEP_WORKLOADS, "geomean"], rows))
    print(f"paper average at 160 cycles: {fig.paper_average_160:.2f}x")
    # Monotone growth, modest slope.
    averages = [fig.average(lat) for lat in HASH_SWEEP]
    assert averages[0] == 1.0
    assert all(b >= a - 1e-6 for a, b in zip(averages, averages[1:]))
    assert 1.0 < averages[-1] < 1.6, \
        "one hash on the path => mild sensitivity (paper: 1.20x)"
