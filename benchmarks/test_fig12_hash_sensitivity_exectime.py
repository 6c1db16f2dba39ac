"""Fig 12 — SCUE execution time at 20/40/80/160-cycle hash latencies,
normalised to the 20-cycle configuration.

Paper: 1.14x at 160 cycles — execution time is even less sensitive than
write latency because reads and compute dilute the single write-path hash.
"""

from repro.bench.figures import fig12_hash_sweep_execution_time, HASH_SWEEP
from repro.bench.reporting import format_simple_table

from benchmarks.conftest import bench_scale, campaign_opts
from benchmarks.test_fig11_hash_sensitivity_latency import SWEEP_WORKLOADS


def test_fig12_hash_sweep_execution_time(benchmark):
    scale = bench_scale()
    fig = benchmark.pedantic(
        lambda: fig12_hash_sweep_execution_time(scale, SWEEP_WORKLOADS,
                                                **campaign_opts()),
        rounds=1, iterations=1)
    rows = [[lat] + [f"{fig.table[lat][w]:.3f}" for w in SWEEP_WORKLOADS]
            + [f"{fig.average(lat):.3f}"]
            for lat in HASH_SWEEP]
    print()
    print(format_simple_table(
        "Fig 12: SCUE execution time vs hash latency (vs 20-cycle)",
        ["cycles", *SWEEP_WORKLOADS, "geomean"], rows))
    print(f"paper average at 160 cycles: {fig.paper_average_160:.2f}x")
    averages = [fig.average(lat) for lat in HASH_SWEEP]
    assert averages[0] == 1.0
    assert all(b >= a - 1e-6 for a, b in zip(averages, averages[1:]))
    assert averages[-1] < 1.35, \
        "execution time barely moves (paper: 1.14x at 160 cycles)"
