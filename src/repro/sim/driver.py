"""The experiment driver: run one workload on one configuration.

Mirrors the paper's methodology (§V-A): each application is warmed up
before measurement (they warm 10M instructions before a 5B-instruction
region; we scale both down), statistics reset at the warm-up boundary, and
a :class:`~repro.sim.results.RunResult` comes back.

Workloads are anything that can produce a :class:`MemoryAccess` iterable —
the :mod:`repro.workloads` generators, a recorded list, or a custom
generator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import islice

from repro.mem.trace import MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult
from repro.sim.system import System

TraceSource = Iterable[MemoryAccess] | Callable[[], Iterable[MemoryAccess]]


def _as_iterator(source: TraceSource) -> Iterable[MemoryAccess]:
    if callable(source):
        return iter(source())
    return iter(source)


def run_workload(config: SystemConfig, trace: TraceSource,
                 workload_name: str = "workload",
                 warmup_accesses: int = 0,
                 max_accesses: int | None = None,
                 system: System | None = None,
                 recorder=None) -> RunResult:
    """Run ``trace`` on a freshly built (or provided) system.

    ``warmup_accesses`` records are executed first, then statistics are
    reset so caches/WPQ state carries over but measurements start clean.
    ``max_accesses`` bounds the measured region (useful for unbounded
    generators).  ``recorder`` (a :class:`repro.obs.TraceRecorder`)
    enables event tracing on the freshly built system; it is ignored
    when ``system`` is supplied (the caller already wired it in).
    """
    sim = system or System(config, recorder=recorder)
    iterator = _as_iterator(trace)
    if warmup_accesses:
        sim.run(islice(iterator, warmup_accesses))
        sim.reset_stats()
    if max_accesses is not None:
        iterator = islice(iterator, max_accesses)
    sim.run(iterator)
    return sim.result(workload_name)

