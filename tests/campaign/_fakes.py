"""Module-level test doubles for the campaign executor.

Worker processes call the cell function directly, so the fakes must live
in an importable module (not a test body).  Functions that need to talk
back to the test do it through the filesystem: ``REPRO_TEST_DIR`` names
a scratch directory (the test sets it; forked workers inherit it) and
each fake leaves marker files keyed by cell id.
"""

from __future__ import annotations

import os
import time

from repro.campaign.manifest import CellRecord
from repro.campaign.progress import NullReporter
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.sim.config import SystemConfig
from repro.sim.results import RunResult


class TinyScale:
    """A ``ScaleLike`` small enough for real simulated cells in tests."""

    warmup_accesses = 0

    def __init__(self, data_capacity: int = 1024 * 1024,
                 operations: int = 30) -> None:
        self.data_capacity = data_capacity
        self.operations = operations

    def config(self, scheme: str = "scue", **overrides) -> SystemConfig:
        base = dict(scheme=scheme, data_capacity=self.data_capacity,
                    metadata_cache_size=4096)
        base.update(overrides)
        return SystemConfig(**base)

    def operations_for(self, workload: str) -> int:
        return self.operations


def make_result(cell: CellSpec | None = None, **overrides) -> RunResult:
    """A structurally valid RunResult, tagged with the cell's identity."""
    base = dict(workload=cell.workload if cell else "array",
                scheme=cell.config.scheme if cell else "scue",
                cycles=1000, instructions=500, loads=100, stores=50,
                persists=25, load_stall_cycles=200,
                persist_stall_cycles=100, avg_write_latency=313.0,
                avg_read_latency=126.0, nvm_data_reads=40,
                nvm_data_writes=30, nvm_meta_reads=20, nvm_meta_writes=10,
                hashes=60,
                stats={"cell.group_len": float(len(cell.group))
                       if cell else 0.0})
    base.update(overrides)
    return RunResult(**base)


def fake_cells(n: int, group_prefix: str = "cell") -> tuple[CellSpec, ...]:
    """``n`` distinct cells that fake cell functions can run instantly."""
    scale = TinyScale()
    return tuple(
        CellSpec(workload="array", config=scale.config(),
                 operations=8, seed=1, group=f"{group_prefix}{i}")
        for i in range(n))


def fake_spec(n: int, name: str = "fake",
              group_prefix: str = "cell") -> CampaignSpec:
    return CampaignSpec(name, fake_cells(n, group_prefix))


class FinishedCounts(NullReporter):
    """Keeps the running count of finished cells each report carries."""

    def __init__(self) -> None:
        super().__init__()
        self.finished: list[int] = []

    def cell_finished(self, record: CellRecord, finished: int) -> None:
        self.finished.append(finished)


# ----------------------------------------------------------------------
# Cell functions
# ----------------------------------------------------------------------
def marker_path(cell: CellSpec, suffix: str) -> str:
    root = os.environ["REPRO_TEST_DIR"]
    return os.path.join(root, cell.cell_id.replace("/", "_") + suffix)


def ok_cell(cell: CellSpec) -> RunResult:
    return make_result(cell)


def tracking_cell(cell: CellSpec) -> RunResult:
    """Succeeds, appending one line per invocation to a marker file."""
    with open(marker_path(cell, ".ran"), "a") as handle:
        handle.write("x\n")
    return make_result(cell)


def invocations(cell: CellSpec) -> int:
    try:
        with open(marker_path(cell, ".ran")) as handle:
            return len(handle.readlines())
    except FileNotFoundError:
        return 0


def raising_cell(cell: CellSpec) -> RunResult:
    raise RuntimeError(f"boom in {cell.cell_id}")


def sleeping_cell(cell: CellSpec) -> RunResult:
    time.sleep(60.0)
    return make_result(cell)


def pid_sleeping_cell(cell: CellSpec) -> RunResult:
    """Leaves the worker's pid in a ``.pid`` marker file, then sleeps
    like :func:`sleeping_cell`."""
    marker = marker_path(cell, ".pid")
    with open(marker + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(marker + ".tmp", marker)
    return sleeping_cell(cell)


def poison_sleeping_cell(cell: CellSpec) -> RunResult:
    """``poison*`` cells raise at once; every other cell sleeps like
    :func:`sleeping_cell`."""
    if cell.group.startswith("poison"):
        raise RuntimeError(f"poisoned cell {cell.cell_id}")
    return sleeping_cell(cell)


def dying_once_cell(cell: CellSpec) -> RunResult:
    """Hard process death (no exception, no message) on the first
    attempt; clean success afterwards — a transient worker death."""
    marker = marker_path(cell, ".died")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(3)
    return make_result(cell)


def second_try_cell(cell: CellSpec) -> RunResult:
    """Raises on the first attempt, succeeds on the second."""
    marker = marker_path(cell, ".failed")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient failure")
    return make_result(cell)


def poison_cell(cell: CellSpec) -> RunResult:
    """Tracks invocations; ``poison*`` cells fail until the test drops an
    ``antidote`` file into ``REPRO_TEST_DIR``."""
    with open(marker_path(cell, ".ran"), "a") as handle:
        handle.write("x\n")
    antidote = os.path.join(os.environ["REPRO_TEST_DIR"], "antidote")
    if cell.group.startswith("poison") and not os.path.exists(antidote):
        raise RuntimeError(f"poisoned cell {cell.cell_id}")
    return make_result(cell)


def slow_after_first(cell: CellSpec) -> RunResult:
    """Cell 0 completes instantly; every later cell sleeps long enough
    for the kill-resume test to SIGKILL the campaign mid-flight."""
    if not cell.group.endswith("0"):
        time.sleep(30.0)
    return make_result(cell)


def pair_cell(cell: CellSpec) -> RunResult:
    """Leaves a ``.started`` marker, then waits up to 10 s until a second
    cell has left one too, so two cells hold a slot at the same time."""
    marker = marker_path(cell, ".started")
    with open(marker + ".tmp", "w"):
        pass
    os.replace(marker + ".tmp", marker)
    root = os.environ["REPRO_TEST_DIR"]
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if sum(name.endswith(".started") for name in os.listdir(root)) >= 2:
            break
        time.sleep(0.01)
    return make_result(cell)
