"""The experiment driver and result arithmetic."""

from repro.sim.driver import run_workload
from repro.sim.results import RunResult

from tests.conftest import persist_trace, small_config


class TestRunWorkload:
    def test_returns_named_result(self):
        result = run_workload(small_config(), persist_trace(20),
                              workload_name="unit")
        assert result.workload == "unit"
        assert result.scheme == "scue"
        assert result.cycles > 0

    def test_accepts_factory(self):
        result = run_workload(small_config(), lambda: persist_trace(20))
        assert result.persists == 20

    def test_warmup_excluded_from_measurement(self):
        with_warmup = run_workload(small_config(), persist_trace(40),
                                   warmup_accesses=20)
        assert with_warmup.persists == 20

    def test_max_accesses_bounds_run(self):
        result = run_workload(small_config(), persist_trace(100),
                              max_accesses=10)
        assert result.persists == 10

    def test_deterministic(self):
        a = run_workload(small_config(), lambda: persist_trace(50))
        b = run_workload(small_config(), lambda: persist_trace(50))
        assert a.cycles == b.cycles
        assert a.avg_write_latency == b.avg_write_latency


class TestRunResult:
    def _result(self, **overrides) -> RunResult:
        base = dict(workload="w", scheme="s", cycles=1000,
                    instructions=500, loads=10, stores=5, persists=5,
                    load_stall_cycles=100, persist_stall_cycles=50,
                    avg_write_latency=700.0, avg_read_latency=130.0,
                    nvm_data_reads=10, nvm_data_writes=10,
                    nvm_meta_reads=4, nvm_meta_writes=6, hashes=20)
        base.update(overrides)
        return RunResult(**base)

    def test_ipc(self):
        assert self._result().ipc == 0.5

    def test_access_totals(self):
        result = self._result()
        assert result.memory_accesses == 30
        assert result.metadata_accesses == 10

    def test_ratios(self):
        fast = self._result()
        slow = self._result(cycles=2000, avg_write_latency=1400.0)
        assert slow.execution_time_vs(fast) == 2.0
        assert slow.write_latency_vs(fast) == 2.0

    def test_zero_baseline_guarded(self):
        result = self._result()
        zero = self._result(cycles=0, avg_write_latency=0.0)
        assert result.write_latency_vs(zero) == 0.0
        assert result.execution_time_vs(zero) == 0.0
