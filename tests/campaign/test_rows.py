"""One pass per row: a serial campaign's cells that share a trace build
it once, and the first of them the epoch engine runs records the CPU
caches' outcomes for the later ones to replay.  Every cell must still
equal the same cell computed alone, digest for digest."""

from itertools import islice

import pytest

from repro.bench.harness import BenchScale
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.executor import execute_cell
from repro.campaign.spec import CellSpec
from repro.mem.hierarchy import HierarchyConfig
from repro.perf.harness import result_digest
from repro.sim import epoch

#: bmt-eager has no transcribed tail, so the second cell records.
ROW_SCHEMES = ("bmt-eager", "baseline", "plp", "lazy", "bmf-ideal",
               "scue", "eager")


@pytest.fixture()
def modes(monkeypatch):
    """The cache-pass mode of every epoch engine built, in order."""
    seen: list[str] = []

    class Spy(epoch.EpochEngine):
        def __init__(self, system, record=None, replay=None):
            seen.append("record" if record is not None
                        else "replay" if replay is not None else "live")
            super().__init__(system, record=record, replay=replay)

    monkeypatch.setattr(epoch, "EpochEngine", Spy)
    return seen


def assert_cells_equal_alone(spec, outcome, skip=()):
    for index, cell in enumerate(spec.cells):
        if index in skip:
            continue
        assert result_digest(outcome.results[index]) == \
            result_digest(execute_cell(cell)), cell.cell_id


class TestRows:
    def test_lbm_row_replays_every_eligible_cell_after_the_first(
            self, modes):
        spec = CampaignSpec.matrix(BenchScale.quick(), ["lbm"], ROW_SCHEMES)
        outcome = run_campaign(spec, jobs=1)
        assert modes == ["record"] + ["replay"] * 5
        # The replayed pass carries dirty LLC writebacks, not just misses.
        assert all(result.stats["system.cpu_caches.l3.writebacks"] > 0
                   for result in outcome.results.values())
        assert_cells_equal_alone(spec, outcome)

    def test_btree_row(self, modes):
        spec = CampaignSpec.matrix(BenchScale.quick(), ["btree"],
                                   ("baseline", "scue", "eager"))
        outcome = run_campaign(spec, jobs=1)
        assert modes == ["record", "replay", "replay"]
        assert_cells_equal_alone(spec, outcome)

    def test_hash_sweep_row(self, modes):
        spec = CampaignSpec.hash_sweep(BenchScale.quick(), ["mcf"])
        outcome = run_campaign(spec, jobs=1)
        assert modes == ["record", "replay", "replay", "replay"]
        assert_cells_equal_alone(spec, outcome)

    def test_a_new_hierarchy_or_warmup_records_again(self, modes):
        scale = BenchScale.quick()
        base = CampaignSpec.matrix(scale, ["lbm"], ["scue"]).cells[0]
        other_caches = base.config.with_(hierarchy=HierarchyConfig(
            l1_size=8 * 1024, l2_size=32 * 1024, l3_size=128 * 1024))
        cells = (
            base,
            CellSpec(base.workload, other_caches, base.operations,
                     base.warmup_accesses, base.seed, group="caches"),
            CellSpec(base.workload, other_caches, base.operations,
                     base.warmup_accesses + 300, base.seed, group="warmup"),
            CellSpec(base.workload, other_caches.with_(scheme="plp"),
                     base.operations, base.warmup_accesses + 300,
                     base.seed, group="warmup"),
        )
        spec = CampaignSpec("rows", cells)
        outcome = run_campaign(spec, jobs=1)
        assert modes == ["record", "record", "record", "replay"]
        assert_cells_equal_alone(spec, outcome)

    def test_a_new_trace_starts_a_new_row(self, modes):
        spec = CampaignSpec.matrix(BenchScale.quick(), ["lbm", "mcf"],
                                   ("baseline", "scue"))
        outcome = run_campaign(spec, jobs=1)
        assert modes == ["record", "replay"] * 2
        assert_cells_equal_alone(spec, outcome)

    def test_a_cell_alone_records_nothing(self, modes):
        cell = CampaignSpec.matrix(BenchScale.quick(), ["lbm"],
                                   ["scue"]).cells[0]
        execute_cell(cell)
        assert modes == ["live", "live"]   # warm-up, then measured


class TestFailedCells:
    @pytest.fixture()
    def fail_once(self, monkeypatch, modes):
        """The first engine run executes 50 rows, then raises."""
        failed: list[bool] = []
        spy = epoch.EpochEngine

        class FailOnce(spy):
            def run(self, trace):
                if failed:
                    return super().run(trace)
                failed.append(True)
                super().run(islice(trace, 50))
                raise RuntimeError("injected engine failure")

        monkeypatch.setattr(epoch, "EpochEngine", FailOnce)
        return modes

    def test_a_raising_cell_leaves_no_record(self, fail_once):
        spec = CampaignSpec.matrix(BenchScale.quick(), ["lbm"],
                                   ("baseline", "plp", "scue"))
        outcome = run_campaign(spec, jobs=1)
        assert outcome.manifest.counts()["failed"] == 1
        assert 0 not in outcome.results
        assert fail_once == ["record", "record", "replay"]
        assert_cells_equal_alone(spec, outcome, skip={0})

    def test_a_retried_cell_records_afresh(self, fail_once):
        spec = CampaignSpec.matrix(BenchScale.quick(), ["lbm"],
                                   ("baseline", "plp", "scue"))
        outcome = run_campaign(spec, jobs=1, retries=1, backoff=0.0)
        assert outcome.ok
        assert outcome.manifest.cells[0].retries == 1
        assert fail_once == ["record", "record", "replay", "replay"]
        assert_cells_equal_alone(spec, outcome)
