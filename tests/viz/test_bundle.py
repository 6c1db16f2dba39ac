"""Campaign loading, bundle assembly, and the golden-bundle guarantee:
two renders of the same campaign are byte-identical, and every spec
passes the offline validator including the csv cross-check."""

import json

import pytest

from repro.errors import ConfigError
from repro.viz.bundle import (
    load_campaign,
    schemes_summary,
    sweep_figure,
    write_bundle,
)
from repro.viz.spec import content_hash
from repro.viz.validate import validate_file

from tests.viz.conftest import SCHEMES, SWEEP_LATENCIES, WORKLOADS


def bundle_digests(out_dir):
    return {path.name: content_hash(path.read_text())
            for path in sorted(out_dir.iterdir())}


class TestLoadCampaign:
    def test_classifies_matrix_and_sweep_cells(self, campaign_dir):
        data = load_campaign(campaign_dir)
        assert data.skipped == 0
        assert data.cells == len(WORKLOADS) * len(SCHEMES) \
            + len(SWEEP_LATENCIES)
        assert sorted(data.matrix.workloads) == sorted(WORKLOADS)
        assert data.matrix.schemes() == sorted(SCHEMES)
        assert set(data.sweep["array"]) == set(SWEEP_LATENCIES)
        assert data.has_matrix() and data.has_sec5e()
        assert data.has_sweep()
        assert "matrix 2x3" in schemes_summary(data)

    def test_corrupt_cell_degrades_to_skip(self, campaign_dir,
                                           tmp_path):
        import shutil
        copy = tmp_path / "camp"
        shutil.copytree(campaign_dir, copy)
        victim = next(iter(sorted(
            (copy / "cache" / "objects").glob("*/*.json"))))
        victim.write_text("{torn write")
        data = load_campaign(copy)
        assert data.skipped == 1
        assert data.cells == len(WORKLOADS) * len(SCHEMES) \
            + len(SWEEP_LATENCIES) - 1

    def test_missing_cache_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no cache/objects"):
            load_campaign(tmp_path)

    def test_sweep_figure_normalizes_to_lowest_latency(self,
                                                       campaign_dir):
        data = load_campaign(campaign_dir)
        sweep = sweep_figure(data, "write_latency")
        base = min(SWEEP_LATENCIES)
        assert sweep.table[base]["array"] == pytest.approx(1.0)
        assert sweep.table[max(SWEEP_LATENCIES)]["array"] > 1.0


class TestGoldenBundle:
    def test_two_runs_are_byte_identical(self, campaign_dir, tmp_path):
        first = write_bundle(campaign_dir, tmp_path / "a", resamples=50)
        second = write_bundle(campaign_dir, tmp_path / "b",
                              resamples=50)
        assert first.files == second.files
        assert bundle_digests(tmp_path / "a") == \
            bundle_digests(tmp_path / "b")

    def test_every_spec_validates_with_its_csv(self, campaign_dir,
                                               tmp_path):
        write_bundle(campaign_dir, tmp_path / "out", resamples=50)
        specs = sorted((tmp_path / "out").glob("*.vl.json"))
        assert specs
        for spec in specs:
            assert validate_file(spec) == [], spec.name

    def test_expected_figure_set(self, campaign_dir, tmp_path):
        manifest = write_bundle(campaign_dir, tmp_path / "out",
                                resamples=50)
        names = {artifact.name for artifact in manifest.artifacts}
        assert names == {
            "fig9_write_latency", "fig9_write_latency_ci",
            "fig10_execution_time", "fig10_execution_time_ci",
            "sec5e_metadata_accesses", "sec5e_metadata_accesses_ci",
            "fig11_hash_sweep_write_latency",
            "fig12_hash_sweep_execution_time",
            "dash_latency_tails", "dash_attribution",
            "sec5f_space_overheads",
        }
        assert manifest.stats_files == [
            "fig10_execution_time.stats.txt",
            "fig9_write_latency.stats.txt",
            "sec5e_metadata_accesses.stats.txt",
        ]

    def test_status_manifest_contents(self, campaign_dir, tmp_path):
        manifest = write_bundle(campaign_dir, tmp_path / "out",
                                resamples=50, seed=7)
        status = manifest.status_path.read_text()
        assert status.startswith("# Report bundle")
        assert "seed 7, 50 bootstrap resamples" in status
        assert f"{len(WORKLOADS) * len(SCHEMES) + 2} cached campaign " \
            "cells" in status
        for artifact in manifest.artifacts:
            assert f"`{artifact.spec_file()}`" in status
            spec_hash = content_hash(artifact.spec_str())[:16]
            assert f"`{spec_hash}`" in status
        assert "## Stats tables" in status

    def test_rewrite_clears_stale_artifacts(self, campaign_dir,
                                            tmp_path):
        out = tmp_path / "out"
        write_bundle(campaign_dir, out, resamples=50)
        stale = out / "old_figure.vl.json"
        stale.write_text("{}")
        write_bundle(campaign_dir, out, resamples=50)
        assert not stale.exists()

    def test_no_overheads_drops_sec5f(self, campaign_dir, tmp_path):
        manifest = write_bundle(campaign_dir, tmp_path / "out",
                                resamples=50, overheads=False)
        names = {artifact.name for artifact in manifest.artifacts}
        assert "sec5f_space_overheads" not in names

    def test_empty_campaign_is_config_error(self, tmp_path):
        (tmp_path / "cache" / "objects").mkdir(parents=True)
        with pytest.raises(ConfigError, match="no readable cells"):
            write_bundle(tmp_path, tmp_path / "out")

    def test_stats_tables_mention_method(self, campaign_dir, tmp_path):
        manifest = write_bundle(campaign_dir, tmp_path / "out",
                                resamples=50)
        text = (tmp_path / "out" /
                "fig9_write_latency.stats.txt").read_text()
        assert "bootstrap 95% CI (50 resamples" in text
        assert "paired sign-flip permutation test vs scue" in text

    def test_attribution_shares_sum_to_one(self, campaign_dir,
                                           tmp_path):
        write_bundle(campaign_dir, tmp_path / "out", resamples=50)
        rows = (tmp_path / "out" / "dash_attribution.csv") \
            .read_text().splitlines()[1:]
        shares = {}
        for row in rows:
            scheme, _component, _cycles, share = row.split(",")
            shares[scheme] = shares.get(scheme, 0.0) + float(share)
        assert shares
        for scheme, total in shares.items():
            assert total == pytest.approx(1.0, abs=1e-6), scheme

    def test_specs_parse_as_canonical_json(self, campaign_dir,
                                           tmp_path):
        write_bundle(campaign_dir, tmp_path / "out", resamples=50)
        for path in (tmp_path / "out").glob("*.vl.json"):
            text = path.read_text()
            spec = json.loads(text)
            assert json.dumps(spec, sort_keys=True, indent=2) + "\n" \
                == text
