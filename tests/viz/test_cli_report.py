"""The ``repro-sim report`` verb end to end (no subprocess)."""

import csv
import json

from repro.cli import main
from repro.viz.validate import main as validate_main


class TestReportVerb:
    def test_report_writes_validating_bundle(self, campaign_dir,
                                             tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(["report", str(campaign_dir), "--out", str(out),
                   "--resamples", "50"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "report bundle:" in output
        assert "STATUS.md" in output
        assert (out / "STATUS.md").exists()
        assert (out / "fig9_write_latency.vl.json").exists()
        assert validate_main([str(out)]) == 0

    def test_default_out_dir_is_report_subdir(self, campaign_dir,
                                              capsys):
        rc = main(["report", str(campaign_dir), "--resamples", "50"])
        assert rc == 0
        assert (campaign_dir / "report" / "STATUS.md").exists()

    def test_no_overheads_flag(self, campaign_dir, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(["report", str(campaign_dir), "--out", str(out),
                   "--resamples", "50", "--no-overheads"])
        assert rc == 0
        assert not (out / "sec5f_space_overheads.vl.json").exists()

    def test_recovery_and_crash_window_artifacts(self, campaign_dir,
                                                 tmp_path, capsys):
        """The two direct-simulation figures ride along with a bundle.
        Only the bundle's shape is checked: Fig 13's values are meant to
        move as its recovery model does."""
        out = tmp_path / "bundle"
        rc = main(["report", str(campaign_dir), "--out", str(out),
                   "--recovery", "--recovery-sizes", "16384",
                   "--crash-window", "--resamples", "200"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "running Fig 13 recovery sweep (1 cache sizes" in output
        assert "running Fig 5 crash-window trials" in output
        status = (out / "STATUS.md").read_text()
        tables = {}
        for name in ("fig13_recovery_time", "fig5_crash_window"):
            spec = json.loads((out / f"{name}.vl.json").read_text())
            assert spec["data"] == {"url": f"{name}.csv"}
            with open(out / f"{name}.csv", newline="") as handle:
                tables[name] = list(csv.DictReader(handle))
            assert tables[name]
            assert name in status
        # One point per tracker, at the one cache size asked for.
        recovery = tables["fig13_recovery_time"]
        assert sorted(row["tracker"] for row in recovery) \
            == ["agit", "star"]
        assert {row["cache_kb"] for row in recovery} == {"16"}
        window = tables["fig5_crash_window"]
        assert len({row["scheme"] for row in window}) == len(window)
        assert validate_main([str(out)]) == 0
