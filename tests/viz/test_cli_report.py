"""The ``repro-sim report`` verb end to end (no subprocess)."""

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
