"""CLI coverage for the campaign engine flags and the fixed ``show``
fallback renderer."""

import json
import os
import re

import pytest

from repro.__main__ import _progress_printer, main
from repro.experiments import all_experiments, get
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.progress import CampaignProgress

from ..runtime.job_pids import record_job_pids


@register_job_runner("test.cli_fail")
def _cli_fail(spec, rng):
    raise RuntimeError("always broken")


class TestShowFallback:
    @pytest.mark.parametrize("experiment", ["fig1", "fig3", "fig6", "fig12"])
    def test_every_advertised_id_renders(self, experiment, capsys):
        # Regression: argparse advertises every showable id as a choice,
        # so each one must actually render instead of exiting with 2.
        assert main(["show", experiment]) == 0
        assert capsys.readouterr().out.strip()

    def test_fallback_prints_exporter_csv(self, capsys):
        assert main(["show", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "# fig6_antenna_diversity.csv" in out
        assert "distance_m,without_db,with_db" in out

    def test_multi_file_exporters_print_every_csv(self, capsys):
        assert main(["show", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "# fig4b_phase_map.csv" in out
        assert "# fig4c_line_profile.csv" in out


class TestExportCampaignFlags:
    def test_parallel_export_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["export", "fig15", str(serial_dir)]) == 0
        assert main(["export", "fig15", str(parallel_dir), "--jobs", "2"]) == 0
        serial_csv = (serial_dir / "fig15_gain_matrix.csv").read_bytes()
        parallel_csv = (parallel_dir / "fig15_gain_matrix.csv").read_bytes()
        assert serial_csv == parallel_csv

    def test_warm_cache_skips_all_jobs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cache_dir = tmp_path / "cache"
        argv = ["export", "fig15", str(out_dir), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = (out_dir / "fig15_gain_matrix.csv").read_bytes()
        capsys.readouterr()
        assert main(argv) == 0
        capsys.readouterr()
        warm = (out_dir / "fig15_gain_matrix.csv").read_bytes()
        assert cold == warm
        manifest = json.loads((out_dir / "campaign_manifest.json").read_text())
        assert manifest["cached"] == manifest["total"] == 100
        assert manifest["completed"] == 0

    def test_no_cache_leaves_cache_dir_empty(self, tmp_path):
        out_dir = tmp_path / "out"
        cache_dir = tmp_path / "cache"
        assert main([
            "export", "fig15", str(out_dir),
            "--cache-dir", str(cache_dir), "--no-cache",
        ]) == 0
        assert not cache_dir.exists() or not any(cache_dir.rglob("*"))

    def test_campaign_aware_experiments_are_exportable(self):
        aware = {d.id for d in all_experiments() if d.campaign_aware}
        exportable = {d.id for d in all_experiments() if d.exportable}
        assert aware <= exportable
        assert get("fig15").campaign_aware


class TestCampaignCommand:
    def test_runs_and_prints_manifest(self, capsys):
        assert main(["campaign", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "fig15: 100 jobs" in out
        manifest = json.loads(out[out.index("{"):])
        assert manifest["total"] == 100
        assert manifest["failed"] == 0

    def test_cache_round_trip(self, tmp_path, capsys):
        argv = ["campaign", "fig15", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        manifest = json.loads(out[out.index("{"):])
        assert manifest["cached"] == 100
        assert manifest["completed"] == 0

    def test_manifest_file_written(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert main(["campaign", "mc-ber", "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        data = json.loads(manifest_path.read_text())
        assert data["total"] == 25
        assert "ber.montecarlo" in data["kinds"]

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["campaign", "fig99"])


class TestJobsValidation:
    @pytest.mark.parametrize("bad", ["0", "-3", "two"])
    def test_non_positive_jobs_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "mc-ber", "--jobs", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err or "expected an integer" in err

    def test_oversubscribed_jobs_capped_with_warning(self, capsys):
        cpus = os.cpu_count() or 1
        assert main(["campaign", "mc-ber", "--jobs", str(cpus + 7)]) == 0
        captured = capsys.readouterr()
        assert f"capping at {cpus}" in captured.err
        manifest = json.loads(captured.out[captured.out.index("{"):])
        assert manifest["n_jobs"] == cpus

    def test_jobs_within_budget_not_warned(self, capsys):
        assert main(["campaign", "mc-ber", "--jobs", "1"]) == 0
        assert "capping" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "soon"])
    def test_non_positive_lease_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "mc-ber", "--lease-s", bad])
        assert excinfo.value.code == 2
        assert "--lease-s" in capsys.readouterr().err


class TestSeedValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "mc-ber"],
            ["deploy", "smoke"],
            ["energy", "braidio-arq"],
            ["faults", "chaos"],
        ],
    )
    def test_negative_seed_rejected_before_running(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestResumeFlag:
    def test_resume_requires_cache_dir(self, tmp_path, capsys):
        # --no-cache drops the cache, so there is nothing to resume either.
        no_cache = ["--cache-dir", str(tmp_path), "--no-cache", "--resume"]
        for argv in (
            ["campaign", "mc-ber", "--resume"],
            ["campaign", "mc-ber", *no_cache],
            ["deploy", "smoke", *no_cache],
        ):
            assert main(argv) == 2
            assert "--cache-dir" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_resume_round_trip(self, tmp_path, capsys):
        assert main(["campaign", "mc-ber", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "mc-ber", "--cache-dir", str(tmp_path), "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "25 resumed" in out
        manifest = json.loads(out[out.index("{"):])
        assert manifest["resumed"] == 25
        assert manifest["completed"] == 0


class TestMaxFailures:
    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_non_positive_budget_rejected(self, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "mc-ber", "--max-failures", bad])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failure_storm_aborts_with_nonzero_exit(self, monkeypatch, capsys, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs caps at CPUs
        monkeypatch.setattr(
            "repro.runtime.workloads.campaign_specs",
            lambda experiment, backend="scalar": [
                JobSpec(kind="test.cli_fail", seed=i) for i in range(6)
            ],
        )
        code = main(["campaign", "mc-ber", "--max-failures", "2", "--jobs", jobs])
        assert code != 0
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        assert "--max-failures 2" in captured.err

    def test_budget_not_hit_exits_clean_on_success(self, capsys):
        assert main(["campaign", "mc-ber", "--max-failures", "3"]) == 0
        assert "aborted" not in capsys.readouterr().err

    def test_resumed_run_counts_journaled_failures_toward_budget(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.runtime.workloads.campaign_specs",
            lambda experiment, backend="scalar": [
                JobSpec(kind="test.cli_fail", seed=i) for i in range(3)
            ],
        )
        # First run journals three failures (no budget, plain failure exit).
        assert main(["campaign", "mc-ber", "--cache-dir", str(tmp_path)]) != 0
        capsys.readouterr()
        # The resumed run starts with those three already on the ledger:
        # the budget is breached on entry and the exit is non-zero.
        code = main([
            "campaign", "mc-ber", "--cache-dir", str(tmp_path),
            "--resume", "--max-failures", "3",
        ])
        assert code != 0
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        assert "--max-failures 3" in captured.err


class TestFleetFlags:
    def test_results_flag_requires_single_experiment(self, tmp_path, capsys):
        code = main([
            "campaign", "mc-ber", "fig15", "--results", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "exactly one experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_summary_line_is_the_same_on_every_path(self, monkeypatch, capsys, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs caps at CPUs
        assert main(["campaign", "mc-ber", "--jobs", jobs]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(
            r"mc-ber: 25 jobs, 25 run, 0 cached, 0 failed, "
            r"\d+\.\d\ds \(\d+ jobs/s\)",
            summary,
        )

    def test_progress_line_reports_settled_jobs(self, capsys):
        progress = CampaignProgress(total=4)
        progress.record("a", "completed")
        progress.record("a", "failed")
        _progress_printer()(progress)
        assert re.fullmatch(
            r"2/4 settled \(1 failed\) in \d+\.\ds\n", capsys.readouterr().err
        )

    def test_fleet_run_matches_serial_byte_for_byte(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs caps at CPUs
        serial = tmp_path / "serial.json"
        fleet = tmp_path / "fleet.json"
        assert main([
            "campaign", "mc-ber",
            "--cache-dir", str(tmp_path / "a"), "--results", str(serial),
        ]) == 0
        capsys.readouterr()
        pids = record_job_pids(monkeypatch, tmp_path / "pids")
        assert main([
            "campaign", "mc-ber",
            "--cache-dir", str(tmp_path / "b"), "--results", str(fleet),
            "--jobs", "2",
        ]) == 0
        capsys.readouterr()
        assert pids() and os.getpid() not in pids()  # workers ran every job
        assert serial.read_bytes() == fleet.read_bytes()
