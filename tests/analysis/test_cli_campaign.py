"""CLI coverage for the campaign engine flags and the fixed ``show``
fallback renderer."""

import json
import os
import re

import pytest

from repro.__main__ import _progress_printer, main
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
    #: What `export deploy` writes; its smoke regions are the only engine
    #: jobs an export runs.
    DEPLOY_FILES = ("deploy_hubs.csv", "deploy_smoke_manifest.json")

    def _export_deploy(self, out_dir, *flags):
        assert main(["export", "deploy", str(out_dir), *flags]) == 0
        return [(out_dir / name).read_bytes() for name in self.DEPLOY_FILES]

    def test_cached_export_matches_plain(self, tmp_path, capsys):
        # A plain export and a cold and a warm cached one write the same
        # bytes; the warm one serves every region job from the cache.
        cache = ["--cache-dir", str(tmp_path / "cache")]
        plain = self._export_deploy(tmp_path / "plain")
        cold = self._export_deploy(tmp_path / "cold", *cache)
        warm = self._export_deploy(tmp_path / "warm", *cache)
        assert plain == cold == warm
        assert "2 jobs (0 run, 2 cached, 0 failed)" in capsys.readouterr().err
        cold_run, warm_run = (
            json.loads((tmp_path / run / "campaign_manifest.json").read_text())
            for run in ("cold", "warm")
        )
        assert cold_run["completed"] == cold_run["total"] == 2
        assert warm_run["cached"] == warm_run["total"] == 2
        assert warm_run["completed"] == 0

    def test_cached_gain_export_runs_no_engine_job(self, tmp_path, capsys):
        # The gain sweeps run on the batch engine even with a cache at hand.
        cache_dir = tmp_path / "cache"
        assert main([
            "export", "fig15", str(tmp_path / "out"), "--cache-dir", str(cache_dir),
        ]) == 0
        assert "campaign engine" not in capsys.readouterr().err
        assert not (tmp_path / "out" / "campaign_manifest.json").exists()
        assert not cache_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "fig15", "out"],
            ["campaign", "fig15"],
            ["profile", "sweep-gain-matrix"],
        ],
    )
    def test_backend_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", "scalar"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "deploy", "{T}/out"],
            ["campaign", "mc-ber"],
            ["deploy", "smoke"],
        ],
    )
    def test_no_cache_flag_is_gone(self, tmp_path, capsys, argv):
        # Leaving out --cache-dir is the one way to run uncached.
        argv = [arg.replace("{T}", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--cache-dir", str(tmp_path / "cache"), "--no-cache"])
        assert excinfo.value.code == 2
        assert "--no-cache" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_export_jobs_flag_is_gone(self, tmp_path, capsys):
        # Only `campaign` and `deploy` fan jobs across workers.
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "all", str(tmp_path / "out"), "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "fig1", "{F}/out"],
            ["deploy", "smoke", "--manifest", "{F}/m.json"],
            ["deploy", "smoke", "--csv", "{F}/c.csv"],
            ["campaign", "mc-ber", "--results", "{F}/r.json"],
            ["campaign", "mc-ber", "--manifest", "{F}/m.json"],
        ],
    )
    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys, argv):
        # F is a regular file, so nothing can be written below it; the run
        # must not start (no summary on stdout).
        blocker = tmp_path / "F"
        blocker.write_text("")
        argv = [arg.replace("{F}", str(blocker)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert str(blocker) in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["deploy", "smoke", "--manifest", "{D}"],
            ["deploy", "smoke", "--csv", "{D}"],
            ["campaign", "mc-ber", "--results", "{D}"],
            ["campaign", "mc-ber", "--manifest", "{D}"],
        ],
    )
    def test_directory_output_is_one_error_line(self, tmp_path, capsys, argv):
        # D is an existing directory, so no file can be written at it; the
        # run must not start (no summary on stdout).
        directory = tmp_path / "D"
        directory.mkdir()
        flag = argv[2]
        argv = [arg.replace("{D}", str(directory)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert flag in line and str(directory) in line
        assert list(directory.iterdir()) == []


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


class TestDistanceValidation:
    @pytest.mark.parametrize("command", [["energy", "braidio"], ["faults", "none"]])
    @pytest.mark.parametrize("bad", ["nan", "-1", "inf", "-inf", "near"])
    def test_bad_distance_rejected_before_running(self, command, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--distance", bad])
        assert excinfo.value.code == 2
        assert "--distance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["energy", "braidio"], ["faults", "none"]])
    def test_unreachable_distance_is_one_error_line(self, command, capsys):
        code = main([*command, "--distance", "100", "--packets", "50"])
        assert code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no operating mode available at 100.0 m"
        ]


class TestResumeFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "mc-ber", "--resume", "--manifest", "m.json"],
            ["deploy", "smoke", "--resume", "--manifest", "m.json", "--csv", "c.csv"],
        ],
    )
    def test_resume_requires_cache_dir(self, tmp_path, monkeypatch, capsys, argv):
        # The engine config refuses the pair; the CLI reports it as one
        # error line before anything runs or is written.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "--cache-dir" in line
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
            lambda experiment: [
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
            lambda experiment: [
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
