"""Campaign fan-out and the determinism contract of the merged manifest."""

import json

import pytest

from repro.__main__ import main
from repro.deploy import (
    manifest_json,
    merge_region_reports,
    partition,
    region_job_specs,
    run_deployment,
    scenario,
)
from repro.runtime import CampaignConfig


class TestRegionJobs:
    def test_one_job_per_region(self):
        spec = scenario("smoke")
        part = partition(spec)
        specs = region_job_specs(spec, part)
        assert len(specs) == len(part.regions)
        assert all(s.kind == "deploy.region" for s in specs)
        assert len({s.fingerprint() for s in specs}) == len(specs)

    def test_jobs_carry_the_scenario(self):
        spec = scenario("smoke")
        job = region_job_specs(spec)[0]
        assert job.param("scenario") == spec.to_json()
        assert job.param("region") == "0"
        assert job.seed == spec.seed


class TestMerge:
    def test_merge_rejects_incomplete_coverage(self):
        spec = scenario("smoke")
        part = partition(spec)
        with pytest.raises(ValueError, match="exactly once"):
            merge_region_reports(spec, part, [{"region": 0}])

    def test_merge_is_order_independent(self):
        spec = scenario("smoke")
        run = run_deployment(spec, CampaignConfig(n_jobs=1))
        reports = list(run.manifest["regions"])
        merged_forward = merge_region_reports(spec, run.partition, reports)
        merged_reversed = merge_region_reports(
            spec, run.partition, list(reversed(reports))
        )
        assert manifest_json(merged_forward) == manifest_json(merged_reversed)


class TestDeterminism:
    def test_manifest_bit_identical_across_worker_counts(self):
        spec = scenario("smoke")
        serial = run_deployment(spec, CampaignConfig(n_jobs=1))
        pooled = run_deployment(spec, CampaignConfig(n_jobs=2))
        assert manifest_json(serial.manifest) == manifest_json(pooled.manifest)

    def test_manifest_bit_identical_across_cache_and_resume(self, tmp_path):
        spec = scenario("smoke")
        cold = run_deployment(
            spec, CampaignConfig(n_jobs=1, cache_dir=tmp_path)
        )
        resumed = run_deployment(
            spec, CampaignConfig(n_jobs=1, cache_dir=tmp_path, resume=True)
        )
        assert manifest_json(cold.manifest) == manifest_json(resumed.manifest)
        # The resumed run executed nothing: every region came back from
        # the journal/cache.
        executed = resumed.campaign.manifest.completed
        assert executed == 0
        statuses = {o.status for o in resumed.campaign.outcomes}
        assert statuses <= {"resumed", "cached"}

    def test_seed_changes_results(self):
        base = run_deployment(scenario("smoke"), CampaignConfig(n_jobs=1))
        reseeded = run_deployment(
            scenario("smoke").scaled(seed=99), CampaignConfig(n_jobs=1)
        )
        assert (
            base.manifest["fingerprint"] != reseeded.manifest["fingerprint"]
        )
        assert (
            base.manifest["bits_delivered"]
            != reseeded.manifest["bits_delivered"]
        )


class TestExporter:
    def test_deploy_csv_and_manifest_written(self, tmp_path):
        from repro.experiments import export_experiment

        path = export_experiment("deploy", tmp_path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["scenario", "region", "hub", "channel"]
        assert len(lines) == 1 + 4  # smoke has 4 hubs
        assert (tmp_path / "deploy_smoke_manifest.json").is_file()


def _smoke_with(**fields) -> str:
    return json.dumps({**scenario("smoke").to_dict(), **fields})


class TestScenarioFileCli:
    def test_scenario_file_runs_like_its_catalog_name(self, tmp_path, capsys):
        path = tmp_path / "smoke.json"
        path.write_text(scenario("smoke").to_json())
        assert main(["deploy", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["deploy", "smoke"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == from_file.splitlines()[-1]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "deployment spec must be a mapping, got [1, 2]"),
            (_smoke_with(devices_per_hub=0), "each hub needs at least one device"),
            (_smoke_with(classes=[1]), "device class must be a mapping"),
            (_smoke_with(duration_s=float("nan")), "field 'duration_s' must be finite"),
        ],
        ids=["not-json", "not-an-object", "no-devices", "class-not-an-object", "nan-duration"],
    )
    def test_bad_scenario_file_is_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["deploy", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: scenario file {str(path)!r}: ")
        assert message in line

    def test_missing_scenario_is_one_error_line(self, capsys):
        assert main(["deploy", "no-such-scenario.json"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "neither a known scenario" in line
