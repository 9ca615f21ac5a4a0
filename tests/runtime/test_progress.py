"""Unit tests for campaign telemetry, the run manifest and the results
manifest."""

import json

import pytest

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.progress import (
    CampaignProgress,
    RunManifest,
    results_manifest,
    write_results_manifest,
)


def _manifest(**overrides):
    fields = dict(
        total=10, completed=6, failed=1, cached=3, retries=2,
        wall_time_s=2.0, jobs_per_s=3.5, n_jobs=4,
        calibration="cal", campaign_seed=0, kinds={"gain.bluetooth": 10},
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestCampaignProgress:
    def test_counters(self):
        progress = CampaignProgress(total=4)
        progress.record("a", "completed")
        progress.record("a", "completed", retries=2)
        progress.record("b", "failed", retries=1)
        progress.record("a", "cached")
        assert progress.settled == 4
        assert (progress.completed, progress.failed, progress.cached) == (2, 1, 1)
        assert progress.retries == 3
        assert progress.kinds == {"a": 3, "b": 1}

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            CampaignProgress().record("a", "exploded")

    def test_manifest_freeze(self):
        progress = CampaignProgress(total=2)
        progress.record("a", "completed")
        progress.record("a", "cached")
        manifest = progress.manifest(n_jobs=2, calibration="c", campaign_seed=9)
        assert manifest.total == 2
        assert manifest.completed == 1
        assert manifest.cached == 1
        assert manifest.n_jobs == 2
        assert manifest.campaign_seed == 9
        assert manifest.wall_time_s > 0.0
        assert manifest.jobs_per_s > 0.0  # one executed job

    def test_jobs_per_s_counts_only_executed_jobs(self):
        progress = CampaignProgress(total=1)
        progress.record("a", "cached")
        manifest = progress.manifest(n_jobs=1, calibration="", campaign_seed=0)
        assert manifest.jobs_per_s == 0.0


class TestRunManifest:
    def test_json_roundtrip(self):
        data = json.loads(_manifest().to_json())
        assert data["total"] == 10
        assert data["cached"] == 3
        assert data["kinds"] == {"gain.bluetooth": 10}

    def test_write(self, tmp_path):
        path = _manifest().write(tmp_path / "deep" / "manifest.json")
        assert json.loads(path.read_text())["completed"] == 6

    def test_merge(self):
        merged = RunManifest.merge(
            [
                _manifest(),
                _manifest(total=5, completed=5, failed=0, cached=0,
                          kinds={"gain.distance": 5}, wall_time_s=1.0),
            ]
        )
        assert merged.total == 15
        assert merged.completed == 11
        assert merged.cached == 3
        assert merged.wall_time_s == pytest.approx(3.0)
        assert merged.kinds == {"gain.bluetooth": 10, "gain.distance": 5}

    def test_merge_empty(self):
        assert RunManifest.merge([]) is None


@register_job_runner("test.progress_fail")
def _progress_fail(spec, rng):
    raise RuntimeError("always broken")


class TestResultsManifest:
    def _specs(self):
        return [
            JobSpec.with_params(
                "ber.montecarlo", {"snr_db": "6.0", "n_bits": "20000"}, seed=i
            )
            for i in range(3)
        ]

    def test_wall_clock_free_and_canonical(self, tmp_path):
        specs = self._specs()
        first = run_campaign(specs, CampaignConfig(cache_dir=tmp_path / "a"))
        second = run_campaign(specs, CampaignConfig(cache_dir=tmp_path / "b"))
        assert json.dumps(results_manifest(first), sort_keys=True) == (
            json.dumps(results_manifest(second), sort_keys=True)
        )
        path = write_results_manifest(tmp_path / "r.json", first)
        payload = path.read_text(encoding="utf-8")
        assert payload == json.dumps(
            json.loads(payload), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_failed_jobs_recorded(self, tmp_path):
        specs = [JobSpec(kind="test.progress_fail", seed=0)]
        result = run_campaign(
            specs,
            CampaignConfig(cache_dir=tmp_path, max_retries=0, backoff_s=0.0),
        )
        manifest = results_manifest(result)
        assert manifest["jobs"][0]["status"] == "failed"
        assert "RuntimeError" in manifest["jobs"][0]["error"]
