"""Crash-safe resume: journal replay, checksum verification, bit-identity."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.journal import replay_journal

from .cache_lines import edit_metrics, rewrite_entry

_CRASH_STATE = {"after": None, "calls": 0}


@register_job_runner("test.crashy_draw")
def _crashy_draw(spec, rng):
    """Deterministic metrics; simulates a process kill partway through a
    serial campaign by raising KeyboardInterrupt after N completions."""
    _CRASH_STATE["calls"] += 1
    if _CRASH_STATE["after"] is not None and _CRASH_STATE["calls"] > _CRASH_STATE["after"]:
        raise KeyboardInterrupt
    return {"seed": spec.seed, "draw": float(rng.random())}


@register_job_runner("test.resume_fail")
def _resume_fail(spec, rng):
    raise RuntimeError("always broken")


def _specs(n=8):
    return [JobSpec(kind="test.crashy_draw", seed=i) for i in range(n)]


def _arm_crash(after):
    _CRASH_STATE["after"] = after
    _CRASH_STATE["calls"] = 0


class TestResume:
    def test_resume_skips_verified_jobs_and_matches_uninterrupted(self, tmp_path):
        specs = _specs()
        # Uninterrupted reference run in its own cache.
        _arm_crash(None)
        reference = run_campaign(
            specs, CampaignConfig(cache_dir=tmp_path / "ref", campaign_seed=5)
        )
        # Crashed run: dies after 3 completions.
        config = CampaignConfig(cache_dir=tmp_path / "crashed", campaign_seed=5)
        _arm_crash(3)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, config)
        replay = replay_journal(
            config.resolved_journal_dir() / next(
                p.name for p in config.resolved_journal_dir().iterdir()
            )
        )
        assert len(replay.done) == 3
        assert replay.interrupted
        assert replay.finished_runs == 0
        # Resume: completes the remainder only, bit-identical overall.
        _arm_crash(None)
        resumed = run_campaign(specs, replace(config, resume=True))
        assert resumed.manifest.resumed == 3
        assert resumed.manifest.completed == 5
        assert resumed.metrics == reference.metrics
        statuses = [o.status for o in resumed.outcomes]
        assert statuses.count("resumed") == 3
        assert statuses.count("completed") == 5

    def test_interrupted_run_flushes_partial_manifest(self, tmp_path):
        from repro.runtime.executor import drain_manifests

        drain_manifests()
        config = CampaignConfig(cache_dir=tmp_path, campaign_seed=1)
        _arm_crash(2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(_specs(), config)
        _arm_crash(None)
        manifests = drain_manifests()
        assert len(manifests) == 1
        assert manifests[0].interrupted
        assert manifests[0].completed == 2
        assert json.loads(manifests[0].to_json())["interrupted"] is True

    def test_resume_reruns_corrupted_entries(self, tmp_path):
        specs = _specs(4)
        config = CampaignConfig(cache_dir=tmp_path, campaign_seed=2)
        _arm_crash(None)
        first = run_campaign(specs, config)
        # Corrupt one completed entry between crash and resume.
        rewrite_entry(tmp_path, specs[1], edit_metrics(draw=-1.0))
        resumed = run_campaign(specs, replace(config, resume=True))
        assert resumed.manifest.resumed == 3
        assert resumed.manifest.completed == 1  # the corrupted one re-ran
        assert resumed.metrics == first.metrics
        (reason,) = ResultCache(tmp_path).quarantined()
        assert reason["reason"] == "checksum-mismatch"

    def test_resume_without_journal_degrades_to_cache_hits(self, tmp_path):
        specs = _specs(3)
        _arm_crash(None)
        config = CampaignConfig(cache_dir=tmp_path)
        run_campaign(specs, config)
        # Remove the journal: resume must still work, via plain cache hits.
        for path in config.resolved_journal_dir().iterdir():
            path.unlink()
        again = run_campaign(specs, replace(config, resume=True))
        assert again.manifest.resumed == 0
        assert again.manifest.cached == 3

    def test_journal_records_failures_for_redispatch(self, tmp_path):
        specs = [JobSpec(kind="test.resume_fail"), _specs(1)[0]]
        _arm_crash(None)
        config = CampaignConfig(
            cache_dir=tmp_path, max_retries=0, backoff_s=0.0
        )
        first = run_campaign(specs, config)
        assert first.manifest.failed == 1
        # Failed jobs are journaled but never skipped on resume.
        resumed = run_campaign(specs, replace(config, resume=True))
        assert resumed.outcomes[0].status == "failed"
        assert resumed.outcomes[0].attempts == 1
        assert resumed.manifest.resumed == 1

    def test_manifest_carries_lineage(self, tmp_path):
        specs = _specs(2)
        _arm_crash(None)
        config = CampaignConfig(cache_dir=tmp_path, campaign_seed=9)
        result = run_campaign(specs, config)
        manifest = result.manifest
        assert manifest.campaign  # content fingerprint of the job set
        assert manifest.journal and manifest.journal.endswith(".jsonl")
        assert manifest.campaign in manifest.journal
        again = run_campaign(specs, replace(config, resume=True))
        assert again.manifest.campaign == manifest.campaign
        assert again.manifest.journal == manifest.journal


@register_job_runner("test.counted_fail")
def _counted_fail(spec, rng):
    """Always fails, appending one line per execution so tests can prove
    a job never ran."""
    with open(spec.param("counter"), "a", encoding="utf-8") as handle:
        handle.write(f"{spec.seed}\n")
    raise RuntimeError("always broken")


@register_job_runner("test.fail_then_ok")
def _fail_then_ok(spec, rng):
    marker = Path(spec.param("marker"))
    if not marker.exists():
        marker.write_text("failed once")
        raise RuntimeError("first run broken")
    return {"seed": spec.seed, "draw": float(rng.random())}


class TestMaxFailuresResume:
    """``--max-failures`` x ``--resume``: failures journaled by an earlier
    run keep counting toward the budget of the run that resumes it."""

    def _config(self, tmp_path, **kwargs):
        return CampaignConfig(
            cache_dir=tmp_path, max_retries=0, backoff_s=0.0, **kwargs
        )

    def test_prior_journaled_failures_breach_budget_without_rerunning(
        self, tmp_path
    ):
        counter = tmp_path / "runs.log"
        specs = [
            JobSpec.with_params("test.counted_fail", {"counter": str(counter)}, seed=s)
            for s in (0, 1)
        ] + _specs(1)
        _arm_crash(None)
        first = run_campaign(specs, self._config(tmp_path))
        assert first.manifest.failed == 2
        assert len(counter.read_text().splitlines()) == 2
        resumed = run_campaign(
            specs, self._config(tmp_path, max_failures=2, resume=True)
        )
        # Budget already spent by the journaled failures: the failing
        # jobs settle as aborted without a single re-execution.
        assert len(counter.read_text().splitlines()) == 2
        statuses = [o.status for o in resumed.outcomes]
        assert statuses == ["failed", "failed", "resumed"]
        assert all(
            "max_failures=2" in o.error for o in resumed.outcomes[:2]
        )
        # The CLI's non-zero-exit predicate holds on the resumed run.
        assert resumed.manifest.failed >= 2

    def test_success_on_resume_strikes_prior_failure_from_the_budget(
        self, tmp_path
    ):
        counter = tmp_path / "runs.log"
        marker = tmp_path / "flaky.marker"
        specs = [
            JobSpec.with_params("test.fail_then_ok", {"marker": str(marker)}, seed=0),
            JobSpec.with_params("test.counted_fail", {"counter": str(counter)}, seed=1),
        ] + _specs(1)
        _arm_crash(None)
        first = run_campaign(specs, self._config(tmp_path))
        assert first.manifest.failed == 2
        resumed = run_campaign(
            specs, self._config(tmp_path, max_failures=3, resume=True)
        )
        # The flaky job now succeeds and leaves the ledger; only the
        # counted_fail job still counts, so the budget of 3 never trips.
        statuses = [o.status for o in resumed.outcomes]
        assert statuses == ["completed", "failed", "resumed"]
        assert "max_failures" not in (resumed.outcomes[1].error or "")
        assert resumed.manifest.failed == 1

    def test_combined_prior_and_new_failures_breach_mid_run(self, tmp_path):
        """Prior failures plus fresh ones cross the budget together and
        abort the jobs still pending behind them."""
        counter = tmp_path / "runs.log"
        specs = (
            [JobSpec.with_params("test.counted_fail", {"counter": str(counter)}, seed=0)]
            + _specs(3)
            + [JobSpec.with_params("test.counted_fail", {"counter": str(counter)}, seed=9)]
        )
        config = self._config(tmp_path)
        _arm_crash(2)  # die after two crashy completions
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, config)
        _arm_crash(None)
        resumed = run_campaign(
            specs, replace(config, max_failures=2, resume=True)
        )
        # counted_fail(0) re-fails (still 1 distinct), the third crashy
        # job completes, counted_fail(9) fails -> 2 distinct -> breach.
        assert resumed.manifest.failed == 2
        assert resumed.outcomes[0].status == "failed"
        assert resumed.outcomes[-1].status == "failed"
        assert resumed.manifest.failed >= 2
