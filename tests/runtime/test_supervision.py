"""Hung and lost workers on the fleet: ``timeout_s`` is the job lease, a
job that overruns it is re-run by a live worker, finished jobs are not,
and no temporary state outlives a campaign."""

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner


@register_job_runner("test.sup_echo")
def _sup_echo(spec, rng):
    return {"seed": spec.seed, "draw": float(rng.random())}


@register_job_runner("test.hang_once")
def _hang_once(spec, rng):
    """Hang (sleep far past any lease) on first execution, succeed on the
    next — the marker file outlives the hung worker, so the re-run job
    completes."""
    marker = Path(spec.param("marker"))
    if not marker.exists():
        marker.write_text("hung once")
        time.sleep(300.0)
    return {"seed": spec.seed, "recovered": 1.0}


@register_job_runner("test.counted_sleep")
def _counted_sleep(spec, rng):
    """Log one line per execution, then sleep ``sleep_s`` on the first
    execution only."""
    log = Path(spec.param("dir")) / spec.fingerprint()
    with log.open("a", encoding="utf-8") as handle:
        handle.write("ran\n")
    if len(log.read_text().splitlines()) == 1:
        time.sleep(float(spec.param("sleep_s", "0.0")))
    return {"seed": spec.seed}


@register_job_runner("test.busy_worker")
def _busy_worker(spec, rng):
    """Keep a fleet worker busy long past the test's SIGINT; in-process
    (no fleet could start) stand in for that SIGINT directly."""
    if multiprocessing.parent_process() is None:
        raise KeyboardInterrupt
    time.sleep(30.0)
    return {"seed": spec.seed}


@register_job_runner("test.sup_fail")
def _sup_fail(spec, rng):
    raise RuntimeError("always broken")


class TestLease:
    def test_hung_job_does_not_hang_the_campaign(self, tmp_path):
        """A job that hangs on a fleet worker loses its lease; a live
        worker re-runs it and every job is accounted for."""
        marker = tmp_path / "hang.marker"
        specs = [
            JobSpec.with_params("test.hang_once", {"marker": str(marker)}, seed=99)
        ] + [JobSpec(kind="test.sup_echo", seed=i) for i in range(6)]
        config = CampaignConfig(
            n_jobs=2, timeout_s=0.6, max_retries=1, backoff_s=0.01
        )
        started = time.monotonic()
        result = run_campaign(specs, config)
        assert time.monotonic() - started < 60.0  # nobody waited out the sleep
        assert [o.status for o in result.outcomes] == ["completed"] * 7
        assert result.outcomes[0].metrics == {"seed": 99, "recovered": 1.0}
        # The hung attempt counts; the echo jobs ran once each.
        assert result.outcomes[0].attempts == 2
        assert all(o.attempts == 1 for o in result.outcomes[1:])

    def test_overrunning_job_reruns_while_finished_jobs_do_not(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        slow = JobSpec.with_params(
            "test.counted_sleep", {"dir": str(runs), "sleep_s": "3.0"}, seed=0
        )
        fast = [
            JobSpec.with_params("test.counted_sleep", {"dir": str(runs)}, seed=i)
            for i in range(1, 4)
        ]
        config = CampaignConfig(
            n_jobs=2, timeout_s=0.3, max_retries=1, backoff_s=0.0
        )
        result = run_campaign([slow] + fast, config)
        assert [o.status for o in result.outcomes] == ["completed"] * 4
        executions = {
            p.name: len(p.read_text().splitlines()) for p in runs.iterdir()
        }
        assert executions[slow.fingerprint()] == 2
        assert all(executions[spec.fingerprint()] == 1 for spec in fast)
        assert result.outcomes[0].attempts == 2
        assert [o.attempts for o in result.outcomes[1:]] == [1, 1, 1]

    def test_overrun_without_retry_budget_fails_without_rerunning(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        slow = JobSpec.with_params(
            "test.counted_sleep", {"dir": str(runs), "sleep_s": "3.0"}, seed=0
        )
        config = CampaignConfig(
            n_jobs=2, timeout_s=0.3, max_retries=0, backoff_s=0.0
        )
        result = run_campaign([slow], config)
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "presumed hung" in outcome.error
        assert len((runs / slow.fingerprint()).read_text().splitlines()) == 1


class TestTempRootCleanup:
    """A pooled campaign without ``cache_dir`` runs on a temporary cache
    and journal root; it must never outlive the campaign."""

    def _leaked(self, tmp_path):
        return [p.name for p in tmp_path.iterdir() if p.name.startswith("repro-")]

    def test_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = [JobSpec(kind="test.sup_echo", seed=i) for i in range(4)]
        result = run_campaign(specs, CampaignConfig(n_jobs=2))
        assert all(o.status == "completed" for o in result.outcomes)
        assert self._leaked(tmp_path) == []

    def test_job_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = [JobSpec(kind="test.sup_fail")] + [
            JobSpec(kind="test.sup_echo", seed=i) for i in range(3)
        ]
        result = run_campaign(
            specs, CampaignConfig(n_jobs=2, max_retries=0, backoff_s=0.0)
        )
        assert [o.status for o in result.outcomes] == ["failed"] + ["completed"] * 3
        assert self._leaked(tmp_path) == []

    def test_sigint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = [JobSpec(kind="test.busy_worker")] + [
            JobSpec(kind="test.sup_echo", seed=i) for i in range(3)
        ]
        # Ctrl-C while the coordinator waits on its busy worker.
        timer = threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(specs, CampaignConfig(n_jobs=2, max_retries=0))
        finally:
            timer.cancel()
        assert self._leaked(tmp_path) == []
        assert multiprocessing.active_children() == []
