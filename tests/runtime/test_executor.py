"""Campaign executor tests: determinism across worker counts, caching,
retry/backoff fault tolerance, failure budgets, outcome parity across the
serial and ``n_jobs`` paths, and the manifest registry."""

import multiprocessing
import threading
import time
from pathlib import Path

import pytest

import repro.runtime.executor as executor_module
from repro.runtime.executor import (
    CampaignConfig,
    CampaignError,
    drain_manifests,
    run_campaign,
)
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.journal import replay_journal
from repro.runtime.workloads import campaign_specs


@register_job_runner("test.echo")
def _echo(spec, rng):
    return {"seed": spec.seed, "draw": float(rng.random())}


@register_job_runner("test.fail")
def _fail(spec, rng):
    raise RuntimeError("always broken")


@register_job_runner("test.worker_crash")
def _worker_crash(spec, rng):
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        # Pooled worker: die without raising, so the chunk future breaks.
        os._exit(1)
    raise RuntimeError("serial fallback also failing")


_FLAKY_CALLS = {"count": 0}


@register_job_runner("test.flaky")
def _flaky(spec, rng):
    _FLAKY_CALLS["count"] += 1
    failures = int(spec.param("failures", "1"))
    if _FLAKY_CALLS["count"] <= failures:
        raise RuntimeError(f"transient #{_FLAKY_CALLS['count']}")
    return {"ok": 1.0}


def _count_execution(spec):
    """Append one line to a per-job file (works across pool processes)."""
    path = Path(spec.param("dir")) / spec.fingerprint()
    with path.open("a", encoding="utf-8") as handle:
        handle.write("ran\n")
    return len(path.read_text().splitlines())


@register_job_runner("test.counted_echo")
def _counted_echo(spec, rng):
    _count_execution(spec)
    return {"seed": spec.seed, "draw": float(rng.random())}


@register_job_runner("test.flaky_marked")
def _flaky_marked(spec, rng):
    if _count_execution(spec) == 1:
        raise RuntimeError("transient pool-side failure")
    return {"seed": spec.seed, "ok": 1.0}


@register_job_runner("test.sleeper")
def _sleeper(spec, rng):
    time.sleep(float(spec.param("sleep_s", "0.0")))
    return {"seed": spec.seed}


def _counters(result):
    m = result.manifest
    return (m.total, m.completed, m.cached, m.resumed, m.failed, m.retries)


def _mc_specs(n=6):
    return [
        JobSpec.with_params("ber.montecarlo", {"snr_db": "9.0", "n_bits": 4000},
                            seed=i)
        for i in range(n)
    ]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": 0},
            {"timeout_s": 0.0},
            {"timeout_s": float("nan")},
            {"timeout_s": float("inf")},
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"backoff_s": float("nan")},
            {"backoff_s": float("inf")},
            {"campaign_seed": -1},
            {"resume": True},  # without a cache_dir there is nothing to resume
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**kwargs)


class TestDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        """ISSUE regression: n_jobs=1 and n_jobs=4 over the same JobSpec
        list must produce bit-identical metric dictionaries."""
        specs = _mc_specs() + campaign_specs("fig15")[:4]
        serial = run_campaign(specs, CampaignConfig(n_jobs=1, campaign_seed=11))
        parallel = run_campaign(specs, CampaignConfig(n_jobs=4, campaign_seed=11))
        assert serial.metrics == parallel.metrics
        assert all(o.status == "completed" for o in parallel.outcomes)

    def test_worker_count_does_not_change_results(self):
        specs = _mc_specs()
        two = run_campaign(specs, CampaignConfig(n_jobs=2))
        three = run_campaign(specs, CampaignConfig(n_jobs=3))
        assert two.metrics == three.metrics

    def test_outcomes_follow_submission_order(self):
        specs = [JobSpec(kind="test.echo", seed=i) for i in range(10)]
        result = run_campaign(specs, CampaignConfig(n_jobs=3))
        assert [o.spec.seed for o in result.outcomes] == list(range(10))
        assert [m["seed"] for m in result.metrics] == list(range(10))


class TestCaching:
    def test_warm_cache_skips_every_job(self, tmp_path):
        specs = campaign_specs("fig15")[:6]
        config = CampaignConfig(cache_dir=tmp_path)
        cold = run_campaign(specs, config)
        warm = run_campaign(specs, config)
        assert cold.manifest.completed == 6
        assert warm.manifest.cached == 6
        assert warm.manifest.completed == 0
        assert warm.metrics == cold.metrics

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_campaign_seed_scopes_the_cache(self, tmp_path, n_jobs):
        specs = [JobSpec(kind="test.echo", seed=i) for i in range(3)]
        uncached = run_campaign(specs, CampaignConfig(campaign_seed=1))
        seed0 = CampaignConfig(cache_dir=tmp_path, campaign_seed=0, n_jobs=n_jobs)
        cold = run_campaign(specs, seed0)
        warm = run_campaign(specs, seed0)
        assert [o.status for o in warm.outcomes] == ["cached"] * 3
        assert warm.metrics == cold.metrics
        seed1 = CampaignConfig(cache_dir=tmp_path, campaign_seed=1, n_jobs=n_jobs)
        reseeded = run_campaign(specs, seed1)
        assert [o.status for o in reseeded.outcomes] == ["completed"] * 3
        assert reseeded.metrics == uncached.metrics
        assert reseeded.metrics != cold.metrics
        # Both seeds' lines now share the log; each campaign stays warm.
        for config, expected in [(seed1, uncached), (seed0, cold), (seed1, uncached)]:
            again = run_campaign(specs, config)
            assert [o.status for o in again.outcomes] == ["cached"] * 3
            assert again.metrics == expected.metrics

    def test_cached_outcomes_have_zero_attempts(self, tmp_path):
        specs = campaign_specs("fig15")[:2]
        config = CampaignConfig(cache_dir=tmp_path)
        run_campaign(specs, config)
        warm = run_campaign(specs, config)
        assert all(o.status == "cached" and o.attempts == 0
                   for o in warm.outcomes)


class TestFaultTolerance:
    def test_failing_job_exhausts_retries(self):
        result = run_campaign(
            [JobSpec(kind="test.fail")],
            CampaignConfig(max_retries=2, backoff_s=0.0),
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3  # first try + 2 retries
        assert "always broken" in outcome.error
        assert result.manifest.failed == 1
        assert result.manifest.retries == 2

    def test_flaky_job_recovers_on_retry(self):
        _FLAKY_CALLS["count"] = 0
        result = run_campaign(
            [JobSpec.with_params("test.flaky", {"failures": 2})],
            CampaignConfig(max_retries=2, backoff_s=0.0),
        )
        outcome = result.outcomes[0]
        assert outcome.status == "completed"
        assert outcome.attempts == 3
        assert outcome.metrics == {"ok": 1.0}

    def test_failure_does_not_poison_other_jobs(self):
        specs = [
            JobSpec(kind="test.echo", seed=0),
            JobSpec(kind="test.fail"),
            JobSpec(kind="test.echo", seed=2),
        ]
        result = run_campaign(specs, CampaignConfig(max_retries=0, backoff_s=0.0))
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["completed", "failed", "completed"]
        with pytest.raises(CampaignError, match="1/3"):
            result.raise_on_failure()

    def test_worker_crash_then_serial_failure_keeps_last_error(self, monkeypatch):
        """Regression: when a fleet worker hard-crashes, no replacement can
        start and the in-process retry also fails, the outcome must retain
        the last error string, not a blank."""
        start = multiprocessing.process.BaseProcess.start
        started = []

        def one_process(self):
            if started:
                raise OSError("no more processes in this sandbox")
            started.append(self)
            start(self)

        monkeypatch.setattr("multiprocessing.process.BaseProcess.start", one_process)
        result = run_campaign(
            [JobSpec(kind="test.worker_crash")],
            CampaignConfig(n_jobs=2, max_retries=1, backoff_s=0.0),
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.error and outcome.error.strip()
        assert "serial fallback also failing" in outcome.error

    def test_worker_crash_without_retry_budget_reports_the_lost_attempt(self):
        # The crash spent the only attempt: the job fails without running
        # again (not even in-process), and says why, never blank.
        result = run_campaign(
            [JobSpec(kind="test.worker_crash")],
            CampaignConfig(n_jobs=2, max_retries=0, backoff_s=0.0),
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "lost to dead or overrunning workers" in outcome.error

    def test_unknown_kind_fails_cleanly(self):
        result = run_campaign(
            [JobSpec(kind="no.such.kind")],
            CampaignConfig(max_retries=0, backoff_s=0.0),
        )
        assert result.outcomes[0].status == "failed"
        assert "no job runner" in result.outcomes[0].error

    def test_pool_unavailable_degrades_to_serial(self, monkeypatch):
        """When no worker process can start, every job runs in-process
        with the metrics of a serial run."""

        def no_processes(self):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            "multiprocessing.process.BaseProcess.start", no_processes
        )
        specs = _mc_specs(3)
        result = run_campaign(specs, CampaignConfig(n_jobs=4))
        assert all(o.status == "completed" for o in result.outcomes)
        baseline = run_campaign(specs, CampaignConfig(n_jobs=1))
        assert result.metrics == baseline.metrics
        assert _counters(result) == _counters(baseline)
        assert [o.attempts for o in result.outcomes] == [1, 1, 1]


class TestOutcomeParity:
    """Serial and ``n_jobs`` runs account one campaign alike."""

    def test_statuses_attempts_and_counters_match_across_paths(self, tmp_path):
        cached = _mc_specs(1)[0]
        specs = [cached, *_mc_specs(3)[1:], JobSpec(kind="test.fail")]
        runs = {}
        for path, n_jobs in (("serial", 1), ("jobs", 2)):
            config = CampaignConfig(
                cache_dir=tmp_path / path,
                max_retries=2,
                backoff_s=0.0,
                n_jobs=n_jobs,
            )
            run_campaign([cached], config)
            runs[path] = run_campaign(specs, config)
        for result in runs.values():
            assert [o.status for o in result.outcomes] == [
                "cached", "completed", "completed", "failed",
            ]
            assert [o.attempts for o in result.outcomes] == [0, 1, 1, 3]
            assert _counters(result) == (4, 2, 1, 0, 1, 2)
            assert all(o.duration_s > 0.0 for o in result.outcomes[1:])
        assert runs["jobs"].metrics == runs["serial"].metrics


class TestRetryBackoff:
    """Fake-clock assertions on the serial retry schedule (ISSUE 5)."""

    def _captured_sleeps(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            executor_module.time, "sleep", lambda s: sleeps.append(s)
        )
        return sleeps

    def test_exponential_backoff_schedule(self, monkeypatch):
        sleeps = self._captured_sleeps(monkeypatch)
        run_campaign(
            [JobSpec(kind="test.fail")],
            CampaignConfig(max_retries=3, backoff_s=0.05),
        )
        assert sleeps == [0.05, 0.1, 0.2]

    def test_backoff_doubles_from_configured_base(self, monkeypatch):
        sleeps = self._captured_sleeps(monkeypatch)
        run_campaign(
            [JobSpec(kind="test.fail")],
            CampaignConfig(max_retries=4, backoff_s=0.5),
        )
        assert sleeps == [0.5, 1.0, 2.0, 4.0]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        sleeps = self._captured_sleeps(monkeypatch)
        run_campaign(
            [JobSpec(kind="test.fail")],
            CampaignConfig(max_retries=3, backoff_s=0.0),
        )
        assert sleeps == []

    def test_budget_exhaustion_retains_last_error(self, monkeypatch):
        self._captured_sleeps(monkeypatch)
        result = run_campaign(
            [JobSpec(kind="test.fail")],
            CampaignConfig(max_retries=2, backoff_s=1.0),
        )
        outcome = result.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3
        assert "always broken" in outcome.error

    def test_retry_reexecutes_exactly_the_failed_jobs(self, tmp_path):
        """A job that erred on a fleet worker is retried; the jobs that
        succeeded are never re-executed."""
        counts = tmp_path / "counts"
        counts.mkdir()
        flaky = JobSpec.with_params(
            "test.flaky_marked", {"dir": str(counts)}, seed=0
        )
        steady = [
            JobSpec.with_params("test.counted_echo", {"dir": str(counts)}, seed=i)
            for i in range(1, 4)
        ]
        result = run_campaign(
            [flaky] + steady,
            CampaignConfig(n_jobs=2, max_retries=1, backoff_s=0.0),
        )
        assert [o.status for o in result.outcomes] == ["completed"] * 4
        executions = {
            p.name: len(p.read_text().splitlines()) for p in counts.iterdir()
        }
        assert executions[flaky.fingerprint()] == 2  # failure + retry
        for spec in steady:
            assert executions[spec.fingerprint()] == 1


_ABORTED = "aborted: campaign failure budget (max_failures=2) exhausted"


class TestFailureBudget:
    @pytest.mark.parametrize("n_specs", [6, 200])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_max_failures_aborts_remaining_jobs(self, n_jobs, n_specs):
        specs = [JobSpec(kind="test.fail", seed=i) for i in range(n_specs)]
        result = run_campaign(
            specs,
            CampaignConfig(
                max_retries=0, backoff_s=0.0, max_failures=2, n_jobs=n_jobs
            ),
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["failed"] * n_specs
        executed = [o for o in result.outcomes if o.attempts > 0]
        aborted = [o for o in result.outcomes if o.attempts == 0]
        assert len(executed) == 2
        assert len(aborted) == n_specs - 2
        assert all(o.error == _ABORTED for o in aborted)
        assert result.manifest.interrupted is False

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_abort_is_journaled_as_failures(self, tmp_path, n_jobs):
        """Every aborted job leaves a ``failed`` record with the abort
        error, and the run closes with ``end``, not ``interrupted``."""
        specs = [JobSpec(kind="test.fail", seed=i) for i in range(6)]
        config = CampaignConfig(
            cache_dir=tmp_path, max_retries=0, backoff_s=0.0, max_failures=2,
            n_jobs=n_jobs,
        )
        result = run_campaign(specs, config)
        replay = replay_journal(result.manifest.journal)
        assert set(replay.failed) == {spec.fingerprint() for spec in specs}
        assert list(replay.failed.values()).count(_ABORTED) == 4
        assert (replay.finished_runs, replay.interrupted) == (1, False)

    def test_budget_not_hit_runs_everything(self):
        specs = [
            JobSpec(kind="test.fail"),
            JobSpec(kind="test.echo", seed=1),
            JobSpec(kind="test.echo", seed=2),
        ]
        result = run_campaign(
            specs,
            CampaignConfig(max_retries=0, backoff_s=0.0, max_failures=2),
        )
        assert [o.status for o in result.outcomes] == [
            "failed", "completed", "completed",
        ]

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            CampaignConfig(max_failures=0)


class TestManifestRegistry:
    """drain_manifests must be thread-safe and drain in start order."""

    def test_drain_returns_start_order_not_completion_order(self):
        drain_manifests()
        barrier = threading.Barrier(3)
        # Stagger durations so completion order (2, 1, 0) reverses start
        # order; the drain must still follow start order (0, 1, 2).
        durations = {0: 0.5, 1: 0.25, 2: 0.0}

        def run_one(tag):
            barrier.wait()
            time.sleep(0.05 * tag)  # deterministic claim order by tag
            specs = [
                JobSpec.with_params(
                    "test.sleeper", {"sleep_s": str(durations[tag])}, seed=tag
                )
            ]
            run_campaign(specs, CampaignConfig(campaign_seed=tag))

        threads = [
            threading.Thread(target=run_one, args=(tag,)) for tag in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        drained = drain_manifests()
        assert [m.campaign_seed for m in drained] == [0, 1, 2]

    def test_drain_clears_and_is_reentrant(self):
        drain_manifests()
        run_campaign([JobSpec(kind="test.echo")], CampaignConfig())
        assert len(drain_manifests()) == 1
        assert drain_manifests() == []

    def test_concurrent_drains_never_duplicate(self):
        drain_manifests()
        for seed in range(8):
            run_campaign(
                [JobSpec(kind="test.echo", seed=seed)],
                CampaignConfig(campaign_seed=seed),
            )
        collected = []
        lock = threading.Lock()

        def drain_some():
            got = drain_manifests()
            with lock:
                collected.extend(got)

        threads = [threading.Thread(target=drain_some) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(collected) == 8
        assert [m.campaign_seed for m in collected] == sorted(
            m.campaign_seed for m in collected
        )
