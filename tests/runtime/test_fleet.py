"""The ``n_jobs`` worker fleet (DESIGN.md §10): the coordinator deals the
pending jobs to forked workers over pipes, re-dispatches a dead worker's
job at once, and merges the replies into results byte-identical to a
serial run; no worker outlives its coordinator."""

import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.progress import (
    CampaignProgress,
    results_manifest,
    write_results_manifest,
)

from .job_pids import record_job_pids


@register_job_runner("test.fleet_fail")
def _fleet_fail(spec, rng):
    raise RuntimeError("always broken")


@register_job_runner("test.crash_once")
def _crash_once(spec, rng):
    """Kill the worker running it the first time, succeed after."""
    marker = Path(spec.param("marker"))
    if not marker.exists():
        marker.write_text("crashed once")
        os._exit(1)
    return {"seed": spec.seed, "draw": float(rng.random())}


def _mc_specs(n, n_bits=20000):
    return [
        JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "6.0", "n_bits": str(n_bits)}, seed=i
        )
        for i in range(n)
    ]


class TestFleetCampaign:
    def test_workers_run_every_job_and_merge_matches_serial(
        self, tmp_path, monkeypatch
    ):
        specs = _mc_specs(9)
        serial = run_campaign(
            specs, CampaignConfig(cache_dir=tmp_path / "serial", campaign_seed=3)
        )
        pids = record_job_pids(monkeypatch, tmp_path / "pids")
        fleet = run_campaign(
            specs,
            CampaignConfig(n_jobs=2, cache_dir=tmp_path / "fleet", campaign_seed=3),
        )
        assert [o.status for o in fleet.outcomes] == ["completed"] * 9
        assert fleet.metrics == serial.metrics
        assert fleet.manifest.n_jobs == 2
        # Both workers got a job at once, and the coordinator ran none.
        assert len(pids()) == 2 and os.getpid() not in pids()
        a = write_results_manifest(tmp_path / "serial.json", serial)
        b = write_results_manifest(tmp_path / "fleet.json", fleet)
        assert a.read_bytes() == b.read_bytes()

    def test_forks_at_most_one_worker_per_pending_job(self, monkeypatch):
        start = multiprocessing.process.BaseProcess.start
        started = []

        def counted(self):
            started.append(self)
            start(self)

        monkeypatch.setattr("multiprocessing.process.BaseProcess.start", counted)
        result = run_campaign(_mc_specs(2), CampaignConfig(n_jobs=4))
        assert [o.status for o in result.outcomes] == ["completed"] * 2
        assert len(started) == 2

    def test_a_timeout_beyond_what_poll_takes_is_honored(self):
        """A finite timeout too long for one ``poll`` call (about 25 days)
        is valid and never fires on a short campaign."""
        result = run_campaign(_mc_specs(3), CampaignConfig(n_jobs=2, timeout_s=1e10))
        assert [o.status for o in result.outcomes] == ["completed"] * 3

    def test_submission_order_does_not_change_results(self):
        specs = _mc_specs(12)
        shuffled = list(specs)
        random.Random(3).shuffle(shuffled)
        forward = run_campaign(specs, CampaignConfig(n_jobs=2))
        backward = run_campaign(shuffled, CampaignConfig(n_jobs=2))
        by_job = dict(zip(shuffled, backward.metrics))
        assert forward.metrics == [by_job[spec] for spec in specs]

    def test_rerun_serves_cache_hits_and_resume_replays_the_journal(self, tmp_path):
        """A rerun of the same fleet campaign recomputes nothing: its
        jobs are cache hits, or journal-verified resumes with ``resume``,
        and the merge is byte-identical."""
        specs = _mc_specs(6)
        config = CampaignConfig(n_jobs=2, cache_dir=tmp_path, campaign_seed=1)
        first = run_campaign(specs, config)
        second = run_campaign(specs, config)
        resumed = run_campaign(specs, replace(config, resume=True))
        assert first.manifest.completed == 6
        assert (second.manifest.cached, second.manifest.completed) == (6, 0)
        assert (resumed.manifest.resumed, resumed.manifest.completed) == (6, 0)
        assert second.metrics == resumed.metrics == first.metrics
        assert results_manifest(second) == results_manifest(first)
        assert results_manifest(resumed) == results_manifest(first)

    def test_mixed_failures_merge_in_submission_order(self, tmp_path):
        specs = _mc_specs(4) + [JobSpec(kind="test.fleet_fail", seed=9)]
        config = CampaignConfig(
            n_jobs=2, cache_dir=tmp_path, max_retries=0, backoff_s=0.0
        )
        result = run_campaign(specs, config)
        assert [o.spec for o in result.outcomes] == specs
        assert [o.status for o in result.outcomes] == ["completed"] * 4 + ["failed"]
        assert result.manifest.failed == 1

    def test_dead_worker_costs_its_job_one_attempt(self, tmp_path, monkeypatch):
        specs = [
            JobSpec.with_params(
                "test.crash_once", {"marker": str(tmp_path / "marker")}, seed=0
            )
        ] + _mc_specs(3)
        pids = record_job_pids(monkeypatch, tmp_path / "pids")
        result = run_campaign(specs, CampaignConfig(n_jobs=2, backoff_s=0.0))
        assert [o.status for o in result.outcomes] == ["completed"] * 4
        assert [o.attempts for o in result.outcomes] == [2, 1, 1, 1]
        assert os.getpid() not in pids()
        serial = run_campaign(specs, CampaignConfig())
        assert result.metrics == serial.metrics

    def test_on_progress_gets_the_campaign_progress_after_each_settle(
        self, tmp_path
    ):
        """``run_campaign`` hands its ``on_progress`` callback the
        campaign's counters each time the fleet settles a job; the
        pre-pass's cache hits are already in them."""
        specs = _mc_specs(7)
        config = CampaignConfig(n_jobs=2, cache_dir=tmp_path)
        run_campaign(specs[:2], config)  # two cache hits for the pre-pass
        seen = []
        result = run_campaign(
            specs, config, on_progress=lambda p: seen.append((p, p.settled))
        )
        assert (result.manifest.cached, result.manifest.completed) == (2, 5)
        assert all(isinstance(p, CampaignProgress) and p.total == 7 for p, _ in seen)
        assert [settled for _, settled in seen] == [3, 4, 5, 6, 7]

    def test_serial_run_never_calls_on_progress(self):
        seen = []
        run_campaign(_mc_specs(2), CampaignConfig(), on_progress=seen.append)
        assert seen == []


class TestFleetManifest:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_placement_stays_out_of_the_manifest(self, tmp_path, n_jobs):
        """Where jobs ran is not part of the run manifest: serial and
        fleet runs report the same fields."""
        specs = _mc_specs(11)
        config = CampaignConfig(n_jobs=n_jobs, cache_dir=tmp_path)
        run_campaign(specs[:1], config)  # one cache hit: 10 jobs pending
        data = run_campaign(specs, config).manifest.to_dict()
        assert data["n_jobs"] == n_jobs
        assert not {"shards", "steals", "workers"} & set(data)


# --------------------------------------------------------------------------
# Chaos: SIGKILL a fleet worker mid-campaign.


def _slow_specs(n=8, n_bits=2_000_000):
    """Jobs slow enough (~0.2s) that a worker is reliably mid-job when
    the chaos monkey strikes."""
    return _mc_specs(n, n_bits)


def _children():
    """Pids of this process's children, whichever thread forked them."""
    pids = set()
    for path in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids.update(int(pid) for pid in path.read_text().split())
        except OSError:
            continue
    return pids


def _journal_has_done(cache_dir):
    return any(
        '"event":"done"' in path.read_text(encoding="utf-8", errors="replace")
        for path in (cache_dir / "journal").glob("*.jsonl")
    )


def _run_with_chaos_monkey(run, cache_dir):
    """Run ``run()`` in a thread and SIGKILL one fleet worker once the
    campaign journal holds its first ``done`` record.  Returns (result,
    seconds the campaign took)."""
    outcome: dict = {}

    def coordinate():
        try:
            outcome["result"] = run()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            outcome["error"] = exc

    started = time.monotonic()
    thread = threading.Thread(target=coordinate, daemon=True)
    thread.start()
    victim = None
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and victim is None:
        if "result" in outcome or "error" in outcome:
            break
        workers = sorted(_children())
        if workers and _journal_has_done(cache_dir):
            try:
                os.kill(workers[0], signal.SIGKILL)
                victim = workers[0]
            except OSError:
                pass
        time.sleep(0.005)

    thread.join(timeout=120.0)
    assert not thread.is_alive(), "campaign did not finish"
    if "error" in outcome:
        raise outcome["error"]
    if victim is None:
        # No fleet worker was ever seen (a sandbox without process
        # support, or no /proc), so the chaos path cannot run here.
        pytest.skip("no fleet worker to kill")
    return outcome["result"], time.monotonic() - started


def _assert_matches_serial(tmp_path, specs, result):
    serial = run_campaign(
        specs, CampaignConfig(cache_dir=tmp_path / "serial", campaign_seed=11)
    )
    a = write_results_manifest(tmp_path / "serial.json", serial)
    b = write_results_manifest(tmp_path / "fleet.json", result)
    assert a.read_bytes() == b.read_bytes()


class TestWorkerKill:
    def test_sigkilled_worker_job_is_rerun_and_merge_is_byte_identical(
        self, tmp_path
    ):
        specs = _slow_specs()
        cache_dir = tmp_path / "fleet"
        config = CampaignConfig(
            n_jobs=2, cache_dir=cache_dir, campaign_seed=11, timeout_s=1.0
        )
        result, _ = _run_with_chaos_monkey(lambda: run_campaign(specs, config), cache_dir)

        assert [o.status for o in result.outcomes] == ["completed"] * len(specs)
        assert result.manifest.interrupted is False
        _assert_matches_serial(tmp_path, specs, result)

    def test_dead_worker_job_is_redispatched_at_once(self, tmp_path):
        """An ``n_jobs = 2`` campaign with a 30 s job timeout loses a
        worker to SIGKILL: the coordinator re-dispatches its job at once,
        so the campaign ends far sooner than the timeout would allow."""
        specs = _slow_specs()
        cache_dir = tmp_path / "pooled"
        config = CampaignConfig(
            n_jobs=2, cache_dir=cache_dir, campaign_seed=11, timeout_s=30.0
        )
        result, elapsed = _run_with_chaos_monkey(
            lambda: run_campaign(specs, config), cache_dir
        )

        assert elapsed < 15.0
        assert [o.status for o in result.outcomes] == ["completed"] * len(specs)
        _assert_matches_serial(tmp_path, specs, result)


# --------------------------------------------------------------------------
# No orphans: SIGKILL the coordinator itself.

_ORPHAN_DRIVER = '''
import os
import sys
import time
from pathlib import Path

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner


@register_job_runner("orphans.slow_pid")
def _slow_pid(spec, rng):
    Path(spec.param("dir"), str(os.getpid())).touch()
    time.sleep(0.3)
    return {"seed": spec.seed}


specs = [
    JobSpec.with_params("orphans.slow_pid", {"dir": sys.argv[1]}, seed=i)
    for i in range(40)
]
run_campaign(specs, CampaignConfig(n_jobs=2))
'''


def _running(pid):
    """Whether ``pid`` is a live process (a zombie nobody reaps is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_worker_outlives_its_coordinator(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(_ORPHAN_DRIVER)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    proc = subprocess.Popen([sys.executable, str(script), str(pid_dir)], env=env)
    deadline = time.monotonic() + 60.0
    try:
        while len(list(pid_dir.iterdir())) < 2:
            if proc.poll() is not None:
                pytest.fail("campaign finished before both workers ran a job")
            if time.monotonic() > deadline:
                pytest.fail("both workers never started a job")
            time.sleep(0.02)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

    workers = {int(path.name) for path in pid_dir.iterdir()}
    assert proc.pid not in workers and len(workers) == 2
    try:
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
