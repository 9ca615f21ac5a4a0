"""Multi-worker chaos: SIGKILL a fleet worker mid-shard and prove its
shard is taken over at once, the campaign finishes, and the merged
manifest is byte-identical to an uninterrupted single-process run — with
a short lease and with a long one."""

import json
import os
import signal
import threading
import time

import pytest

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec
from repro.runtime.journal import campaign_fingerprint
from repro.runtime.shard import shard_root, write_results_manifest
from repro.runtime.cache import ResultCache


def _specs(n=8, n_bits=2_000_000):
    """Jobs slow enough (~0.2s) that a worker is reliably mid-shard when
    the chaos monkey strikes."""
    return [
        JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "6.0", "n_bits": str(n_bits)}, seed=i
        )
        for i in range(n)
    ]


def _lease_pids(root):
    """Worker pids that have ever appended a lease record."""
    pids = set()
    if not root.is_dir():
        return pids
    for path in root.glob("shard-*.jsonl"):
        try:
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        except OSError:
            continue
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("event") == "lease"
                and isinstance(record.get("pid"), int)
            ):
                pids.add(record["pid"])
    return pids


def _run_with_chaos_monkey(run, root):
    """Run ``run()`` in a thread and SIGKILL the first worker process that
    appends a lease record under ``root`` — it is mid-shard by
    construction.  Returns (result, seconds the campaign took)."""
    outcome: dict = {}

    def coordinate():
        try:
            outcome["result"] = run()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            outcome["error"] = exc

    started = time.monotonic()
    thread = threading.Thread(target=coordinate, daemon=True)
    thread.start()
    own = os.getpid()
    victim = None
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and victim is None:
        foreign = [pid for pid in _lease_pids(root) if pid != own]
        if foreign:
            victim = foreign[0]
            try:
                os.kill(victim, signal.SIGKILL)
            except OSError:
                victim = None
        if "result" in outcome or "error" in outcome:
            break
        time.sleep(0.005)

    thread.join(timeout=120.0)
    assert not thread.is_alive(), "campaign did not finish"
    if "error" in outcome:
        raise outcome["error"]
    if victim is None:
        # Sandbox without process support: the coordinator drained
        # in-process, so the chaos path cannot be exercised here.
        pytest.skip("no worker process ever leased a shard")
    return outcome["result"], time.monotonic() - started


def _assert_matches_serial(tmp_path, specs, result):
    serial = run_campaign(
        specs, CampaignConfig(cache_dir=tmp_path / "serial", campaign_seed=11)
    )
    a = write_results_manifest(tmp_path / "serial.json", serial)
    b = write_results_manifest(tmp_path / "fleet.json", result)
    assert a.read_bytes() == b.read_bytes()


class TestWorkerKillSteal:
    def test_sigkilled_worker_shard_is_stolen_and_merge_is_byte_identical(
        self, tmp_path
    ):
        specs = _specs()
        cache_dir = tmp_path / "sharded"
        config = CampaignConfig(
            n_jobs=2, cache_dir=cache_dir, campaign_seed=11, timeout_s=1.0
        )
        campaign = campaign_fingerprint(
            specs, config.campaign_seed, ResultCache(cache_dir).calibration
        )
        root = shard_root(config.resolved_journal_dir(), campaign)
        result, _ = _run_with_chaos_monkey(lambda: run_campaign(specs, config), root)

        assert [o.status for o in result.outcomes] == ["completed"] * len(specs)
        assert result.manifest.steals >= 1
        assert result.manifest.interrupted is False
        _assert_matches_serial(tmp_path, specs, result)

    def test_dead_worker_lease_is_released_at_once(self, tmp_path):
        """An ``n_jobs = 2`` campaign with a 30 s lease loses a worker to
        SIGKILL: the coordinator releases the dead worker's shard at once,
        so the campaign ends far sooner than the lease would allow."""
        specs = _specs()
        cache_dir = tmp_path / "pooled"
        config = CampaignConfig(
            n_jobs=2, cache_dir=cache_dir, campaign_seed=11, timeout_s=30.0
        )
        campaign = campaign_fingerprint(
            specs, config.campaign_seed, ResultCache(cache_dir).calibration
        )
        root = shard_root(config.resolved_journal_dir(), campaign)
        result, elapsed = _run_with_chaos_monkey(
            lambda: run_campaign(specs, config), root
        )

        assert elapsed < 15.0
        assert [o.status for o in result.outcomes] == ["completed"] * len(specs)
        _assert_matches_serial(tmp_path, specs, result)
