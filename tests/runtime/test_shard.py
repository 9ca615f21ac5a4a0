"""The ``n_jobs`` worker fleet: deterministic partition, the journal
lease protocol, work stealing, the failure budget and the byte-identical
merge (DESIGN.md §10)."""

import json
import random
from dataclasses import replace

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.progress import ShardBoard
from repro.runtime.shard import (
    ShardJournal,
    ShardPlan,
    claim_shard,
    partition_shards,
    replay_shard_journal,
    results_manifest,
    shard_journal_path,
    write_results_manifest,
)


@register_job_runner("test.shard_fail")
def _shard_fail(spec, rng):
    raise RuntimeError("always broken")


def _mc_specs(n, n_bits=20000):
    return [
        JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "6.0", "n_bits": str(n_bits)}, seed=i
        )
        for i in range(n)
    ]


def _fingerprint_sets(specs, shards):
    return {
        frozenset(specs[i].fingerprint() for i in shard) for shard in shards
    }


class TestPartition:
    def test_pure_function_of_the_job_set(self):
        specs = _mc_specs(17)
        shuffled = list(specs)
        random.Random(3).shuffle(shuffled)
        assert _fingerprint_sets(specs, partition_shards(specs, 4)) == (
            _fingerprint_sets(shuffled, partition_shards(shuffled, 4))
        )

    def test_covers_every_spec_exactly_once(self):
        specs = _mc_specs(10)
        shards = partition_shards(specs, 3)
        covered = sorted(i for shard in shards for i in shard)
        assert covered == list(range(10))

    def test_small_campaigns_drop_empty_shards(self):
        specs = _mc_specs(3)
        shards = partition_shards(specs, 8)
        assert len(shards) == 3
        assert all(len(shard) == 1 for shard in shards)

    def test_single_shard(self):
        specs = _mc_specs(5)
        assert partition_shards(specs, 1) == [
            sorted(range(5), key=lambda i: specs[i].fingerprint())
        ]

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            partition_shards(_mc_specs(2), 0)


class TestShardPlan:
    def test_shard_specs_in_submission_order(self, tmp_path):
        specs = _mc_specs(6)
        plan = ShardPlan(
            specs=tuple(specs),
            shards=tuple(tuple(s) for s in partition_shards(specs, 2)),
            root=tmp_path,
            cache=ResultCache(tmp_path / "cache"),
            journal=None,
            campaign="abcd",
            config=CampaignConfig(n_jobs=2, campaign_seed=7, timeout_s=5.0),
        )
        assert plan.lease_s == 5.0
        for index in range(len(plan.shards)):
            members = plan.shard_specs(index)
            assert [i for i, _ in members] == sorted(i for i, _ in members)


class TestLeaseProtocol:
    def test_claim_then_contender_denied(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        claim = claim_shard(path, "w0", lease_s=30.0, now=100.0)
        assert claim is not None
        claim[0].close()
        assert claim_shard(path, "w1", lease_s=30.0, now=101.0) is None

    def test_same_worker_renews(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        first = claim_shard(path, "w0", lease_s=30.0, now=100.0)
        first[0].close()
        renewed = claim_shard(path, "w0", lease_s=30.0, now=110.0)
        assert renewed is not None
        renewed[0].close()
        state = replay_shard_journal(path)
        assert state.holder == "w0"
        assert state.deadline == 140.0
        assert state.steals == 0

    def test_expired_lease_is_stolen(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        claim_shard(path, "w0", lease_s=5.0, now=100.0)[0].close()
        stolen = claim_shard(path, "w1", lease_s=5.0, now=106.0)
        assert stolen is not None
        stolen[0].close()
        state = replay_shard_journal(path)
        assert state.holder == "w1"
        assert state.steals == 1

    def test_release_hands_over_without_a_steal(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        journal, _, nonce = claim_shard(path, "w0", lease_s=30.0, now=100.0)
        journal.release("w0", nonce)
        journal.close()
        claim = claim_shard(path, "w1", lease_s=30.0, now=101.0)
        assert claim is not None
        claim[0].close()
        assert replay_shard_journal(path).steals == 0

    def test_contending_claims_agree_on_one_winner(self, tmp_path):
        """Both racers append, both re-read: the grant rule is a pure
        function of the byte order, so exactly one sees itself granted."""
        path = tmp_path / "shard-0000.jsonl"
        a = ShardJournal(path, campaign="")
        b = ShardJournal(path, campaign="")
        a.lease("wa", 100.0, 130.0, "na")
        b.lease("wb", 100.0, 130.0, "nb")
        a.close()
        b.close()
        state = replay_shard_journal(path)
        assert state.holder == "wa"  # first append in the total order wins

    def test_lost_release_frees_the_shard_at_once_and_counts_a_steal(
        self, tmp_path
    ):
        """The coordinator releases a dead worker's unexpired lease on its
        behalf: the shard is claimable immediately, and the takeover is
        counted as a steal."""
        path = tmp_path / "shard-0000.jsonl"
        journal, _, nonce = claim_shard(path, "w0", lease_s=30.0, now=100.0)
        journal.close()
        with ShardJournal(path, campaign="") as coordinator:
            coordinator.release("w0", nonce, lost=True)
        claim = claim_shard(path, "w1", lease_s=30.0, now=101.0)
        assert claim is not None
        claim[0].close()
        state = replay_shard_journal(path)
        assert state.holder == "w1"
        assert state.steals == 1

    def test_lease_without_timeout_never_expires(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        claim_shard(path, "w0", lease_s=float("inf"), now=100.0)[0].close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["deadline"] is None
        assert claim_shard(path, "w1", lease_s=30.0, now=1e12) is None
        assert replay_shard_journal(path).leased(1e12)

    @pytest.mark.parametrize("finished", [False, True])
    def test_stalled_claimant_sees_what_was_settled_meanwhile(
        self, tmp_path, monkeypatch, finished
    ):
        """A claimant descheduled between its first read and its claim
        must not re-run what a faster holder settled in between."""
        import repro.runtime.shard as shard_module

        path = tmp_path / "shard-0000.jsonl"
        spec = _mc_specs(1)[0]
        read = shard_module.replay_shard_journal

        def stall(journal_path):
            state = read(journal_path)
            monkeypatch.setattr(shard_module, "replay_shard_journal", read)
            with ShardJournal(journal_path, campaign="") as faster:
                faster.lease("w0", 100.0, 130.0, "n0")
                faster.dispatched(spec)
                faster.done(spec, "c0")
                if finished:
                    faster.end(completed=1, failed=0, skipped=0)
                faster.release("w0", "n0")
            return state

        monkeypatch.setattr(shard_module, "replay_shard_journal", stall)
        claim = claim_shard(path, "w1", lease_s=30.0, now=101.0)
        if finished:
            assert claim is None
            assert replay_shard_journal(path).holder is None
        else:
            journal, state, _ = claim
            journal.close()
            assert state.done == {spec.fingerprint(): "c0"}

    def test_finished_shard_not_claimable(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        journal = ShardJournal(path, campaign="")
        journal.end(completed=3, failed=0, skipped=0)
        journal.close()
        assert claim_shard(path, "w0", lease_s=30.0, now=100.0) is None


class TestShardJournalFuzz:
    """Same torn-write tolerance as the campaign journal, with lease
    records in the interleaved stream."""

    def test_fuzzed_corruption_keeps_done_and_lease_sanity(self, tmp_path):
        specs = _mc_specs(10)
        for trial in range(15):
            rng = random.Random(trial)
            path = tmp_path / f"shard-{trial:04d}.jsonl"
            writers = [ShardJournal(path, ""), ShardJournal(path, "")]
            for i, spec in enumerate(specs):
                writer = writers[rng.randrange(2)]
                if i % 3 == 0:
                    writer.lease(f"w{rng.randrange(2)}", 100.0 + i, 200.0 + i, f"n{i}")
                writer.dispatched(spec)
                writer.done(spec, f"ck{i}")
            for writer in writers:
                writer.close()
            lines = path.read_text(encoding="utf-8").splitlines()
            victim = rng.randrange(len(lines) - 1)
            lines[victim] = "\x00{{{ not json"
            lines[-1] = lines[-1][: -rng.randrange(1, len(lines[-1]))]
            path.write_text("\n".join(lines), encoding="utf-8")
            state = replay_shard_journal(path)  # must not raise
            assert state.malformed_lines >= 1
            surviving = {
                json.loads(line)["job"]: json.loads(line)["checksum"]
                for keep, line in enumerate(lines)
                if keep not in (victim, len(lines) - 1)
                and json.loads(line).get("event") == "done"
            }
            assert set(surviving) <= set(state.done)
            for job, checksum in surviving.items():
                assert state.done[job] == checksum


def _drained(monkeypatch):
    """Forbid worker processes, forcing the coordinator's in-process
    drain, so sharded semantics are testable without a fleet."""

    def no_processes(self):
        raise OSError("no processes in this sandbox")

    monkeypatch.setattr("multiprocessing.process.BaseProcess.start", no_processes)


class TestShardedCampaign:
    def test_drain_completes_and_matches_serial(self, tmp_path, monkeypatch):
        _drained(monkeypatch)
        specs = _mc_specs(9)
        serial = run_campaign(
            specs, CampaignConfig(cache_dir=tmp_path / "serial", campaign_seed=3)
        )
        sharded = run_campaign(
            specs,
            CampaignConfig(n_jobs=2, cache_dir=tmp_path / "sharded", campaign_seed=3),
        )
        assert [o.status for o in sharded.outcomes] == ["completed"] * 9
        assert sharded.metrics == serial.metrics
        assert sharded.manifest.shards == 8  # min(pending, 4 * n_jobs)
        assert sharded.manifest.n_jobs == 2
        a = write_results_manifest(tmp_path / "serial.json", serial)
        b = write_results_manifest(tmp_path / "sharded.json", sharded)
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_serves_cache_hits_and_resume_replays_the_journal(
        self, tmp_path, monkeypatch
    ):
        """A rerun of the same fleet campaign recomputes nothing: its
        jobs are cache hits, or journal-verified resumes with ``resume``,
        and the merge is byte-identical."""
        _drained(monkeypatch)
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

    def test_global_failure_budget_aborts_with_interrupted_records(
        self, tmp_path, monkeypatch
    ):
        _drained(monkeypatch)
        specs = [JobSpec(kind="test.shard_fail", seed=i) for i in range(6)]
        config = CampaignConfig(
            n_jobs=2, cache_dir=tmp_path, max_retries=0, backoff_s=0.0,
            max_failures=2,
        )
        result = run_campaign(specs, config)
        assert result.manifest.interrupted
        assert len(result.failures) == 6
        from repro.runtime.journal import campaign_fingerprint
        from repro.runtime.shard import shard_root

        campaign = campaign_fingerprint(specs, 0, ResultCache(tmp_path).calibration)
        root = shard_root(config.resolved_journal_dir(), campaign)
        states = [
            replay_shard_journal(shard_journal_path(root, i))
            for i in range(result.manifest.shards)
        ]
        assert any(s.interrupted for s in states)
        assert all(s.finished or s.interrupted for s in states)

    def test_mixed_failures_merge_in_submission_order(self, tmp_path, monkeypatch):
        _drained(monkeypatch)
        specs = _mc_specs(4) + [JobSpec(kind="test.shard_fail", seed=9)]
        config = CampaignConfig(
            n_jobs=2, cache_dir=tmp_path, max_retries=0, backoff_s=0.0
        )
        result = run_campaign(specs, config)
        assert [o.spec for o in result.outcomes] == specs
        assert [o.status for o in result.outcomes] == ["completed"] * 4 + ["failed"]
        assert result.manifest.failed == 1

    def test_on_progress_gets_a_board_of_the_pending_jobs(
        self, tmp_path, monkeypatch
    ):
        """``run_campaign`` hands its ``on_progress`` callback the live
        board of a fleet run, covering exactly the jobs the pre-pass left
        pending."""
        _drained(monkeypatch)
        specs = _mc_specs(7)
        config = CampaignConfig(n_jobs=2, cache_dir=tmp_path)
        run_campaign(specs[:2], config)  # two cache hits for the pre-pass
        boards = []
        result = run_campaign(specs, config, on_progress=boards.append)
        assert (result.manifest.cached, result.manifest.completed) == (2, 5)
        assert boards and all(isinstance(b, ShardBoard) for b in boards)
        assert {board.total for board in boards} == {5}
        assert len(boards[-1].snapshots) == result.manifest.shards

    def test_serial_run_never_calls_on_progress(self):
        boards = []
        run_campaign(_mc_specs(2), CampaignConfig(), on_progress=boards.append)
        assert boards == []


class TestFleetManifest:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_fleet_fields_only_on_fleet_runs(self, tmp_path, monkeypatch, n_jobs):
        """``n_jobs = 1`` runs in-process and leaves the fleet fields out;
        an ``n_jobs = 2`` fleet reports its shards and steals."""
        _drained(monkeypatch)
        specs = _mc_specs(11)
        config = CampaignConfig(n_jobs=n_jobs, cache_dir=tmp_path)
        run_campaign(specs[:1], config)  # one cache hit: 10 jobs pending
        data = run_campaign(specs, config).manifest.to_dict()
        assert data["n_jobs"] == n_jobs
        if n_jobs == 1:
            assert "shards" not in data and "steals" not in data
        else:
            assert data["shards"] == min(10, 4 * n_jobs)
            assert data["steals"] == 0
        assert "workers" not in data


class TestResultsManifest:
    def test_wall_clock_free_and_canonical(self, tmp_path):
        specs = _mc_specs(3)
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
        specs = [JobSpec(kind="test.shard_fail", seed=0)]
        result = run_campaign(
            specs,
            CampaignConfig(cache_dir=tmp_path, max_retries=0, backoff_s=0.0),
        )
        manifest = results_manifest(result)
        assert manifest["jobs"][0]["status"] == "failed"
        assert "RuntimeError" in manifest["jobs"][0]["error"]
