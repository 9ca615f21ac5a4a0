"""Unit tests for the write-ahead campaign journal."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.journal import (
    CampaignJournal,
    campaign_fingerprint,
    metrics_checksum,
    replay_journal,
)


def _specs(n=3):
    return [JobSpec(kind="test.echo", seed=i) for i in range(n)]


@register_job_runner("test.durable_draw")
def _durable_draw(spec, rng):
    if spec.param("interrupt") == "yes":
        raise KeyboardInterrupt
    return {"seed": spec.seed, "draw": float(rng.random())}


class TestChecksum:
    def test_stable_across_key_order(self):
        assert metrics_checksum({"a": 1, "b": 2.5}) == metrics_checksum(
            {"b": 2.5, "a": 1}
        )

    def test_survives_json_roundtrip(self):
        metrics = {"gain": 1.4298816935886345, "nan": float("nan"), "n": 3}
        roundtripped = json.loads(json.dumps(metrics))
        assert metrics_checksum(metrics) == metrics_checksum(roundtripped)

    def test_sensitive_to_payload(self):
        assert metrics_checksum({"a": 1}) != metrics_checksum({"a": 2})


class TestCampaignFingerprint:
    def test_order_independent(self):
        specs = _specs()
        assert campaign_fingerprint(specs, 0, "cal") == campaign_fingerprint(
            list(reversed(specs)), 0, "cal"
        )

    def test_keyed_by_seed_and_calibration(self):
        specs = _specs()
        base = campaign_fingerprint(specs, 0, "cal")
        assert campaign_fingerprint(specs, 1, "cal") != base
        assert campaign_fingerprint(specs, 0, "other") != base
        assert campaign_fingerprint(specs[:-1], 0, "cal") != base


class TestJournalRoundtrip:
    def test_lifecycle_replay(self, tmp_path):
        specs = _specs()
        with CampaignJournal(tmp_path / "j.jsonl", "fp") as journal:
            journal.begin(3, campaign_seed=7, calibration="cal")
            for spec in specs:
                journal.dispatched(spec)
            journal.done(specs[0], "aaa")
            journal.failed(specs[1], "boom")
            journal.end(completed=1, failed=1, skipped=0)
        replay = replay_journal(tmp_path / "j.jsonl")
        assert replay.campaign == "fp"
        assert replay.runs == 1
        assert replay.finished_runs == 1
        assert replay.done == {specs[0].fingerprint(): "aaa"}
        assert replay.failed == {specs[1].fingerprint(): "boom"}
        assert replay.in_flight() == {specs[2].fingerprint()}
        assert replay.malformed_lines == 0

    def test_done_supersedes_failed(self, tmp_path):
        spec = _specs(1)[0]
        with CampaignJournal(tmp_path / "j.jsonl", "fp") as journal:
            journal.failed(spec, "first attempt")
            journal.done(spec, "ok-sum")
        replay = replay_journal(tmp_path / "j.jsonl")
        assert replay.done == {spec.fingerprint(): "ok-sum"}
        assert replay.failed == {}

    def test_multiple_runs_accumulate(self, tmp_path):
        specs = _specs(2)
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.begin(2, 0, "cal")
            journal.done(specs[0], "a")
            journal.interrupted("SIGTERM", settled=1)
        with CampaignJournal(path, "fp") as journal:
            journal.begin(2, 0, "cal")
            journal.done(specs[1], "b")
            journal.end(1, 0, 1)
        replay = replay_journal(path)
        assert replay.runs == 2
        assert replay.finished_runs == 1
        assert replay.interrupted
        assert len(replay.done) == 2


class TestCrashTolerance:
    def test_missing_file_replays_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "never-written.jsonl")
        assert replay.runs == 0
        assert replay.done == {}

    def test_truncated_tail_is_a_readable_prefix(self, tmp_path):
        """A SIGKILL mid-append leaves at most one partial final line; the
        complete records before it must replay intact."""
        specs = _specs(2)
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.begin(2, 0, "cal")
            journal.done(specs[0], "a")
            journal.done(specs[1], "b")
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])  # tear the final record mid-line
        replay = replay_journal(path)
        assert replay.done == {specs[0].fingerprint(): "a"}
        assert replay.malformed_lines == 1

    def test_garbage_lines_are_skipped_not_fatal(self, tmp_path):
        spec = _specs(1)[0]
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.done(spec, "a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\x00\x7f not json\n")
            handle.write(json.dumps([1, 2]) + "\n")
            handle.write(json.dumps({"event": "unknown-kind"}) + "\n")
        replay = replay_journal(path)
        assert replay.done == {spec.fingerprint(): "a"}
        assert replay.malformed_lines == 3

    def test_each_record_is_one_line(self, tmp_path):
        """Atomic-append framing: every record is exactly one newline
        -terminated JSON document (the property that makes a crash leave
        a parseable prefix)."""
        specs = _specs(3)
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.begin(3, 0, "cal")
            for spec in specs:
                journal.dispatched(spec)
                journal.done(spec, "x")
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        assert all(isinstance(json.loads(line), dict) for line in lines)
        assert path.read_text().endswith("\n")


class TestTornWriteFuzz:
    """Randomized torn-write tolerance: truncated tails, interleaved
    two-writer appends and garbage bytes mid-file must replay without
    raising, count as malformed, and never drop a settled ``done`` record
    whose own line survived intact."""

    def _interleaved(self, path, specs, rng):
        """Two journal handles appending to one file in random turns, the
        way two racing workers share an O_APPEND journal."""
        writers = [CampaignJournal(path, "fp"), CampaignJournal(path, "fp")]
        for i, spec in enumerate(specs):
            writer = writers[rng.randrange(2)]
            writer.dispatched(spec)
            if i % 5 == 4:
                writer.failed(spec, "flaky")
            writer.done(spec, f"ck{i}")
        for writer in writers:
            writer.close()

    def test_interleaved_writers_replay_completely(self, tmp_path):
        import random

        rng = random.Random(7)
        specs = _specs(20)
        path = tmp_path / "j.jsonl"
        self._interleaved(path, specs, rng)
        replay = replay_journal(path)
        assert replay.malformed_lines == 0
        assert replay.failed == {}  # done supersedes the flaky failures
        assert replay.done == {
            spec.fingerprint(): f"ck{i}" for i, spec in enumerate(specs)
        }

    def test_fuzzed_corruption_never_drops_surviving_done(self, tmp_path):
        import random

        for trial in range(25):
            rng = random.Random(100 + trial)
            specs = _specs(12)
            path = tmp_path / f"fuzz-{trial}.jsonl"
            self._interleaved(path, specs, rng)
            lines = path.read_text(encoding="utf-8").splitlines()
            # Garbage bytes over a random mid-file line...
            victim = rng.randrange(len(lines) - 1)
            lines[victim] = "\x00\x7f{{{ garbage" + lines[victim][: rng.randrange(9)]
            # ...plus a torn final line (SIGKILL mid-append).
            tear = rng.randrange(1, max(2, len(lines[-1])))
            lines[-1] = lines[-1][:-tear]
            path.write_text("\n".join(lines), encoding="utf-8")
            replay = replay_journal(path)  # must not raise
            assert replay.malformed_lines >= 1
            expected = {}
            for keep, line in enumerate(lines):
                if keep in (victim, len(lines) - 1):
                    continue
                record = json.loads(line)
                if record["event"] == "done":
                    expected[record["job"]] = record["checksum"]
            assert set(expected) <= set(replay.done)
            for job, checksum in expected.items():
                assert replay.done[job] == checksum


class TestBatchedDispatch:
    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(st.integers(0, 9), max_size=25), settled=st.integers(0, 25))
    def test_one_call_replays_like_one_call_per_spec(self, tmp_path_factory, seeds, settled):
        """``dispatched(*specs)`` writes the lines of one ``dispatched``
        call per spec, so a replay cannot tell them apart."""
        specs = [JobSpec(kind="test.echo", seed=seed) for seed in seeds]
        root = tmp_path_factory.mktemp("batched")
        batched, single = root / "batched.jsonl", root / "single.jsonl"
        with CampaignJournal(batched, "fp") as journal:
            journal.begin(len(specs), 0, "cal")
            journal.dispatched(*specs)
            for spec in specs[:settled]:
                journal.done(spec, "ck")
        with CampaignJournal(single, "fp") as journal:
            journal.begin(len(specs), 0, "cal")
            for spec in specs:
                journal.dispatched(spec)
            for spec in specs[:settled]:
                journal.done(spec, "ck")
        assert batched.read_bytes() == single.read_bytes()
        replay = replay_journal(batched)
        assert replay.dispatched == replay_journal(single).dispatched
        assert replay.in_flight() == replay_journal(single).in_flight()
        assert replay.in_flight() == {spec.fingerprint() for spec in specs[settled:]} - {
            spec.fingerprint() for spec in specs[:settled]
        }

    def test_no_specs_appends_nothing(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl", "fp") as journal:
            journal.begin(0, 0, "cal")
            size = journal.path.stat().st_size
            journal.dispatched()
        assert journal.path.stat().st_size == size


class TestDurabilityContract:
    """A campaign calls ``fsync`` once, after its closing ``end`` or
    ``interrupted`` record; no other record and no cache line is synced
    (DESIGN.md §10)."""

    JOBS = 24

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def _specs(self, **params):
        return [
            JobSpec.with_params("test.durable_draw", params, seed=seed)
            for seed in range(self.JOBS)
        ]

    def test_cached_serial_campaign_fsyncs_once(self, tmp_path, fsyncs):
        result = run_campaign(self._specs(), CampaignConfig(cache_dir=tmp_path))
        assert result.manifest.completed == self.JOBS
        assert len(fsyncs) == 1
        records = [json.loads(line) for line in open(result.manifest.journal)]
        assert records[-1]["event"] == "end"

    def test_resumed_campaign_fsyncs_once(self, tmp_path, fsyncs):
        config = CampaignConfig(cache_dir=tmp_path)
        run_campaign(self._specs(), config)
        fsyncs.clear()
        result = run_campaign(self._specs(), CampaignConfig(cache_dir=tmp_path, resume=True))
        assert result.manifest.resumed == self.JOBS
        assert len(fsyncs) == 1

    def test_fleet_coordinator_fsyncs_once(self, tmp_path, fsyncs):
        result = run_campaign(self._specs(), CampaignConfig(cache_dir=tmp_path, n_jobs=2))
        assert result.manifest.completed == self.JOBS
        assert len(fsyncs) == 1
        replay = replay_journal(result.manifest.journal)
        assert len(replay.done) == self.JOBS  # the workers' records

    def test_interrupted_campaign_fsyncs_once(self, tmp_path, fsyncs):
        specs = self._specs()
        specs[self.JOBS // 2] = JobSpec.with_params(
            "test.durable_draw", {"interrupt": "yes"}, seed=self.JOBS // 2
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(specs, CampaignConfig(cache_dir=tmp_path))
        assert len(fsyncs) == 1
        (journal,) = (tmp_path / "journal").glob("*.jsonl")
        replay = replay_journal(journal)
        assert replay.interrupted and replay.finished_runs == 0
        assert len(replay.done) == self.JOBS // 2

    def test_uncached_campaign_never_fsyncs(self, fsyncs):
        result = run_campaign(self._specs(), CampaignConfig())
        assert result.manifest.completed == self.JOBS
        assert fsyncs == []
