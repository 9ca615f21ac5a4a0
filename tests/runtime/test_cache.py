"""Unit tests for the on-disk result cache and its corruption quarantine."""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.cache import CACHE_FORMAT, ResultCache, calibration_fingerprint
from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec, register_job_runner
from repro.runtime.journal import metrics_checksum

from .cache_lines import edit_metrics, rewrite_entry


@register_job_runner("test.cache_draw")
def _cache_draw(spec, rng):
    return {"seed": spec.seed, "draw": float(rng.random())}


def _spec(**kwargs):
    defaults = dict(kind="gain.bluetooth", tx_device="Apple Watch",
                    rx_device="iPhone 6S")
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        cache.put(spec, {"gain": 1.43})
        assert cache.get(spec) == {"gain": 1.43}
        assert spec in cache
        assert len(cache) == 1

    def test_float_fidelity(self, tmp_path):
        cache = ResultCache(tmp_path)
        value = 1.4298816935886345
        cache.put(_spec(), {"gain": value, "nan": float("nan")})
        loaded = cache.get(_spec())
        assert loaded["gain"] == value  # bit-exact JSON round-trip
        assert loaded["nan"] != loaded["nan"]

    def test_keyed_by_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(distance_m=0.3), {"gain": 1.0})
        assert cache.get(_spec(distance_m=0.5)) is None

    def test_calibration_mismatch_is_a_miss(self, tmp_path):
        ResultCache(tmp_path, calibration="old-cal").put(_spec(), {"gain": 2.0})
        assert ResultCache(tmp_path, calibration="new-cal").get(_spec()) is None
        assert ResultCache(tmp_path, calibration="old-cal").get(_spec()) == {
            "gain": 2.0
        }

    def test_campaign_seed_mismatch_is_a_miss(self, tmp_path):
        ResultCache(tmp_path, campaign_seed=0).put(_spec(), {"gain": 2.0})
        assert ResultCache(tmp_path, campaign_seed=1).get(_spec()) is None
        assert ResultCache(tmp_path, campaign_seed=0).get(_spec()) == {"gain": 2.0}
        assert ResultCache(tmp_path, campaign_seed=1).quarantined() == []

    def test_other_worlds_lines_do_not_shadow_this_worlds(self, tmp_path):
        # One job's lines for three worlds, written one after another.
        worlds = [("cal", 0), ("cal", 1), ("other-cal", 0)]
        for number, (cal, seed) in enumerate(worlds):
            writer = ResultCache(tmp_path, cal, seed)
            writer.put(_spec(), {"gain": float(number)})
            writer.close()
        segments = sorted(ResultCache(tmp_path).segment_directory.glob("*.jsonl"))
        assert len(segments) == 3  # one per world
        for number, (cal, seed) in enumerate(worlds):
            reader = ResultCache(tmp_path, cal, seed)
            assert reader.get(_spec()) == {"gain": float(number)}
            assert len(reader) == 1
        assert ResultCache(tmp_path, "cal", 2).get(_spec()) is None
        # Even in one segment, a later line of another world does not
        # hide this world's line.
        (own,) = [
            path for path in segments
            if path.read_bytes().startswith(b'{"calibration":"cal","campaign_seed":0,')
        ]
        with own.open("ab") as handle:
            for path in segments:
                if path != own:
                    handle.write(path.read_bytes())
        assert ResultCache(tmp_path, *worlds[0]).get(_spec()) == {"gain": 0.0}
        assert ResultCache(tmp_path).quarantined() == []

    def test_line_in_another_json_layout_is_still_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(), {"gain": 1.0})
        # Reversed keys and spaced separators: keyed by parsing it.
        rewrite_entry(
            tmp_path, _spec(),
            lambda line: json.dumps(dict(reversed(list(json.loads(line).items())))),
        )
        fresh = ResultCache(tmp_path)
        assert fresh.get(_spec()) == {"gain": 1.0}
        assert fresh.quarantined() == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(), {"gain": 1.0})
        rewrite_entry(tmp_path, _spec(), lambda line: "{ truncated")
        assert cache.get(_spec()) is None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(), {"gain": 1.0})
        rewrite_entry(tmp_path, _spec(), lambda line: json.dumps([1, 2, 3]))
        assert cache.get(_spec()) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(seed=0), {"gain": 1.0})
        cache.put(_spec(seed=1), {"gain": 2.0})
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_missing_directory_reads_as_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.get(_spec()) is None
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_default_calibration_fingerprint_is_stable(self):
        assert calibration_fingerprint() == calibration_fingerprint()
        assert len(calibration_fingerprint()) == 16
        assert ResultCache("unused").calibration == calibration_fingerprint()

    def test_entries_carry_payload_checksum(self, tmp_path):
        cache = ResultCache(tmp_path, campaign_seed=7)
        cache.put(_spec(), {"gain": 1.5})
        (segment,) = cache.segment_directory.glob("*.jsonl")
        (line,) = segment.read_text().splitlines()
        entry = json.loads(line)
        assert entry["format"] == CACHE_FORMAT
        assert entry["checksum"] == metrics_checksum({"gain": 1.5})
        assert entry["campaign_seed"] == 7

    def test_get_verified_rejects_divergent_checksum(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(), {"gain": 1.5})
        good = metrics_checksum({"gain": 1.5})
        assert cache.get_verified(_spec(), good) == {"gain": 1.5}
        assert cache.get_verified(_spec(), "deadbeef") is None
        # the entry itself is intact, so it must not be quarantined
        assert cache.get(_spec()) == {"gain": 1.5}


_TRICKY_TEXT = st.sampled_from(
    ['"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "ünïcødé", "日本", "😀", "\u2028"]
)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=12), _TRICKY_TEXT
)
_KEYS = st.one_of(st.text(max_size=8), _TRICKY_TEXT)
_METRICS = st.dictionaries(
    _KEYS,
    st.recursive(
        _LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=4)
        ),
        max_leaves=16,
    ),
    max_size=6,
)


def _canonical_text(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestPutBytes:
    """``put`` serializes the metrics once, yet appends exactly the
    canonical JSON of the format-3 entry."""

    @settings(max_examples=100, deadline=None)
    @given(
        metrics=_METRICS,
        calibration=st.one_of(st.just(calibration_fingerprint()), _KEYS),
        campaign_seed=st.integers(0, 2**63),
        param=st.one_of(st.text(max_size=8), _TRICKY_TEXT),
    )
    def test_line_is_the_canonical_entry(self, metrics, calibration, campaign_seed, param):
        spec = JobSpec.with_params("gain.bluetooth", {"note": param}, tx_device="Apple Watch")
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root, calibration=calibration, campaign_seed=campaign_seed)
            checksum = cache.put(spec, metrics)
            cache.close()
            (segment,) = cache.segment_directory.glob("*.jsonl")
            entry = {
                "format": CACHE_FORMAT,
                "calibration": calibration,
                "campaign_seed": campaign_seed,
                "checksum": metrics_checksum(metrics),
                "spec": spec.to_dict(),
                "metrics": metrics,
            }
            assert segment.read_bytes() == (_canonical_text(entry) + "\n").encode("utf-8")
            assert checksum == metrics_checksum(metrics)
            fresh = ResultCache(root, calibration=calibration, campaign_seed=campaign_seed)
            # NaN != NaN, so compare the canonical texts
            assert _canonical_text(fresh.get(spec)) == _canonical_text(metrics)
            assert fresh.quarantined() == []


class TestQuarantine:
    """Corrupt entries must never be served, never crash the load path,
    and must end up in ``quarantine/`` with a structured reason."""

    def _corrupt_and_get(self, tmp_path, mutate, spec=None):
        cache = ResultCache(tmp_path)
        spec = spec or _spec()
        cache.put(spec, {"gain": 1.0})
        segment, offset = rewrite_entry(tmp_path, spec, mutate)
        assert cache.get(spec) is None
        return cache, segment, offset

    @staticmethod
    def _copies(cache):
        """Quarantined line copies (not the reasons)."""
        return [
            p
            for p in cache.quarantine_directory.glob("*.json")
            if not p.name.endswith(".reason.json")
        ]

    def test_truncation_quarantined(self, tmp_path):
        cache, segment, offset = self._corrupt_and_get(
            tmp_path, lambda line: line[: len(line) // 2]
        )
        torn = segment.read_bytes().split(b"\n")[0]
        (copy,) = self._copies(cache)
        assert copy.read_bytes() == torn
        (reason,) = cache.quarantined()
        assert reason["reason"] == "unparseable"
        assert (reason["segment"], reason["offset"]) == (segment.name, offset)
        assert reason["entry"] == f"segments/{segment.name}:{offset}"
        assert reason["quarantined_as"] == copy.name

    def test_bit_rot_quarantined_by_checksum(self, tmp_path):
        # payload no longer matches its checksum
        cache, _, _ = self._corrupt_and_get(tmp_path, edit_metrics(gain=999.0))
        (reason,) = cache.quarantined()
        assert reason["reason"] == "checksum-mismatch"
        assert "recorded" in reason["detail"]

    def test_schema_drift_quarantined(self, tmp_path):
        def downgrade(line):
            entry = json.loads(line)
            entry["format"] = CACHE_FORMAT - 1
            return json.dumps(entry)

        cache, _, _ = self._corrupt_and_get(tmp_path, downgrade)
        (reason,) = cache.quarantined()
        assert reason["reason"] == "schema-drift"

    def test_wrong_shape_quarantined(self, tmp_path):
        cache, _, _ = self._corrupt_and_get(tmp_path, lambda line: json.dumps([1, 2, 3]))
        (reason,) = cache.quarantined()
        assert reason["reason"] == "schema-drift"

    def test_quarantined_entry_is_not_re_served_or_re_diagnosed(self, tmp_path):
        cache, _, _ = self._corrupt_and_get(tmp_path, lambda line: "{ torn")
        # second read: plain miss, no second reason file, no crash
        assert cache.get(_spec()) is None
        assert len(cache.quarantined()) == 1
        assert len(cache) == 0

    def test_calibration_mismatch_not_quarantined(self, tmp_path):
        ResultCache(tmp_path, calibration="old").put(_spec(), {"gain": 2.0})
        assert ResultCache(tmp_path, calibration="new").get(_spec()) is None
        # still valid for its own calibration
        assert ResultCache(tmp_path, calibration="old").get(_spec()) == {"gain": 2.0}
        assert ResultCache(tmp_path, calibration="new").quarantined() == []

    def test_rewrite_after_quarantine_works(self, tmp_path):
        cache, _, _ = self._corrupt_and_get(tmp_path, lambda line: "junk")
        cache.put(_spec(), {"gain": 3.0})
        assert cache.get(_spec()) == {"gain": 3.0}
        assert len(cache.quarantined()) == 1

    def test_concurrent_quarantines_do_not_collide(self, tmp_path):
        # Two workers diagnosing the same corrupt entry must each keep
        # their evidence: distinct quarantine copies, distinct reasons.
        spec = _spec()
        first, second = ResultCache(tmp_path), ResultCache(tmp_path)
        first.put(spec, {"gain": 1.0})
        segment, offset = rewrite_entry(tmp_path, spec, edit_metrics(gain=2.0))
        # Both index the entry before either diagnoses it (as if both
        # read it before either finished quarantining it).
        assert len(first) == len(second) == 1
        assert first.get(spec) is None
        assert second.get(spec) is None
        reasons = first.quarantined()
        assert len(reasons) == 2
        assert {(r["segment"], r["offset"]) for r in reasons} == {(segment.name, offset)}
        assert len({r["quarantined_as"] for r in reasons}) == 2
        copies = self._copies(first)
        assert len(copies) == 2
        corrupt = segment.read_bytes().split(b"\n")[0]
        assert all(p.read_bytes() == corrupt for p in copies)

    def test_quarantine_not_counted_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(seed=0), {"gain": 1.0})
        cache.put(_spec(seed=1), {"gain": 2.0})
        rewrite_entry(tmp_path, _spec(seed=1), lambda line: "junk")
        assert cache.get(_spec(seed=1)) is None
        assert len(cache) == 1
        assert cache.clear() == 1  # quarantined lines survive clear()
        assert len(cache.quarantined()) == 1


class TestSegmentLog:
    """Failure modes of the log itself: torn tails, concurrent writers,
    segment reuse and tombstones."""

    def test_misses_on_a_fresh_cache_scan_no_directory(self, tmp_path, monkeypatch):
        scanned = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda path: scanned.append(path) or scandir(path))
        reader = ResultCache(tmp_path)
        for seed in range(5):
            assert reader.get(_spec(seed=seed)) is None
        assert scanned == []
        # A line another writer appends later is found on the next lookup.
        ResultCache(tmp_path).put(_spec(seed=3), {"gain": 3.0})
        del scanned[:]
        assert reader.get(_spec(seed=3)) == {"gain": 3.0}
        assert scanned == [reader.segment_directory]

    def test_torn_tail_waits_for_the_next_writer(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put(_spec(seed=0), {"gain": 1.0})
        first.close()
        (segment,) = first.segment_directory.glob("*.jsonl")
        torn_at = segment.stat().st_size
        with segment.open("ab") as handle:  # a writer died mid-line
            handle.write(b'{"calibration":"')
        reader = ResultCache(tmp_path)
        assert reader.get(_spec(seed=0)) == {"gain": 1.0}
        assert len(reader) == 1
        assert reader.quarantined() == []  # unterminated: not diagnosed yet
        # The next writer takes the free segment and terminates the tail.
        writer = ResultCache(tmp_path)
        writer.put(_spec(seed=1), {"gain": 2.0})
        writer.close()
        assert list(first.segment_directory.glob("*.jsonl")) == [segment]
        assert reader.get(_spec(seed=1)) == {"gain": 2.0}
        (reason,) = reader.quarantined()
        assert reason["reason"] == "unparseable"
        assert (reason["segment"], reason["offset"]) == (segment.name, torn_at)
        fresh = ResultCache(tmp_path)
        assert fresh.get(_spec(seed=1)) == {"gain": 2.0}
        assert fresh.get(_spec(seed=0)) == {"gain": 1.0}
        assert len(fresh.quarantined()) == 1

    def test_writers_append_to_separate_segments(self, tmp_path):
        first, second = ResultCache(tmp_path), ResultCache(tmp_path)
        first.put(_spec(seed=0), {"gain": 0.0})
        second.put(_spec(seed=1), {"gain": 1.0})
        pid = os.fork()
        if pid == 0:  # the child inherits ``first`` and its descriptor
            code = 1
            try:
                first.put(_spec(seed=2), {"gain": 2.0})
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        first.put(_spec(seed=3), {"gain": 3.0})  # the parent kept its segment
        first.close()
        second.close()
        seeds = sorted(
            sorted(json.loads(line)["spec"]["seed"] for line in path.read_text().splitlines())
            for path in first.segment_directory.glob("*.jsonl")
        )
        assert seeds == [[0, 3], [1], [2]]
        fresh = ResultCache(tmp_path)
        for seed in range(4):
            assert fresh.get(_spec(seed=seed)) == {"gain": float(seed)}

    def test_sequential_campaigns_reuse_segments(self, tmp_path):
        for number, n_jobs in enumerate([1, 2, 3, 1, 2, 3]):
            specs = [JobSpec(kind="test.cache_draw", seed=10 * number + i) for i in range(6)]
            result = run_campaign(specs, CampaignConfig(cache_dir=tmp_path, n_jobs=n_jobs))
            assert [o.status for o in result.outcomes] == ["completed"] * 6
        cache = ResultCache(tmp_path)
        assert len(list(cache.segment_directory.glob("*.jsonl"))) <= 4
        assert len(cache) == 36

    def test_tombstones_outlive_their_reader_but_not_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_spec(), {"gain": 1.0})
        (segment,) = cache.segment_directory.glob("*.jsonl")
        intact = segment.read_bytes()
        rewrite_entry(tmp_path, _spec(), edit_metrics(gain=9.0))
        assert cache.get(_spec()) is None
        # Even with its bytes restored, a quarantined line stays dead:
        # fresh readers neither serve nor re-diagnose it.
        segment.write_bytes(intact)
        fresh = ResultCache(tmp_path)
        assert fresh.get(_spec()) is None
        assert len(fresh) == 0
        assert len(fresh.quarantined()) == 1
        # clear() keeps quarantine/, but new segments get new names, so
        # no old tombstone hides a new entry.
        cache.clear()
        cache.put(_spec(), {"gain": 2.0})
        assert [p.name for p in cache.segment_directory.glob("*.jsonl")] != [segment.name]
        assert cache.get(_spec()) == {"gain": 2.0}
        assert ResultCache(tmp_path).get(_spec()) == {"gain": 2.0}
        assert len(ResultCache(tmp_path).quarantined()) == 1
