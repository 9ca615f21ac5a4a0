"""Unit tests for JobSpec and the runner registry."""

import pytest

from repro.runtime.jobs import (
    JobSpec,
    register_job_runner,
    registered_kinds,
    registered_runner,
)


class TestJobSpec:
    def test_frozen_and_hashable(self):
        spec = JobSpec(kind="gain.bluetooth", tx_device="Apple Watch")
        assert spec in {spec}
        with pytest.raises(AttributeError):
            spec.kind = "other"

    def test_rejects_empty_kind(self):
        with pytest.raises(ValueError):
            JobSpec(kind="")

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            JobSpec(kind="x", distance_m=0.0)

    def test_params_are_canonically_sorted(self):
        a = JobSpec(kind="x", params=(("b", "2"), ("a", "1")))
        b = JobSpec(kind="x", params=(("a", "1"), ("b", "2")))
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_with_params_and_lookup(self):
        spec = JobSpec.with_params("x", {"snr_db": 10.5, "n_bits": 1000})
        assert spec.param("snr_db") == "10.5"
        assert spec.param("n_bits") == "1000"
        assert spec.param("missing", "fallback") == "fallback"

    def test_fingerprint_is_stable_and_content_addressed(self):
        spec = JobSpec(kind="gain.bluetooth", tx_device="Apple Watch",
                       rx_device="iPhone 6S", distance_m=0.3)
        again = JobSpec(kind="gain.bluetooth", tx_device="Apple Watch",
                        rx_device="iPhone 6S", distance_m=0.3)
        assert spec.fingerprint() == again.fingerprint()
        assert len(spec.fingerprint()) == 64

    def test_fingerprint_distinguishes_fields(self):
        base = JobSpec(kind="gain.bluetooth", tx_device="Apple Watch")
        prints = {
            base.fingerprint(),
            JobSpec(kind="gain.bluetooth", tx_device="Pebble Watch").fingerprint(),
            JobSpec(kind="gain.best_mode", tx_device="Apple Watch").fingerprint(),
            JobSpec(kind="gain.bluetooth", tx_device="Apple Watch",
                    seed=1).fingerprint(),
            JobSpec(kind="gain.bluetooth", tx_device="Apple Watch",
                    distance_m=0.5).fingerprint(),
        }
        assert len(prints) == 5

    def test_dict_roundtrip(self):
        spec = JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "8.0"},
            distance_m=1.25, seed=3, bitrate_bps=100_000,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({"kind": "x", "bogus": 1})

    def test_parsed_spec_keeps_its_bytes_and_fingerprint(self):
        spec = JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "8.0"},
            distance_m=1.25, seed=3, bitrate_bps=100_000,
        )
        data = spec.to_dict()
        assert data["distance_m"] == "1.25"
        parsed = JobSpec.from_dict(data)
        assert parsed.to_dict() == data
        assert parsed.fingerprint() == spec.fingerprint() == (
            "30fb5376d6dee98f2d783b50b6aaa95cda80a9f4fbd7fba348deb0746b89a489"
        )
        assert JobSpec.from_dict({"kind": "x", "distance_m": 2}).distance_m == 2.0

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"kind": "x", "seed": "7"}, "seed"),
            ({"kind": "x", "seed": True}, "seed"),
            ({"kind": "x", "distance_m": True}, "distance_m"),
            ({"kind": "x", "distance_m": "inf"}, "distance_m"),
            ({"kind": "x", "distance_m": "nan"}, "distance_m"),
            ({"kind": "x", "distance_m": "0.30"}, "distance_m"),
            ({"kind": "x", "distance_m": "far"}, "distance_m"),
            ({"kind": "x", "bitrate_bps": "fast"}, "bitrate_bps"),
            ({"kind": "x", "bitrate_bps": 1.5}, "bitrate_bps"),
            ({"kind": "x", "params": [["a", 1]]}, "params"),
            ({"kind": "x", "params": "a=1"}, "params"),
            ({"kind": 7}, "kind"),
            ({"kind": ""}, "kind"),
            ({"seed": 1}, "kind"),
        ],
    )
    def test_from_dict_rejects_bad_values_naming_the_key(self, data, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_a_non_mapping(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            JobSpec.from_dict([1])

    @pytest.mark.parametrize("distance", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_and_negative_distances(self, distance):
        with pytest.raises(ValueError, match="'distance_m'"):
            JobSpec(kind="x", distance_m=distance)


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        for kind in ("gain.bluetooth", "gain.best_mode", "gain.bidirectional",
                     "gain.distance", "ber.montecarlo"):
            assert kind in kinds

    def test_unknown_kind_raises_with_known_list(self):
        with pytest.raises(KeyError, match="gain.bluetooth"):
            registered_runner("no.such.kind")

    def test_duplicate_registration_rejected(self):
        @register_job_runner("test.dupe")
        def first(spec, rng):
            return {}

        with pytest.raises(ValueError):
            @register_job_runner("test.dupe")
            def second(spec, rng):
                return {}

    def test_reregistering_same_function_is_idempotent(self):
        @register_job_runner("test.idempotent")
        def runner(spec, rng):
            return {}

        assert register_job_runner("test.idempotent")(runner) is runner
