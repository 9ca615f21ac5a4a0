"""Deployment spec: validation, JSON round-trips, fingerprints, streams."""

import hashlib
import json

import numpy as np
import pytest

from repro.deploy import (
    DEPLOY_SCHEMA_VERSION,
    ChurnProcess,
    DeploymentSpec,
    DeviceClass,
    HubLayout,
)
from repro.deploy.scenarios import scenario
from repro.runtime.seeding import content_seed_sequence


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        hubs=HubLayout(strategy="grid", count=2, spacing_m=100.0),
        classes=(
            DeviceClass(name="phone", device="iPhone 6S", share=0.3),
            DeviceClass(name="tag", device="Nike Fuel Band", share=0.7),
        ),
        devices_per_hub=10,
        duration_s=1.0,
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class TestValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            HubLayout(strategy="hexagonal")

    def test_manual_needs_positions(self):
        with pytest.raises(ValueError, match="positions"):
            HubLayout(strategy="manual")

    def test_grid_rejects_explicit_positions(self):
        with pytest.raises(ValueError, match="computes its own"):
            HubLayout(strategy="grid", count=2, positions_m=((0.0, 0.0),))

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown catalog device"):
            DeviceClass(name="x", device="Nokia 3310")

    def test_distance_bounds_checked(self):
        with pytest.raises(ValueError, match="distance bounds"):
            DeviceClass(name="x", device="iPhone 6S",
                        min_distance_m=2.0, max_distance_m=1.0)

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            DeviceClass(name="x", device="iPhone 6S", mobility="teleport")

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _tiny_spec(classes=(
                DeviceClass(name="a", device="iPhone 6S"),
                DeviceClass(name="a", device="Apple Watch"),
            ))

    def test_population_must_cover_classes(self):
        with pytest.raises(ValueError, match="population smaller"):
            _tiny_spec(devices_per_hub=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            _tiny_spec(seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            scenario("smoke").scaled(seed=-1)

    def test_churn_fraction_bounded(self):
        with pytest.raises(ValueError, match="fraction"):
            ChurnProcess(late_join_fraction=1.5)

    def test_churn_static_detection(self):
        assert ChurnProcess().is_static
        assert not ChurnProcess(mean_awake_s=1.0).is_static
        assert not ChurnProcess(late_join_fraction=0.1).is_static


class TestRoundTrip:
    def test_json_round_trip_identity(self):
        spec = _tiny_spec(churn=ChurnProcess(mean_awake_s=3.0))
        again = DeploymentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_catalog_scenarios_round_trip(self):
        for name in ("smoke", "ci-small", "mobile-small", "city-10k"):
            spec = scenario(name)
            assert DeploymentSpec.from_json(spec.to_json()) == spec

    def test_schema_version_stamped_and_checked(self):
        payload = json.loads(_tiny_spec().to_json())
        assert payload["version"] == DEPLOY_SCHEMA_VERSION
        payload["version"] = DEPLOY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            DeploymentSpec.from_dict(payload)

    def test_fingerprint_tracks_content(self):
        base = _tiny_spec()
        assert base.fingerprint() == _tiny_spec().fingerprint()
        assert base.fingerprint() != _tiny_spec(seed=1).fingerprint()
        assert base.fingerprint() != _tiny_spec(duration_s=2.0).fingerprint()


class TestHardenedParsing:
    """Unknown keys and wrong-typed fields fail with one clear
    ValueError naming the offending key — a typo must never silently
    fall back to a default and fingerprint as a different scenario."""

    @pytest.mark.parametrize(
        "cls,payload,owner",
        [
            (HubLayout, HubLayout().to_dict(), "hub layout"),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "device class",
            ),
            (ChurnProcess, ChurnProcess().to_dict(), "churn process"),
            (DeploymentSpec, _tiny_spec().to_dict(), "deployment spec"),
        ],
    )
    def test_unknown_key_names_the_key(self, cls, payload, owner):
        with pytest.raises(ValueError, match=rf"unknown {owner} field\(s\) 'spacing'"):
            cls.from_dict({**payload, "spacing": 1.0})

    @pytest.mark.parametrize(
        "cls,payload,key,bad",
        [
            (HubLayout, HubLayout().to_dict(), "count", "two"),
            (HubLayout, HubLayout().to_dict(), "spacing_m", None),
            (HubLayout, HubLayout().to_dict(), "area_m", [1.0]),
            (HubLayout, HubLayout().to_dict(), "strategy", 7),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "share",
                "half",
            ),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "name",
                3,
            ),
            (ChurnProcess, ChurnProcess().to_dict(), "mean_awake_s", "fast"),
            (DeploymentSpec, _tiny_spec().to_dict(), "seed", "zero"),
            (DeploymentSpec, _tiny_spec().to_dict(), "lp_plan", 1),
            (DeploymentSpec, _tiny_spec().to_dict(), "devices_per_hub", True),
        ],
    )
    def test_wrong_type_names_the_key(self, cls, payload, key, bad):
        with pytest.raises(ValueError, match=f"field {key!r}"):
            cls.from_dict({**payload, key: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "cls,payload,key",
        [
            (HubLayout, HubLayout().to_dict(), "spacing_m"),
            (HubLayout, HubLayout().to_dict(), "area_m"),
            (
                HubLayout,
                HubLayout(strategy="manual", positions_m=((0.0, 0.0),)).to_dict(),
                "positions_m",
            ),
            (DeviceClass, DeviceClass(name="x", device="iPhone 6S").to_dict(), "share"),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "min_distance_m",
            ),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "max_distance_m",
            ),
            (
                DeviceClass,
                DeviceClass(name="x", device="iPhone 6S").to_dict(),
                "tdma_weight",
            ),
            (ChurnProcess, ChurnProcess().to_dict(), "mean_awake_s"),
            (ChurnProcess, ChurnProcess().to_dict(), "mean_asleep_s"),
            (ChurnProcess, ChurnProcess().to_dict(), "mean_lifetime_s"),
            (ChurnProcess, ChurnProcess().to_dict(), "late_join_fraction"),
            (ChurnProcess, ChurnProcess().to_dict(), "mean_join_delay_s"),
            (DeploymentSpec, _tiny_spec().to_dict(), "warmup_s"),
            (DeploymentSpec, _tiny_spec().to_dict(), "duration_s"),
            (DeploymentSpec, _tiny_spec().to_dict(), "coupling_threshold_db"),
            (DeploymentSpec, _tiny_spec().to_dict(), "interference_penalty_db"),
            (DeploymentSpec, _tiny_spec().to_dict(), "path_loss_exponent"),
        ],
    )
    def test_non_finite_number_names_the_key(self, cls, payload, key, bad):
        # NaN and +-inf pass every range check unnoticed; an infinite
        # horizon used to hang the region job and a NaN TDMA weight to
        # crash it deep inside the TDMA builder.
        value = payload[key]
        if key == "area_m":
            value = [1.0, bad]
        elif key == "positions_m":
            value = [[0.0, bad]]
        else:
            value = bad
        with pytest.raises(ValueError, match=f"field {key!r} must be finite"):
            cls.from_dict({**payload, key: value})

    def test_json_infinity_rejected(self):
        text = _tiny_spec().to_json().replace('"duration_s":1.0', '"duration_s":Infinity')
        assert "Infinity" in text
        with pytest.raises(ValueError, match="field 'duration_s' must be finite"):
            DeploymentSpec.from_json(text)

    def test_nested_sections_must_be_mappings(self):
        payload = _tiny_spec().to_dict()
        with pytest.raises(ValueError, match="'hubs' must be a mapping"):
            DeploymentSpec.from_dict({**payload, "hubs": "grid"})
        with pytest.raises(ValueError, match="'churn' must be a mapping"):
            DeploymentSpec.from_dict({**payload, "churn": 3})
        with pytest.raises(ValueError, match="'classes' must be a sequence"):
            DeploymentSpec.from_dict({**payload, "classes": "phone"})

    def test_non_mapping_sections_rejected_by_name(self):
        # A JSON list used to report its items as "unknown field(s)", and
        # a class entry that is not an object raised a TypeError.
        with pytest.raises(ValueError, match=r"deployment spec must be a mapping, got \[1, 2\]"):
            DeploymentSpec.from_json("[1, 2]")
        payload = _tiny_spec().to_dict()
        with pytest.raises(ValueError, match="device class must be a mapping, got 1"):
            DeploymentSpec.from_dict({**payload, "classes": [1]})

    def test_missing_required_field_named(self):
        payload = DeviceClass(name="x", device="iPhone 6S").to_dict()
        payload.pop("device")
        with pytest.raises(ValueError, match="missing required field 'device'"):
            DeviceClass.from_dict(payload)

    @pytest.mark.parametrize(
        "value",
        [
            HubLayout(),
            HubLayout(
                strategy="manual", positions_m=((0.0, 0.0), (3.5, 2.25))
            ),
            HubLayout(strategy="poisson", count=5, area_m=(80.0, 40.0)),
            DeviceClass(
                name="tag",
                device="Nike Fuel Band",
                share=0.25,
                min_distance_m=0.5,
                max_distance_m=1.5,
                tdma_weight=2.0,
                mobility="waypoint",
            ),
            ChurnProcess(
                mean_awake_s=1.0,
                mean_asleep_s=0.5,
                mean_lifetime_s=30.0,
                late_join_fraction=0.2,
                mean_join_delay_s=0.4,
            ),
            _tiny_spec(churn=ChurnProcess(mean_awake_s=3.0)),
        ],
    )
    def test_every_spec_dataclass_round_trips(self, value):
        assert type(value).from_dict(value.to_dict()) == value

    def test_json_defaults_still_parse(self):
        # Omitted optional fields keep their defaults under the strict
        # parser (forward-compat for hand-written scenario JSON).
        assert HubLayout.from_dict({}) == HubLayout()
        assert ChurnProcess.from_dict({}) == ChurnProcess()
        minimal = DeviceClass.from_dict({"name": "x", "device": "iPhone 6S"})
        assert minimal == DeviceClass(name="x", device="iPhone 6S")


class TestDerived:
    def test_class_counts_cover_population(self):
        spec = _tiny_spec(devices_per_hub=13)
        counts = spec.class_counts()
        assert sum(counts.values()) == 13
        assert all(count >= 1 for count in counts.values())
        # Largest remainder keeps the 30/70 mix close.
        assert counts["tag"] > counts["phone"]

    def test_every_class_gets_one_even_when_rounded_out(self):
        spec = _tiny_spec(
            classes=(
                DeviceClass(name="big", device="iPhone 6S", share=0.99),
                DeviceClass(name="rare", device="Apple Watch", share=0.01),
            ),
            devices_per_hub=5,
        )
        assert spec.class_counts()["rare"] == 1

    def test_streams_content_addressed(self):
        spec = _tiny_spec()
        a1 = spec.stream("hub0:place:d0").random(4).tolist()
        a2 = spec.stream("hub0:place:d0").random(4).tolist()
        b = spec.stream("hub0:place:d1").random(4).tolist()
        assert a1 == a2  # same label -> same stream
        assert a1 != b  # labels decorrelate
        reseeded = _tiny_spec(seed=7).stream("hub0:place:d0").random(4).tolist()
        assert a1 != reseeded  # scenario seed folds into every stream

    @pytest.mark.parametrize(
        "seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 7, 2**128 + 3, 2**200 + 1]
    )
    def test_stream_draws_the_content_seed_sequence_generator(self, seed):
        # Seeds of one, two, three, five and seven 32-bit words: the pool
        # is padded below four words and not above.
        spec = _tiny_spec(seed=seed)
        for label in ("hub0:place:d0", "hub3:kernel", "region1:kernel"):
            salted = hashlib.sha256(f"{spec.fingerprint()}:{label}".encode("utf-8")).hexdigest()
            expected = np.random.default_rng(content_seed_sequence(salted, seed))
            stream = spec.stream(label)
            assert stream.integers(0, 2**63, 16).tolist() == expected.integers(
                0, 2**63, 16
            ).tolist()
            assert stream.random(8).tolist() == expected.random(8).tolist()
