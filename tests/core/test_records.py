"""The record codec (``repro.core.records``): every field of every record
type has a gate and round-trips, ``float`` fields are canonical, and the
identities the codec derives hold their pinned values — the catalog
scenario and fault-profile fingerprints, and the deploy manifests whose
streams those fingerprints seed."""

import dataclasses
import hashlib
import json

import pytest

from repro.core.records import Record
from repro.deploy import (
    SCENARIOS,
    ChurnProcess,
    DeploymentSpec,
    DeviceClass,
    HubLayout,
    manifest_json,
    partition,
    run_deployment,
    scenario,
    simulate_region,
)
from repro.faults import (
    FAULT_PROFILES,
    REGION_FAULT_PROFILES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RegionFaultKind,
    RegionFaultPlan,
    RegionFaultSpec,
    fault_plan_for,
    region_fault_plan_for,
)
from repro.faults.plan import FaultSchedule
from repro.runtime.jobs import JobSpec

#: SHA-256 fingerprints of the catalog scenarios.
SCENARIO_FINGERPRINTS = {
    "smoke": "e5ec8fd8c14f070ba0983504e2cfa75dd7634545001cd979e0bdddf6239d9ffa",
    "ci-small": "2a6c766f957efcced2ba995d4ced1eb1d40ddd01556439cef0f8bd616c5d9d01",
    "mobile-small": "5343f022400042ea511be6d4d16195157b4f4afd0a4ac4252750d71966617c63",
    "city-10k": "27b58bf4db426c5176ea355cb288f2d1237ee57170c1246ae710f075e475ee81",
}

#: Fingerprints of the pair fault profiles.
PAIR_PROFILE_FINGERPRINTS = {
    "none": "fae4de0dcc8a276cf35c45d4de46f859cfbf87794832f54a8cc1cc42411b526e",
    "outage": "03cebb6491fbebb6e1d6ad601362fd0088f31972947938c8a574748fc1d533fd",
    "deep-fade": "1e6c75bd684fd9b2e77f98e90a11605354756c62bcaeebb6b679b50adbbfa968",
    "crash": "7cdfb48cc95a2fe024298cbe593ca4807e5ed5a3152aaf46401de6255ad3a175",
    "carrier-loss": "7e4ce3a60c0d1ccaada9e58dbaac6f32ce7c76c44b4471b8e53024acef4f3077",
    "brownout": "17c5bd042956b7b64f8fa09864cb8c25280f5da30e5dff8ac7741fa680fef084",
    "ack-storm": "179e20dd4fb102bdbddb284f555463db7cbc3f82fa811a5d7166a4b7e3e15315",
    "stuck-switch": "ce25ba24cb4b254f5dc6c2f744cd0de14160d05540c8e179e1a61f82354b72c0",
    "chaos": "7ffed1d3c3d1271fd8bc0ea55914a40ae9c5df0739f29a81724c471ae0439129",
}

#: The three small scenarios share warmup, duration and the first hub of
#: each region, so each region profile builds the same plan on all three.
_SMALL_REGION_PLANS = {
    "none": "fae4de0dcc8a276cf35c45d4de46f859cfbf87794832f54a8cc1cc42411b526e",
    "blackout": "38411e53dfb833f0d485d4e10af880ad3dc9a2d80a37f6b2e8b49f4c27459846",
    "brownout": "3399eb28f9b943e470c40349b1d921fd724301d4ccc66e6a7f7be26c310d2c99",
    "churn-storm": "af74aedd4e0fee76e0754d132888b20a010ecf56fc98f49c3b2f9b81f2c0798a",
    "noise-surge": "b12219a88275e8e121127ef070de78354311963c850fc124013894ddfc55a9f1",
    "metro-chaos": "a4bdc73160ec8e51372a67f4d1a938bc3d83926fad766d8d7999fdb635216328",
}

#: Fingerprints of each region profile built against each catalog scenario.
REGION_PROFILE_FINGERPRINTS = {
    "smoke": _SMALL_REGION_PLANS,
    "ci-small": _SMALL_REGION_PLANS,
    "mobile-small": _SMALL_REGION_PLANS,
    "city-10k": {
        "none": "fae4de0dcc8a276cf35c45d4de46f859cfbf87794832f54a8cc1cc42411b526e",
        "blackout": "e38029544be14ac7bc1df8ef9183e0fd438efcb5217d38954f9d019a0f3a63bd",
        "brownout": "24476f63ca1566bfa79081becaf91a945ea4e11a1269144ebc6c914e61267247",
        "churn-storm": "944b41c1ae74658422cb6399997c40dc7756a7a4695d592cd03709159685a6b1",
        "noise-surge": "89efdf93f3c108c1bfab383cd643cf4fc0c054b0e3af2466993bf00d05280f09",
        "metro-chaos": "1680ed7a00d9d4eec2b002ad468c7cbd62c9b2501a4972014c9accf50346b9a1",
    },
}

#: SHA-256 of ``manifest_json`` of a serial ``run_deployment`` per
#: (scenario, region profile).
MANIFEST_DIGESTS = {
    ("smoke", "none"): "c8389c5d3109fbcfa447f636ce868b3cc5f46fa88d6d7d32112b4404db9690ed",
    ("smoke", "blackout"): "fa0388d2c976fb3e2324b6f432a188aa00b6217015358a3fff8318ae4e24f8dd",
    ("smoke", "brownout"): "17bb4ed5d901b20e0bc06c270f4f1c957edbbcdc54aacb98eea5ed09af48313e",
    ("smoke", "churn-storm"): "a95a33944864f3c350752e6c6c0215badbe9f0ab7e34f3c30a4bb86740c9815a",
    ("smoke", "noise-surge"): "5e064d1bd38f26c6d396c445774d0095308c748a55ae9d27d8368e2d992f96e7",
    ("smoke", "metro-chaos"): "104aabfa46d791b2356360722d17c8af65943b1cd3bd28519ed5a4f9b49f78ab",
    ("ci-small", "none"): "b75270d4cf795bbdb24722f324c34405d2f842a60b6832904e35cd44de9fcb20",
    ("ci-small", "blackout"): "60bfb983a66cdb59a1a426689c33a77efb95cbd41d4492c02b25ae4da1f5a3f1",
    ("ci-small", "brownout"): "d9cd586e7ef2fa4d58996999ac33fd2113eff5d75a383285e94f74c0630596e0",
    ("ci-small", "churn-storm"): "fd93dba1938f3a964fbe30d5c57bd9ddc0ebb292262acfe91d4e5b6f2f820bff",
    ("ci-small", "noise-surge"): "b9839ac3eb55975ab50a48ae837a4a407735d69d2335f044892176228afa5dbf",
    ("ci-small", "metro-chaos"): "acf5ed8fbb0206afbc69914b3eebe2dd3ec1864dd945a9d05325ff8d0ca6e534",
    ("mobile-small", "none"): "a5acc1b1845cc015ee815ac6d40f3cb0175350d8359b79f95a99f81036275d51",
    ("mobile-small", "blackout"): "e2ad793f786b09442495e743472c070f3b0ebe66f76c7897d046e154241e1ecc",
    ("mobile-small", "brownout"): "144229afa7aa8015ccf61b596872717d68ee54d754e3a141ca9a4b86258ce71e",
    ("mobile-small", "churn-storm"): "1d366e39aae546a79f447f6dc589a8990d4717bbc6a35ee080b8b27c5d5a95b5",
    ("mobile-small", "noise-surge"): "5e6fad8c004dfd5af2116f9677c88ce4f0a4457c54b1cb4dea3a0a345983480f",
    ("mobile-small", "metro-chaos"): "d399c9a2e65725e9b841a1d4a94bd05c52e83ed73d7c76eeba6fac573b87b921",
}

#: The same at scenario seed 7, unarmed and under ``metro-chaos``.
MANIFEST_DIGESTS_SEED_7 = {
    ("smoke", "none"): "d0408e3e86e4a483fee774ed1d9c9da736f8dbe9352aa57bf2623cd21dd37ee0",
    ("smoke", "metro-chaos"): "14173af8b1791b8e4a852437c8ec2501c78fa95d504b7f4083e71ff6a97eda6f",
    ("ci-small", "none"): "bd26d07c40f3d416aa633962fe83f864179aa08291bc66f8829cc7d8250c9952",
    ("ci-small", "metro-chaos"): "d3d95bb3411bab0da876ea68e3cef5b147036254c0a14b5dd0c8ca0cba8323f9",
    ("mobile-small", "none"): "88567fe9a57a9dfc894a4df9192d74daf9e754074d60f6391fd5846764cbdc27",
    ("mobile-small", "metro-chaos"): "680f90bc50b54a63328856b22edaec892b14eb0a492d4a6a50d757250f744c7a",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _samples():
    """One record of every type, every field off its default and every
    ``float`` field given as an ``int``."""
    layout = HubLayout(
        strategy="manual", count=2, spacing_m=10, area_m=(80, 40),
        positions_m=((0, 0), (3.5, 2)),
    )
    tag = DeviceClass(
        name="tag", device="Nike Fuel Band", share=2, min_distance_m=1,
        max_distance_m=3, tdma_weight=2, mobility="waypoint",
    )
    churn = ChurnProcess(
        mean_awake_s=1, mean_asleep_s=3, mean_lifetime_s=30,
        late_join_fraction=1, mean_join_delay_s=2,
    )
    spec = DeploymentSpec(
        name="every-field", hubs=layout,
        classes=(tag, DeviceClass(name="phone", device="iPhone 6S")),
        devices_per_hub=4, hub_device="iPhone 6S", warmup_s=2, duration_s=3,
        churn=churn, seed=7, coupling_threshold_db=60, n_channels=2,
        interference_penalty_db=10, path_loss_exponent=3, payload_bytes=20,
        lp_plan=False,
    )
    fault = FaultSpec(
        FaultKind.BATTERY_MISREPORT, start_s=1, duration_s=2, magnitude=2,
        target="a",
    )
    region_fault = RegionFaultSpec(
        RegionFaultKind.NOISE_SURGE, start_s=1, duration_s=2, magnitude=6, hub=3
    )
    job = JobSpec(
        kind="gain.bluetooth", tx_device="Apple Watch", rx_device="iPhone 6S",
        distance_m=2, traffic="bursty", bitrate_bps=100_000, seed=3,
        params=(("snr_db", "8.0"),),
    )
    return [
        layout, tag, churn, spec, fault, FaultPlan.of(fault), region_fault,
        RegionFaultPlan.of(region_fault), job,
    ]


def _record_types(base=Record):
    """Every record type of the package but the shared plan container."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro.") and cls is not FaultSchedule:
            yield cls
        yield from _record_types(cls)


class TestEveryRecordType:
    def test_every_record_type_is_sampled(self):
        assert {type(r) for r in _samples()} == set(_record_types())

    @pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
    def test_every_field_has_a_gate_and_round_trips(self, record):
        data = record.to_dict()
        names = {f.name for f in dataclasses.fields(record)}
        assert set(data) - {"version"} == names
        again = type(record).from_dict(data)
        assert again == record
        assert again.fingerprint() == record.fingerprint()
        assert type(record).from_json(record.to_json()).to_json() == record.to_json()

    def test_a_field_without_a_gate_fails_loudly(self):
        @dataclasses.dataclass(frozen=True)
        class Ungated(Record):
            pair: "tuple[float, float]" = (0.0, 0.0)

            OWNER = "ungated"

        with pytest.raises(TypeError, match="field 'pair' .* has no gate"):
            Ungated().to_dict()
        with pytest.raises(TypeError, match="field 'pair' .* has no gate"):
            Ungated.from_dict({})

    def test_a_gate_without_a_field_fails_loudly(self):
        @dataclasses.dataclass(frozen=True)
        class Stale(Record):
            count: int = 1

            OWNER = "stale"
            GATES = {"cuont": int}

        with pytest.raises(TypeError, match="GATES names no field: \\['cuont'\\]"):
            Stale().to_json()


class TestFloatFieldsAreCanonical:
    """An ``int`` given for a ``float`` field encodes as a float, so a
    record fingerprints the same before and after a JSON round trip."""

    def test_scenario_with_int_times(self):
        spec = scenario("smoke").scaled(warmup_s=1, duration_s=2)
        again = DeploymentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        floats = scenario("smoke").scaled(warmup_s=1.0, duration_s=2.0)
        assert spec.fingerprint() == floats.fingerprint()

    def test_region_fault_with_int_times(self):
        plan = RegionFaultPlan.of(
            RegionFaultSpec(RegionFaultKind.HUB_BLACKOUT, start_s=1, duration_s=2, hub=0)
        )
        again = RegionFaultPlan.from_json(plan.to_json())
        assert again.fingerprint() == plan.fingerprint()
        assert '"start_s":1.0' in plan.to_json()

    def test_a_region_job_reproduces_in_isolation(self):
        # Region jobs carry the scenario as JSON, so workers seed every
        # stream from the parsed spec's fingerprint; the same region
        # simulated from the in-memory spec must draw the same streams.
        spec = scenario("smoke").scaled(warmup_s=1, duration_s=2)
        run = run_deployment(spec)
        region = partition(spec).regions[0]
        alone = simulate_region(spec, region)
        assert json.dumps(run.manifest["regions"][0], sort_keys=True) == json.dumps(
            alone, sort_keys=True
        )
        parsed = DeploymentSpec.from_json(spec.to_json())
        assert run.manifest["fingerprint"] == parsed.fingerprint()
        floats = run_deployment(scenario("smoke").scaled(warmup_s=1.0, duration_s=2.0))
        assert manifest_json(run.manifest) == manifest_json(floats.manifest)


class TestPinnedIdentities:
    def test_pins_cover_the_catalogs(self):
        assert set(SCENARIO_FINGERPRINTS) == set(SCENARIOS)
        assert set(PAIR_PROFILE_FINGERPRINTS) == set(FAULT_PROFILES)
        for plans in REGION_PROFILE_FINGERPRINTS.values():
            assert set(plans) == set(REGION_FAULT_PROFILES)

    @pytest.mark.parametrize("name", sorted(SCENARIO_FINGERPRINTS))
    def test_catalog_scenario_fingerprint(self, name):
        spec = scenario(name)
        assert spec.fingerprint() == SCENARIO_FINGERPRINTS[name]
        assert DeploymentSpec.from_json(spec.to_json()).fingerprint() == (
            SCENARIO_FINGERPRINTS[name]
        )

    @pytest.mark.parametrize("profile", sorted(PAIR_PROFILE_FINGERPRINTS))
    def test_pair_profile_fingerprint(self, profile):
        plan = fault_plan_for(profile)
        assert plan.fingerprint() == PAIR_PROFILE_FINGERPRINTS[profile]
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("profile", REGION_FAULT_PROFILES)
    @pytest.mark.parametrize("name", sorted(REGION_PROFILE_FINGERPRINTS))
    def test_region_profile_fingerprint(self, name, profile):
        plan = region_fault_plan_for(profile, scenario(name))
        assert plan.fingerprint() == REGION_PROFILE_FINGERPRINTS[name][profile]
        assert RegionFaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("name,profile", sorted(MANIFEST_DIGESTS))
    def test_deploy_manifest_digest(self, name, profile):
        spec = scenario(name)
        run = run_deployment(spec, fault_plan=region_fault_plan_for(profile, spec))
        assert _sha256(manifest_json(run.manifest)) == MANIFEST_DIGESTS[(name, profile)]

    @pytest.mark.parametrize("name,profile", sorted(MANIFEST_DIGESTS_SEED_7))
    def test_deploy_manifest_digest_at_seed_7(self, name, profile):
        spec = scenario(name).scaled(seed=7)
        run = run_deployment(spec, fault_plan=region_fault_plan_for(profile, spec))
        assert _sha256(manifest_json(run.manifest)) == MANIFEST_DIGESTS_SEED_7[(name, profile)]
