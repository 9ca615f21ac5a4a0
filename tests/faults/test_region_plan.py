"""Deploy-layer fault schedules: spec validation, canonical plans,
JSON round-trips, fingerprints, named profiles, seeded streams."""

import pytest

from repro.deploy import DeviceClass, DeploymentSpec, HubLayout
from repro.faults import (
    REGION_FAULT_PROFILES,
    REGION_WIDE,
    RegionFaultKind,
    RegionFaultPlan,
    RegionFaultSpec,
    region_fault_plan_for,
    region_fault_rng,
)


def _blackout(start=1.0, duration=0.5, hub=0):
    return RegionFaultSpec(
        kind=RegionFaultKind.HUB_BLACKOUT,
        start_s=start,
        duration_s=duration,
        hub=hub,
    )


def _surge(start=2.0, duration=0.5, db=6.0, hub=REGION_WIDE):
    return RegionFaultSpec(
        kind=RegionFaultKind.NOISE_SURGE,
        start_s=start,
        duration_s=duration,
        magnitude=db,
        hub=hub,
    )


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        hubs=HubLayout(strategy="grid", count=4, spacing_m=15.0),
        classes=(DeviceClass(name="phone", device="iPhone 6S"),),
        devices_per_hub=2,
        warmup_s=0.2,
        duration_s=1.0,
        lp_plan=False,
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class TestSpecValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _blackout(start=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["start_s", "duration_s", "magnitude"])
    def test_non_finite_number_names_the_field(self, field, bad):
        # A NaN onset made a plan's fingerprint depend on textual order,
        # and NaN/inf surges only failed inside the region job.
        values = {"start_s": 1.0, "duration_s": 0.5, "magnitude": 6.0, field: bad}
        with pytest.raises(ValueError, match=f"field '{field}' must be finite"):
            RegionFaultSpec(kind=RegionFaultKind.NOISE_SURGE, **values)

    def test_non_finite_json_rejected(self):
        text = RegionFaultPlan.of(_blackout()).to_json().replace(
            '"start_s":1.0', '"start_s":NaN'
        )
        assert "NaN" in text
        with pytest.raises(ValueError, match="field 'start_s' must be finite"):
            RegionFaultPlan.from_json(text)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="positive duration"):
            _blackout(duration=0.0)

    @pytest.mark.parametrize(
        "kind", [RegionFaultKind.HUB_BLACKOUT, RegionFaultKind.HUB_BROWNOUT]
    )
    def test_power_faults_need_a_hub(self, kind):
        with pytest.raises(ValueError, match="specific hub"):
            RegionFaultSpec(kind=kind, start_s=0.0, duration_s=1.0)

    def test_hub_below_region_wide_rejected(self):
        with pytest.raises(ValueError, match="hub index"):
            _surge(hub=-2)

    @pytest.mark.parametrize("probability", [0.0, 1.5, -0.2])
    def test_storm_probability_bounds(self, probability):
        with pytest.raises(ValueError, match="flap probability"):
            RegionFaultSpec(
                kind=RegionFaultKind.CHURN_STORM,
                start_s=0.0,
                duration_s=1.0,
                magnitude=probability,
            )

    def test_surge_needs_positive_db(self):
        with pytest.raises(ValueError, match="positive dB"):
            _surge(db=0.0)


class TestPlanCanonicalForm:
    def test_specs_sorted_by_onset(self):
        late, early = _surge(start=5.0), _blackout(start=1.0)
        plan = RegionFaultPlan.of(late, early)
        assert plan.faults == (early, late)

    def test_textual_order_shares_fingerprint(self):
        a, b = _blackout(start=1.0), _surge(start=2.0)
        assert (
            RegionFaultPlan.of(a, b).fingerprint()
            == RegionFaultPlan.of(b, a).fingerprint()
        )

    def test_different_plans_differ(self):
        assert (
            RegionFaultPlan.of(_blackout(hub=0)).fingerprint()
            != RegionFaultPlan.of(_blackout(hub=1)).fingerprint()
        )

    def test_empty_plan(self):
        plan = RegionFaultPlan.empty()
        assert plan.is_empty
        assert len(plan) == 0
        assert plan.horizon_s() == 0.0

    def test_derived_views(self):
        plan = RegionFaultPlan.of(_blackout(start=1.0, duration=0.5, hub=2),
                                  _surge(start=2.0, duration=1.0))
        assert plan.horizon_s() == 3.0

    def test_scoped_to_keeps_region_wide_and_members(self):
        plan = RegionFaultPlan.of(
            _blackout(hub=0), _blackout(start=4.0, hub=7), _surge()
        )
        scoped = plan.scoped_to([0, 1])
        assert [s.hub for s in scoped] == [0, REGION_WIDE]


class TestWindowValidation:
    def test_same_kind_same_hub_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping hub_blackout"):
            RegionFaultPlan.of(
                _blackout(start=1.0, duration=1.0),
                _blackout(start=1.5, duration=1.0),
            )

    def test_same_kind_different_hubs_may_overlap(self):
        plan = RegionFaultPlan.of(
            _blackout(start=1.0, hub=0), _blackout(start=1.0, hub=1)
        )
        assert len(plan) == 2

    def test_different_kinds_may_overlap(self):
        plan = RegionFaultPlan.of(_blackout(start=1.0), _surge(start=1.0))
        assert len(plan) == 2

    def test_back_to_back_windows_allowed(self):
        plan = RegionFaultPlan.of(
            _blackout(start=1.0, duration=1.0),
            _blackout(start=2.0, duration=1.0),
        )
        assert len(plan) == 2


class TestSerialization:
    def test_round_trip_is_identity(self):
        plan = RegionFaultPlan.of(
            _blackout(hub=3),
            _surge(),
            RegionFaultSpec(
                kind=RegionFaultKind.CHURN_STORM,
                start_s=0.5,
                duration_s=2.0,
                magnitude=0.4,
            ),
        )
        restored = RegionFaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.fingerprint() == plan.fingerprint()

    def test_version_mismatch_rejected(self):
        text = RegionFaultPlan.of(_blackout()).to_json().replace(
            '"version":1', '"version":99'
        )
        with pytest.raises(ValueError, match="schema"):
            RegionFaultPlan.from_json(text)

    def test_unknown_kind_rejected(self):
        text = RegionFaultPlan.of(_blackout()).to_json().replace(
            "hub_blackout", "hub_meltdown"
        )
        with pytest.raises(ValueError):
            RegionFaultPlan.from_json(text)


class TestProfiles:
    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            region_fault_plan_for("bogus", _tiny_spec())

    def test_none_profile_is_empty(self):
        assert region_fault_plan_for("none", _tiny_spec()).is_empty

    @pytest.mark.parametrize(
        "profile", [p for p in REGION_FAULT_PROFILES if p != "none"]
    )
    def test_every_profile_fits_the_measured_window(self, profile):
        spec = _tiny_spec()
        plan = region_fault_plan_for(profile, spec)
        assert not plan.is_empty
        for fault in plan:
            assert fault.start_s >= spec.warmup_s
            assert fault.end_s <= spec.horizon_s + 1e-9

    def test_blackout_hits_first_hub_of_every_region(self):
        from repro.deploy import partition

        spec = _tiny_spec()
        plan = region_fault_plan_for("blackout", spec)
        expected = {r.hub_indices[0] for r in partition(spec).regions}
        assert {f.hub for f in plan} == expected

    def test_profiles_scale_with_the_scenario(self):
        short = region_fault_plan_for("blackout", _tiny_spec())
        long = region_fault_plan_for("blackout", _tiny_spec(duration_s=2.0))
        assert short.fingerprint() != long.fingerprint()


class TestSeededStreams:
    def test_same_inputs_replay_identically(self):
        plan = RegionFaultPlan.of(_blackout())
        a = region_fault_rng("scenario-fp", plan, "region0:storm", seed=3)
        b = region_fault_rng("scenario-fp", plan, "region0:storm", seed=3)
        assert a.random() == b.random()

    @pytest.mark.parametrize(
        "other",
        [
            ("scenario-fp2", "region0:storm", 3),
            ("scenario-fp", "region1:storm", 3),
            ("scenario-fp", "region0:storm", 4),
        ],
    )
    def test_any_input_change_forks_the_stream(self, other):
        plan = RegionFaultPlan.of(_blackout())
        base = region_fault_rng("scenario-fp", plan, "region0:storm", seed=3)
        fingerprint, label, seed = other
        forked = region_fault_rng(fingerprint, plan, label, seed=seed)
        assert base.random() != forked.random()

    def test_plan_identity_forks_the_stream(self):
        one = region_fault_plan_for("blackout", _tiny_spec())
        two = region_fault_plan_for("brownout", _tiny_spec())
        a = region_fault_rng("fp", one, "region0:handoff")
        b = region_fault_rng("fp", two, "region0:handoff")
        assert a.random() != b.random()
