"""Unit tests for the declarative fault schedules (plans, specs,
canonical ordering, serialization, fingerprints, window validation)."""

import json

import pytest

from repro.core.modes import LinkMode
from repro.faults import (
    FAULT_SCHEMA_VERSION,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RegionFaultKind,
    RegionFaultPlan,
    RegionFaultSpec,
    validate_windows,
)


def _outage(start=0.1, duration=0.1):
    return FaultSpec(FaultKind.LINK_OUTAGE, start_s=start, duration_s=duration)


class TestSpecValidation:
    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=-0.1, duration_s=0.1)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.1, duration_s=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["start_s", "duration_s", "magnitude"])
    def test_non_finite_number_names_the_field(self, field, bad):
        # A NaN onset used to slip past the range checks and break the
        # canonical sort; NaN/inf magnitudes only failed mid-session.
        values = {"start_s": 0.1, "duration_s": 0.1, "magnitude": 3.0, field: bad}
        with pytest.raises(ValueError, match=f"field '{field}' must be finite"):
            FaultSpec(FaultKind.DEEP_FADE, **values)

    def test_window_kind_needs_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.1)

    def test_instant_kind_rejects_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.BATTERY_STEP_DRAIN,
                start_s=0.1,
                duration_s=0.2,
                magnitude=1.0,
                target="a",
            )

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_ack_probability_bounded(self, p):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.1, duration_s=0.1, magnitude=p
            )

    def test_misreport_scale_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.BATTERY_MISREPORT,
                start_s=0.1,
                duration_s=0.1,
                magnitude=0.0,
                target="a",
            )

    def test_step_drain_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.BATTERY_STEP_DRAIN, start_s=0.1, magnitude=0.0, target="a"
            )

    @pytest.mark.parametrize(
        "kind",
        [FaultKind.NODE_CRASH, FaultKind.BATTERY_MISREPORT],
    )
    def test_targeted_kinds_need_target(self, kind):
        with pytest.raises(ValueError):
            FaultSpec(kind, start_s=0.1, duration_s=0.1, magnitude=0.5)

    def test_blocked_modes(self):
        assert _outage().blocked_modes() == frozenset(LinkMode)
        carrier = FaultSpec(FaultKind.CARRIER_DROPOUT, start_s=0.1, duration_s=0.1)
        assert carrier.blocked_modes() == frozenset(
            {LinkMode.BACKSCATTER, LinkMode.PASSIVE}
        )
        fade = FaultSpec(
            FaultKind.DEEP_FADE, start_s=0.1, duration_s=0.1, magnitude=10.0
        )
        assert fade.blocked_modes() is None


class TestPlanCanonicalForm:
    def test_order_independent_identity(self):
        a, b = _outage(0.5), _outage(0.1)
        assert FaultPlan.of(a, b) == FaultPlan.of(b, a)
        assert FaultPlan.of(a, b).fingerprint() == FaultPlan.of(b, a).fingerprint()

    def test_specs_sorted_by_onset(self):
        plan = FaultPlan.of(_outage(0.5), _outage(0.1))
        assert [spec.start_s for spec in plan] == [0.1, 0.5]

    def test_different_plans_differ(self):
        assert FaultPlan.of(_outage(0.1)).fingerprint() != (
            FaultPlan.of(_outage(0.2)).fingerprint()
        )

    def test_empty_plan(self):
        plan = FaultPlan.empty()
        assert plan.is_empty
        assert len(plan) == 0
        assert plan.horizon_s() == 0.0

    def test_horizon_covers_latest_end(self):
        plan = FaultPlan.of(_outage(0.1, 0.5), _outage(0.3, 0.1))
        assert plan.horizon_s() == pytest.approx(0.6)


class TestSerialization:
    def test_json_round_trip(self):
        plan = FaultPlan.of(
            _outage(),
            FaultSpec(
                FaultKind.BATTERY_STEP_DRAIN, start_s=0.3, magnitude=2.5, target="a"
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_version_stamped(self):
        import json

        assert json.loads(FaultPlan.empty().to_json())["version"] == (
            FAULT_SCHEMA_VERSION
        )

    def test_rejects_unknown_schema_version(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json('{"version": 999, "faults": []}')

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"kind": "gremlins", "start_s": 0.1})


class TestWindowValidation:
    def test_overlapping_stateful_windows_rejected(self):
        specs = [
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.1, duration_s=0.2, magnitude=0.5
            ),
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.2, duration_s=0.2, magnitude=0.9
            ),
        ]
        with pytest.raises(ValueError, match="overlapping"):
            validate_windows(specs)

    def test_disjoint_windows_accepted(self):
        validate_windows(
            [
                FaultSpec(
                    FaultKind.DEEP_FADE, start_s=0.1, duration_s=0.1, magnitude=10.0
                ),
                FaultSpec(
                    FaultKind.DEEP_FADE, start_s=0.2, duration_s=0.1, magnitude=20.0
                ),
            ]
        )

    def test_different_targets_may_overlap(self):
        validate_windows(
            [
                FaultSpec(
                    FaultKind.BATTERY_MISREPORT,
                    start_s=0.1,
                    duration_s=0.3,
                    magnitude=0.5,
                    target="a",
                ),
                FaultSpec(
                    FaultKind.BATTERY_MISREPORT,
                    start_s=0.2,
                    duration_s=0.3,
                    magnitude=0.5,
                    target="b",
                ),
            ]
        )

    def test_overlapping_outages_allowed(self):
        # Blocking faults stack via depth counters; overlap is fine.
        validate_windows([_outage(0.1, 0.3), _outage(0.2, 0.3)])

    def test_plan_rejects_ambiguous_windows_when_built(self):
        # Such a plan used to be accepted until an injector armed it.
        first = FaultSpec(
            FaultKind.DEEP_FADE, start_s=0.1, duration_s=0.2, magnitude=3.0, target="a"
        )
        second = FaultSpec(
            FaultKind.DEEP_FADE, start_s=0.2, duration_s=0.2, magnitude=6.0, target="a"
        )
        with pytest.raises(ValueError, match="overlapping deep_fade windows on 'a'"):
            FaultPlan.of(first, second)
        payload = json.loads(FaultPlan.of(first).to_json())
        payload["faults"].append(second.to_dict())
        with pytest.raises(ValueError, match="overlapping deep_fade"):
            FaultPlan.from_json(json.dumps(payload))


#: One plan of each kind, whose first fault the cases below edit.
_PLANS = {
    "pair": FaultPlan.of(
        FaultSpec(FaultKind.DEEP_FADE, start_s=1.0, duration_s=0.5, magnitude=3.0, target="a")
    ),
    "region": RegionFaultPlan.of(
        RegionFaultSpec(
            RegionFaultKind.NOISE_SURGE, start_s=1.0, duration_s=0.5, magnitude=6.0, hub=1
        )
    ),
}

#: Marks a key the edit removes.
_DROP = object()


def _edited(kind, edit):
    payload = json.loads(_PLANS[kind].to_json())
    fault = payload["faults"][0]
    for key, value in edit.items():
        if value is _DROP:
            del fault[key]
        else:
            fault[key] = value
    return json.dumps(payload)


class TestStrictPlanJson:
    """Fault-plan JSON fails the way scenario JSON does: one ValueError
    that names the key.  Each case used to be coerced, dropped or end in
    a KeyError/AttributeError/TypeError."""

    @pytest.mark.parametrize("kind", sorted(_PLANS))
    @pytest.mark.parametrize(
        "key,value",
        [
            ("start_s", "1.0"),
            ("start_s", True),
            ("duration_s", None),
            ("magnitude", "3"),
            ("kind", "gremlins"),
            ("kind", _DROP),
            ("start_s", _DROP),
            ("targte", "a"),
            ("hubs", 3),
        ],
        ids=[
            "string-start", "bool-start", "null-duration", "string-magnitude",
            "unknown-kind", "missing-kind", "missing-start", "typo-targte",
            "typo-hubs",
        ],
    )
    def test_bad_fault_names_the_key(self, kind, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            type(_PLANS[kind]).from_json(_edited(kind, {key: value}))

    @pytest.mark.parametrize("value", [1.9, "1", True])
    def test_region_hub_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="field 'hub' must be an integer"):
            RegionFaultPlan.from_json(_edited("region", {"hub": value}))

    def test_region_hubs_typo_is_not_region_wide(self):
        # A typo'd "hubs" used to drop the key and turn a one-hub surge
        # into a region-wide one.
        with pytest.raises(ValueError, match="unknown region fault field\\(s\\) 'hubs'"):
            RegionFaultPlan.from_json(_edited("region", {"hub": _DROP, "hubs": 3}))

    @pytest.mark.parametrize("value", [5, None])
    def test_pair_target_must_be_a_string(self, value):
        with pytest.raises(ValueError, match="field 'target' must be a string"):
            FaultPlan.from_json(_edited("pair", {"target": value}))

    @pytest.mark.parametrize("kind", sorted(_PLANS))
    @pytest.mark.parametrize(
        "text,needle",
        [
            ('{"version": 1}', "missing required field 'faults'"),
            ('{"version": 1, "faults": 3}', "field 'faults' must be a sequence"),
            ('{"version": 1, "faults": [1]}', "fault must be a mapping, got 1"),
            ('{"version": 1, "faults": [], "fault": []}', "field\\(s\\) 'fault'"),
            ('{"version": "1", "faults": []}', "schema '1' != supported 1"),
            ("[1]", "plan must be a mapping, got \\[1\\]"),
        ],
        ids=[
            "missing-faults", "faults-not-a-list", "fault-not-a-mapping",
            "typo-fault", "string-version", "not-a-mapping",
        ],
    )
    def test_bad_plan_names_the_key(self, kind, text, needle):
        with pytest.raises(ValueError, match=needle):
            type(_PLANS[kind]).from_json(text)
