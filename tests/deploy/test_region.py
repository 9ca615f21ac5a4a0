"""Region simulation: device planning, churn timelines, hub sessions."""

import pytest

from repro.deploy import DeploymentSpec, DeviceClass, HubLayout, partition
from repro.deploy.region import (
    churn_timeline,
    neighbor_penalty_db,
    plan_hub_devices,
    simulate_hub,
    simulate_region,
)
from repro.deploy.spec import ChurnProcess
from repro.deploy.scenarios import scenario


def _micro_spec(**overrides):
    defaults = dict(
        name="micro",
        hubs=HubLayout(strategy="grid", count=1, spacing_m=100.0),
        classes=(
            DeviceClass(name="phone", device="iPhone 6S", share=0.5,
                        tdma_weight=2.0),
            DeviceClass(name="tag", device="Nike Fuel Band", share=0.5),
        ),
        devices_per_hub=4,
        hub_device="Surface Book",
        warmup_s=0.2,
        duration_s=0.8,
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class TestChurnTimeline:
    def _rng(self, spec, label="t"):
        return spec.stream(label)

    def test_static_spec_skips_sampling(self):
        spec = _micro_spec()
        plans = plan_hub_devices(spec, 0)
        assert all(plan.timeline == () for plan in plans)

    def test_events_alternate_and_stay_in_horizon(self):
        spec = _micro_spec()
        churn = ChurnProcess(mean_awake_s=0.5, mean_asleep_s=0.3)
        timeline = churn_timeline(self._rng(spec), churn, horizon_s=10.0)
        assert all(0.0 <= when < 10.0 for when, _ in timeline)
        kinds = [kind for _, kind in timeline]
        assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))
        assert sorted(when for when, _ in timeline) == [
            when for when, _ in timeline
        ]

    def test_late_join_starts_suspended(self):
        spec = _micro_spec()
        churn = ChurnProcess(late_join_fraction=1.0, mean_join_delay_s=0.5)
        timeline = churn_timeline(self._rng(spec), churn, horizon_s=10.0)
        assert timeline[0] == (0.0, "suspend")
        if len(timeline) > 1:
            assert timeline[1][1] == "resume"

    def test_permanent_leave_truncates(self):
        spec = _micro_spec()
        churn = ChurnProcess(mean_awake_s=0.5, mean_asleep_s=0.3,
                             mean_lifetime_s=2.0)
        timeline = churn_timeline(self._rng(spec), churn, horizon_s=1000.0)
        assert timeline  # with a 2s mean lifetime a leave lands well inside
        last_when, last_kind = timeline[-1]
        assert last_kind == "suspend"
        assert all(when <= last_when for when, _ in timeline)


class _QueuedRng:
    """Stub RNG feeding churn_timeline a scripted draw sequence."""

    def __init__(self, uniform=0.0, exponentials=()):
        self._uniform = uniform
        self._exponentials = list(exponentials)

    def random(self):
        return self._uniform

    def exponential(self, mean):
        return self._exponentials.pop(0)


class TestChurnTimelineEdges:
    def test_static_process_yields_no_events(self):
        # Zero-rate churn: the late-join and join-delay draws are still
        # consumed (fixed draw order) but nothing is scheduled.
        rng = _QueuedRng(uniform=0.99, exponentials=[1.0])
        timeline = churn_timeline(rng, ChurnProcess(), horizon_s=10.0)
        assert timeline == ()

    def test_arrival_exactly_at_horizon_never_resumes(self):
        # A late joiner whose join lands exactly on the horizon starts
        # suspended and stays suspended — no resume at or past the end.
        churn = ChurnProcess(late_join_fraction=1.0, mean_join_delay_s=1.0)
        rng = _QueuedRng(uniform=0.0, exponentials=[10.0])
        timeline = churn_timeline(rng, churn, horizon_s=10.0)
        assert timeline == ((0.0, "suspend"),)

    def test_departure_before_arrival_orders_suspends(self):
        # Lifetime expires before the late join lands: the device never
        # resumes, and the timeline is two ordered (idempotent) suspends.
        churn = ChurnProcess(
            late_join_fraction=1.0, mean_join_delay_s=1.0, mean_lifetime_s=1.0
        )
        rng = _QueuedRng(uniform=0.0, exponentials=[5.0, 2.0])
        timeline = churn_timeline(rng, churn, horizon_s=10.0)
        assert timeline == ((0.0, "suspend"), (2.0, "suspend"))
        assert [when for when, _ in timeline] == sorted(
            when for when, _ in timeline
        )


class TestDevicePlanning:
    def test_population_and_names(self):
        spec = _micro_spec(devices_per_hub=10)
        plans = plan_hub_devices(spec, 3)
        assert len(plans) == 10
        names = [plan.name for plan in plans]
        assert len(set(names)) == 10
        assert all(name.startswith("h3-") for name in names)

    def test_distances_respect_class_bounds(self):
        spec = _micro_spec(devices_per_hub=20)
        for plan in plan_hub_devices(spec, 0):
            device_class = spec.device_class(plan.class_name)
            assert (
                device_class.min_distance_m - 0.011
                <= plan.distance_m
                <= device_class.max_distance_m + 0.011
            )
            # centimetre-quantized (bounded link-cache key set)
            assert round(plan.distance_m * 100) == pytest.approx(
                plan.distance_m * 100
            )

    def test_planning_is_hub_addressed(self):
        spec = _micro_spec()
        assert plan_hub_devices(spec, 0) == plan_hub_devices(spec, 0)
        assert plan_hub_devices(spec, 0) != plan_hub_devices(spec, 1)


class TestNeighborPenalty:
    def test_rolls_off_with_distance_and_clamps(self):
        spec = _micro_spec(interference_penalty_db=20.0)
        near = neighbor_penalty_db(spec, (5.0,))
        ref = neighbor_penalty_db(spec, (10.0,))
        far = neighbor_penalty_db(spec, (10_000.0,))
        assert near > ref > far
        assert ref == pytest.approx(20.0)
        assert far == 0.0
        assert neighbor_penalty_db(spec, ()) == 0.0


class TestSimulateHub:
    def test_single_hub_report_shape(self):
        spec = _micro_spec()
        part = partition(spec)
        report = simulate_hub(spec, part.regions[0], 0)
        assert report["hub"] == 0
        assert report["devices"] == 4
        assert report["terminated_by"] == "time"
        assert report["bits_delivered"] > 0
        assert 0.0 < report["delivery_ratio"] <= 1.0
        assert report["lp_bits"] > 0
        assert not report["interfered"]

    def test_churny_hub_survives_and_counts_suspensions(self):
        spec = _micro_spec(
            devices_per_hub=6,
            churn=ChurnProcess(mean_awake_s=0.3, mean_asleep_s=0.2,
                               late_join_fraction=0.5,
                               mean_join_delay_s=0.2),
        )
        part = partition(spec)
        report = simulate_hub(spec, part.regions[0], 0)
        assert report["terminated_by"] == "time"
        assert report["suspensions"] > 0
        assert report["resumes"] > 0

    def test_warmup_excluded_from_measured_window(self):
        # Same 2.0 s horizon twice: once measured in full, once with the
        # first 1.6 s treated as warmup. The warmed report must drop the
        # warmup's worth of traffic, not just relabel the window — its
        # 0.4 s window carries a fraction of the full run's counts even
        # allowing for seed-to-seed rate variance.
        full = _micro_spec(warmup_s=0.0, duration_s=2.0)
        warmed = _micro_spec(warmup_s=1.6, duration_s=0.4)
        part_f, part_w = partition(full), partition(warmed)
        everything = simulate_hub(full, part_f.regions[0], 0)
        warm = simulate_hub(warmed, part_w.regions[0], 0)
        assert warm["bits_delivered"] > 0
        assert warm["packets_attempted"] < everything["packets_attempted"] * 0.6
        assert warm["bits_delivered"] < everything["bits_delivered"] * 0.6


class TestSimulateRegion:
    def test_region_aggregates_hub_reports(self):
        spec = scenario("smoke")
        part = partition(spec)
        region = part.regions[0]
        report = simulate_region(spec, region)
        assert report["hub_count"] == region.hub_count
        assert len(report["hubs"]) == region.hub_count
        assert report["bits_delivered"] == sum(
            hub["bits_delivered"] for hub in report["hubs"]
        )
        assert report["devices"] == spec.devices_per_hub * region.hub_count

    def test_co_channel_hubs_get_interfered_links(self):
        # Two hubs forced onto one channel couple through the interferer.
        spec = _micro_spec(
            hubs=HubLayout(
                strategy="manual", positions_m=((0.0, 0.0), (8.0, 0.0))
            ),
            n_channels=1,
            devices_per_hub=2,
        )
        part = partition(spec)
        assert len(part.regions) == 1
        report = simulate_region(spec, part.regions[0])
        assert report["interfered_hubs"] == 2
        assert all(hub["interfered"] for hub in report["hubs"])
