"""End-to-end system flows: negotiation + scheduling + simulation +
adaptation across the whole stack."""

import pytest

from repro.core.braidio import BraidioRadio, plan_transfer
from repro.core.controller import DynamicOffloadController
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap, Regime
from repro.hardware.battery import Battery
from repro.mac.protocol import (
    BatteryStatus,
    Negotiation,
    ProbeReport,
    ScheduleAnnouncement,
)
from repro.mac.frames import Frame, FrameType
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator
from repro.sim.traffic import SaturatedTraffic


class TestNegotiationToSchedule:
    """Run the §4.2 handshake end-to-end: exchange batteries over the
    control protocol, probe the links, solve Eq 1, announce the schedule."""

    def test_full_pipeline(self):
        link_map = LinkMap()
        distance = 0.5
        watch = BraidioRadio.for_device("Apple Watch")
        phone = BraidioRadio.for_device("iPhone 6S")

        # 1. Battery exchange over the (always-working) active link.
        watch_side = Negotiation()
        phone_side = Negotiation()
        frame_w = watch_side.start(
            BatteryStatus(watch.battery.remaining_j, watch.battery.capacity_j)
        )
        frame_p = phone_side.start(
            BatteryStatus(phone.battery.remaining_j, phone.battery.capacity_j)
        )
        watch_side.on_battery(Frame.decode(frame_p.encode()))
        phone_side.on_battery(Frame.decode(frame_w.encode()))

        # 2. Probing: measure each candidate link, report to the peer.
        sim = Simulator(seed=0)
        link = SimulatedLink(link_map, distance, sim.rng)
        for mode in LinkMode:
            availability = link_map.availability(mode, distance)
            if not availability.available:
                continue
            rate = availability.best_bitrate_bps
            report = ProbeReport(
                mode, rate, link.snr_db(mode, rate), link.ber(mode, rate)
            )
            watch_side.on_probe_report(
                Frame(FrameType.PROBE_REPORT, 0, payload=report.encode())
            )
        assert len(watch_side.reports) == 3

        # 3. Solve and announce.
        controller = DynamicOffloadController(link_map=link_map)
        plan = controller.start(
            distance, watch.battery.remaining_j, phone.battery.remaining_j
        )
        blocks = tuple(
            (entry.mode, plan.bitrates[entry.mode], entry.packets)
            for entry in plan.schedule.entries
        )
        announce = watch_side.finish(ScheduleAnnouncement(blocks=blocks))
        phone_side.on_schedule(Frame.decode(announce.encode()))
        assert phone_side.schedule is not None
        adopted = {mode for mode, _, _ in phone_side.schedule.blocks}
        assert LinkMode.BACKSCATTER in adopted


class TestLifecycle:
    def test_plan_then_simulate_consistency(self):
        # The analytic plan and a scaled-down simulation agree on the
        # energy split direction.
        watch = BraidioRadio.for_device("Apple Watch")
        phone = BraidioRadio.for_device("iPhone 6S")
        plan = plan_transfer(watch, phone, distance_m=0.5)
        expected_ratio = plan.rx_power_w / plan.tx_power_w

        sim = Simulator(seed=4)
        small_watch = BraidioRadio.for_device("Apple Watch")
        small_watch.battery = Battery(
            watch.battery.capacity_wh * 1e-5
        )
        small_phone = BraidioRadio.for_device("iPhone 6S")
        small_phone.battery = Battery(phone.battery.capacity_wh * 1e-5)
        link = SimulatedLink(LinkMap(), 0.5, sim.rng)
        session = CommunicationSession(
            sim,
            small_watch,
            small_phone,
            link,
            BraidioPolicy(),
            traffic=SaturatedTraffic(),
            apply_switch_costs=False,
        )
        metrics = session.run()
        simulated_ratio = metrics.energy_b_j / metrics.energy_a_j
        assert simulated_ratio == pytest.approx(expected_ratio, rel=0.1)

    def test_distance_change_mid_session(self):
        sim = Simulator(seed=5)
        a = BraidioRadio.for_device("Apple Watch")
        a.battery = Battery(1e-3)
        b = BraidioRadio.for_device("Surface Book")
        b.battery = Battery(1e-1)
        link = SimulatedLink(LinkMap(), 0.3, sim.rng)
        policy = BraidioPolicy()
        session = CommunicationSession(
            sim, a, b, link, policy, max_packets=10_000_000
        )
        session.start()
        sim.run(until_s=0.1)
        assert not session.finished
        assert policy.controller.plan.regime is Regime.A

        link.set_distance(3.0)
        policy.update_distance(3.0)
        sim.run(until_s=sim.now_s + 0.1)
        assert not session.finished
        assert policy.controller.plan.regime is Regime.B
        # In regime B with the watch transmitting, only the active link
        # helps (passive would cost the watch more than active).
        fractions = policy.controller.plan.solution.mode_fractions()
        assert fractions.get(LinkMode.BACKSCATTER, 0.0) == pytest.approx(0.0)

    def test_library_import_surface(self):
        # The README quickstart snippet must work verbatim.
        from repro import BraidioRadio as Radio, plan_transfer as plan_fn

        watch = Radio.for_device("Apple Watch")
        phone = Radio.for_device("iPhone 6S")
        plan = plan_fn(watch, phone, distance_m=0.5)
        assert plan.total_bits > 0
