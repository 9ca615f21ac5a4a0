"""Unit tests for the discrete-event communication session."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.braidio import BraidioRadio
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.energy import ChargeCategory
from repro.hardware.battery import Battery
from repro.sim.link import SimulatedLink
from repro.sim.policies import BluetoothPolicy, BraidioPolicy, FixedModePolicy
from repro.sim.session import FRAME_OVERHEAD_BITS, CommunicationSession
from repro.sim.simulator import Simulator
from repro.sim.traffic import BidirectionalTraffic


def _radios(wh_a=1e-5, wh_b=1e-3):
    a = BraidioRadio.for_device("Nike Fuel Band")
    a.battery = Battery(wh_a)
    b = BraidioRadio.for_device("iPhone 6S")
    b.battery = Battery(wh_b)
    return a, b


def _session(policy, seed=0, distance=0.3, **kwargs):
    sim = Simulator(seed=seed)
    a, b = _radios()
    link = SimulatedLink(LinkMap(), distance, sim.rng)
    session = CommunicationSession(sim, a, b, link, policy, **kwargs)
    return session, a, b


class TestTermination:
    def test_runs_to_battery_death(self):
        session, a, b = _session(BraidioPolicy())
        metrics = session.run()
        assert metrics.terminated_by == "battery"
        assert a.battery.is_empty or b.battery.is_empty

    def test_max_packets_bound(self):
        session, _, _ = _session(BraidioPolicy(), max_packets=100)
        metrics = session.run()
        assert metrics.terminated_by == "packets"
        assert metrics.packets_attempted == 100

    def test_max_time_bound(self):
        session, _, _ = _session(BraidioPolicy(), max_time_s=0.01)
        metrics = session.run()
        assert metrics.terminated_by == "time"
        assert metrics.duration_s == pytest.approx(0.01)

    def test_run_returns_while_a_mobility_driver_ticks(self):
        # A session without max_time_s runs its kernel unbounded, and a
        # mobility driver reschedules itself forever; the session must
        # drop the calendar when it ends.  A regression never returns,
        # so it runs in a child process under a deadline.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "from repro.core.braidio import BraidioRadio\n"
            "from repro.core.regimes import LinkMap\n"
            "from repro.sim.link import SimulatedLink\n"
            "from repro.sim.mobility import LinearWalk, MobilityDriver\n"
            "from repro.sim.policies import BraidioPolicy\n"
            "from repro.sim.session import CommunicationSession\n"
            "from repro.sim.simulator import Simulator\n"
            "sim = Simulator(seed=1)\n"
            "link = SimulatedLink(LinkMap(), 0.3, sim.rng)\n"
            "policy = BraidioPolicy()\n"
            "session = CommunicationSession(\n"
            "    sim, BraidioRadio.for_device('Apple Watch'),\n"
            "    BraidioRadio.for_device('Surface Book'), link, policy, max_packets=10,\n"
            ")\n"
            "MobilityDriver(sim, link, [policy], LinearWalk()).start()\n"
            "metrics = session.run()\n"
            "print(metrics.terminated_by, metrics.packets_attempted, sim.pending_events())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["packets", "10", "0"]


class TestEnergyAccounting:
    def test_energy_conservation_without_switch_costs(self):
        session, a, b = _session(
            BraidioPolicy(), max_packets=500, apply_switch_costs=False
        )
        initial_a = a.battery.remaining_j
        initial_b = b.battery.remaining_j
        metrics = session.run()
        assert initial_a - a.battery.remaining_j == pytest.approx(
            metrics.energy_a_j, rel=1e-9
        )
        assert initial_b - b.battery.remaining_j == pytest.approx(
            metrics.energy_b_j, rel=1e-9
        )

    def test_switch_costs_drain_batteries_beyond_metrics(self):
        session, a, b = _session(BraidioPolicy(), max_packets=500)
        initial_total = a.battery.remaining_j + b.battery.remaining_j
        metrics = session.run()
        drained = initial_total - a.battery.remaining_j - b.battery.remaining_j
        # Battery drain = per-packet energy + switch energy, exactly.
        assert drained == pytest.approx(
            metrics.energy_a_j + metrics.energy_b_j + metrics.switch_energy_j,
            rel=1e-9,
        )

    def test_asymmetric_drain_for_asymmetric_batteries(self):
        session, _, _ = _session(BraidioPolicy(), max_packets=2000)
        metrics = session.run()
        # TX-side (fuel band) must spend orders of magnitude less.
        assert metrics.energy_b_j / metrics.energy_a_j > 50.0

    def test_bluetooth_drain_is_symmetric(self):
        session, _, _ = _session(BluetoothPolicy(), max_packets=1000)
        metrics = session.run()
        assert metrics.energy_a_j == pytest.approx(metrics.energy_b_j, rel=1e-6)

    def test_switch_costs_accounted(self):
        session, _, _ = _session(BraidioPolicy(), max_packets=500)
        metrics = session.run()
        if metrics.mode_switches > 0:
            assert metrics.switch_energy_j > 0.0

    def test_switch_costs_can_be_disabled(self):
        session, _, _ = _session(
            BraidioPolicy(), max_packets=500, apply_switch_costs=False
        )
        metrics = session.run()
        assert metrics.switch_energy_j == 0.0


class TestStepDrain:
    def test_books_the_fault_and_drains_without_metering(self):
        session, _, b = _session(BraidioPolicy(), max_packets=100)
        initial_b = b.battery.remaining_j
        session.apply_step_drain("b", 1.0)
        account = session.ledger.account("b")
        assert account.category_j(ChargeCategory.FAULT) == 1.0
        assert account.metered_j == 0.0
        assert b.battery.remaining_j == pytest.approx(initial_b - 1.0)
        assert session.metrics.terminated_by == ""

    def test_drain_past_empty_ends_the_session(self):
        # The fault is attributed before the drain, so the whole amount
        # is booked even though the battery held less.
        session, a, _ = _session(BraidioPolicy(), max_packets=100)
        session.apply_step_drain("a", 10.0)
        assert a.battery.is_empty
        assert session.metrics.terminated_by == "battery"
        assert session.metrics.fault_energy_j == 10.0

    def test_ignored_once_the_session_ended(self):
        session, _, b = _session(BraidioPolicy(), max_packets=10)
        session.run()
        remaining_b = b.battery.remaining_j
        session.apply_step_drain("b", 1.0)
        assert b.battery.remaining_j == remaining_b
        assert session.metrics.fault_energy_j == 0.0


class TestModeUsage:
    def test_braidio_uses_asymmetric_modes(self):
        session, _, _ = _session(BraidioPolicy(), max_packets=1000)
        metrics = session.run()
        fractions = metrics.mode_fractions()
        assert fractions.get(LinkMode.BACKSCATTER, 0.0) > 0.8

    def test_fixed_policy_uses_one_mode(self):
        session, _, _ = _session(FixedModePolicy(LinkMode.PASSIVE), max_packets=200)
        metrics = session.run()
        assert set(metrics.mode_fractions()) == {LinkMode.PASSIVE}
        assert metrics.mode_switches == 0

    def test_delivery_ratio_high_at_close_range(self):
        session, _, _ = _session(BraidioPolicy(), max_packets=1000)
        metrics = session.run()
        assert metrics.packet_delivery_ratio > 0.99


class TestBidirectional:
    def test_both_directions_carry_data(self):
        sim = Simulator(seed=2)
        a, b = _radios(5e-5, 5e-4)
        link = SimulatedLink(LinkMap(), 0.3, sim.rng)
        session = CommunicationSession(
            sim,
            a,
            b,
            link,
            policy_ab=BraidioPolicy(),
            policy_ba=BraidioPolicy(),
            traffic=BidirectionalTraffic(burst_packets=16),
            max_packets=640,
        )
        metrics = session.run()
        assert metrics.packets_attempted == 640
        # Both passive and backscatter appear because the poor device
        # backscatters when talking and envelope-receives when listening.
        fractions = metrics.mode_fractions()
        assert fractions.get(LinkMode.BACKSCATTER, 0.0) > 0.2
        assert fractions.get(LinkMode.PASSIVE, 0.0) > 0.2

    def test_shared_stateless_policy_allowed(self):
        sim = Simulator(seed=3)
        a, b = _radios()
        link = SimulatedLink(LinkMap(), 0.3, sim.rng)
        shared = BluetoothPolicy()
        session = CommunicationSession(
            sim,
            a,
            b,
            link,
            policy_ab=shared,
            policy_ba=shared,
            traffic=BidirectionalTraffic(burst_packets=8),
            max_packets=64,
        )
        metrics = session.run()
        assert metrics.packets_attempted == 64


class TestFrameOverhead:
    def test_overhead_constant_matches_frame_codec(self):
        from repro.mac.frames import Frame, FrameType
        from repro.mac.preamble import PREAMBLE_BITS

        expected = len(PREAMBLE_BITS) + 8 * len(Frame(FrameType.DATA, 0).encode())
        assert FRAME_OVERHEAD_BITS == expected

    def test_rejects_bad_energy_interval(self):
        sim = Simulator()
        a, b = _radios()
        link = SimulatedLink(LinkMap(), 0.3, sim.rng)
        with pytest.raises(ValueError):
            CommunicationSession(
                sim, a, b, link, BraidioPolicy(), energy_update_interval=0
            )
