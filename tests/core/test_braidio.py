"""Unit tests for the public facade."""

import pytest

from repro.core.braidio import BraidioRadio, plan_transfer
from repro.core.modes import LinkMode
from repro.core.offload import InfeasibleOffloadError
from repro.core.regimes import Regime
from repro.hardware.battery import Battery


class TestBraidioRadio:
    def test_for_device_builds_fresh_battery(self):
        radio = BraidioRadio.for_device("Pebble Watch")
        assert radio.name == "Pebble Watch"
        assert radio.battery.capacity_wh == pytest.approx(0.48)
        assert radio.battery.state_of_charge == 1.0

    def test_for_device_with_partial_charge(self):
        radio = BraidioRadio.for_device("Pebble Watch", charge_fraction=0.5)
        assert radio.battery.state_of_charge == pytest.approx(0.5)

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            BraidioRadio.for_device("Nokia 3310")

    def test_custom_battery_respected(self):
        radio = BraidioRadio.for_device("Pebble Watch")
        radio.battery = Battery(1e-3)
        assert radio.battery.capacity_wh == pytest.approx(1e-3)


class TestPlanTransfer:
    def test_close_range_plan(self):
        watch = BraidioRadio.for_device("Apple Watch")
        phone = BraidioRadio.for_device("iPhone 6S")
        plan = plan_transfer(watch, phone, distance_m=0.5)
        assert plan.plan.regime is Regime.A
        assert plan.total_bits > 0
        assert plan.duration_s > 0

    def test_watch_to_phone_favours_backscatter(self):
        watch = BraidioRadio.for_device("Apple Watch")
        phone = BraidioRadio.for_device("iPhone 6S")
        plan = plan_transfer(watch, phone, distance_m=0.5)
        fractions = plan.plan.solution.mode_fractions()
        assert fractions[LinkMode.BACKSCATTER] > 0.5

    def test_power_split_matches_battery_ratio(self):
        watch = BraidioRadio.for_device("Apple Watch")
        phone = BraidioRadio.for_device("iPhone 6S")
        plan = plan_transfer(watch, phone, distance_m=0.5)
        energy_ratio = watch.battery.remaining_j / phone.battery.remaining_j
        assert plan.tx_power_w / plan.rx_power_w == pytest.approx(
            energy_ratio, rel=1e-6
        )

    def test_plans_from_the_joules_left_in_each_battery(self):
        watch = BraidioRadio.for_device("Apple Watch", charge_fraction=0.5)
        phone = BraidioRadio.for_device("iPhone 6S")
        phone.battery.drain_energy(1000.0)
        plan = plan_transfer(watch, phone, distance_m=0.5)
        tx_j = watch.battery.remaining_j
        rx_j = phone.battery.remaining_j
        assert plan.total_bits == plan.plan.solution.total_bits(tx_j, rx_j)
        assert plan.plan.solution.energy_ratio == tx_j / rx_j

    def test_beyond_range_raises(self):
        a = BraidioRadio.for_device("Apple Watch")
        b = BraidioRadio.for_device("iPhone 6S")
        with pytest.raises(InfeasibleOffloadError):
            plan_transfer(a, b, distance_m=50.0)

    def test_duration_consistent_with_bits_and_rate(self):
        a = BraidioRadio.for_device("Nexus 6P")
        b = BraidioRadio.for_device("Surface Book")
        plan = plan_transfer(a, b, distance_m=1.0)
        rate = plan.plan.solution.mean_bitrate_bps()
        assert plan.duration_s == pytest.approx(plan.total_bits / rate)
