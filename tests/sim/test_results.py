"""Unit tests for session metrics."""

import math

import pytest

from repro.core.modes import LinkMode
from repro.energy import ChargeCategory
from repro.sim.results import SessionMetrics


class TestAccumulation:
    def test_record_packet_updates_counters(self):
        metrics = SessionMetrics()
        metrics.record_packet(LinkMode.PASSIVE, 240, True)
        metrics.record_packet(LinkMode.PASSIVE, 240, False)
        assert metrics.packets_attempted == 2
        assert metrics.packets_delivered == 1
        assert metrics.bits_attempted == 480
        assert metrics.bits_delivered == 240

    def test_mode_fractions(self):
        metrics = SessionMetrics()
        for _ in range(3):
            metrics.record_packet(LinkMode.BACKSCATTER, 100, True)
        metrics.record_packet(LinkMode.ACTIVE, 100, True)
        fractions = metrics.mode_fractions()
        assert fractions[LinkMode.BACKSCATTER] == pytest.approx(0.75)
        assert fractions[LinkMode.ACTIVE] == pytest.approx(0.25)

    def test_empty_metrics(self):
        metrics = SessionMetrics()
        assert metrics.packet_delivery_ratio == 1.0
        assert metrics.mode_fractions() == {}
        assert math.isinf(metrics.energy_per_delivered_bit_j)
        assert metrics.goodput_bps == 0.0


class TestDerivedQuantities:
    def test_energy_per_bit(self):
        metrics = SessionMetrics()
        metrics.record_packet(LinkMode.ACTIVE, 1000, True)
        metrics.ledger.account("a").book(ChargeCategory.TX_AIR, 1e-3, 1e-3)
        metrics.ledger.account("b").book(ChargeCategory.RX_AIR, 1e-3, 1e-3)
        assert metrics.energy_per_delivered_bit_j == pytest.approx(2e-6)

    def test_goodput(self):
        metrics = SessionMetrics()
        metrics.record_packet(LinkMode.ACTIVE, 1000, True)
        metrics.duration_s = 2.0
        assert metrics.goodput_bps == pytest.approx(500.0)

    def test_total_energy(self):
        metrics = SessionMetrics()
        metrics.ledger.account("a").book(ChargeCategory.TX_AIR, 1.0, 1.0)
        metrics.ledger.account("b").book(ChargeCategory.RX_AIR, 2.0, 2.0)
        assert metrics.total_energy_j == 3.0


@pytest.mark.parametrize(
    "view", ["energy_a_j", "energy_b_j", "switch_energy_j", "idle_energy_j"]
)
def test_energy_views_are_read_only(view):
    metrics = SessionMetrics()
    with pytest.raises(AttributeError):
        setattr(metrics, view, 1.0)
    assert getattr(metrics, view) == 0.0
