"""Unit tests for the link policies."""

import pytest

from repro.core.modes import LinkMode
from repro.core.offload import InfeasibleOffloadError
from repro.hardware.baselines import BluetoothBaseline
from repro.sim.policies import BluetoothPolicy, BraidioPolicy, FixedModePolicy


class TestBraidioPolicy:
    def test_decisions_follow_offload_plan(self):
        policy = BraidioPolicy()
        policy.start(0.3, 1.0, 1000.0)
        decisions = [policy.next_packet() for _ in range(64)]
        backscatter = sum(1 for d in decisions if d.mode is LinkMode.BACKSCATTER)
        assert backscatter > 55  # heavily TX-favourable

    def test_decision_powers_match_table(self):
        from repro.hardware.power_models import paper_mode_power

        policy = BraidioPolicy()
        policy.start(0.3, 1.0, 1000.0)
        decision = next(
            policy.next_packet()
            for _ in range(64)
            if True
        )
        expected = paper_mode_power(decision.mode, decision.bitrate_bps)
        assert decision.tx_power_w == expected.tx_w
        assert decision.rx_power_w == expected.rx_w

    def test_outcome_feedback_reaches_controller(self):
        policy = BraidioPolicy()
        policy.start(0.3, 1.0, 1000.0)
        for _ in range(16):
            policy.record_outcome(LinkMode.BACKSCATTER, False)
        assert policy.controller.fallbacks == 1


class TestFixedModePolicy:
    def test_always_same_mode(self):
        policy = FixedModePolicy(LinkMode.PASSIVE)
        policy.start(1.0, 1.0, 1.0)
        decisions = {policy.next_packet().mode for _ in range(10)}
        assert decisions == {LinkMode.PASSIVE}

    def test_bitrate_resolved_at_distance(self):
        policy = FixedModePolicy(LinkMode.BACKSCATTER)
        policy.start(1.2, 1.0, 1.0)
        assert policy.next_packet().bitrate_bps == 100_000

    def test_out_of_range_raises_at_start(self):
        policy = FixedModePolicy(LinkMode.BACKSCATTER)
        with pytest.raises(InfeasibleOffloadError):
            policy.start(5.0, 1.0, 1.0)

    def test_next_packet_before_start_raises(self):
        with pytest.raises(RuntimeError):
            FixedModePolicy(LinkMode.ACTIVE).next_packet()


class TestDecisionCaching:
    def test_fixed_policy_returns_cached_instance(self):
        policy = FixedModePolicy(LinkMode.PASSIVE)
        policy.start(1.0, 1.0, 1.0)
        assert policy.next_packet() is policy.next_packet()

    def test_fixed_policy_rebuilds_decision_on_distance_update(self):
        policy = FixedModePolicy(LinkMode.BACKSCATTER)
        policy.start(0.5, 1.0, 1.0)
        first = policy.next_packet()
        policy.update_distance(1.2)  # 1 Mbps -> 100 kbps step
        second = policy.next_packet()
        assert second is not first
        assert second.bitrate_bps == 100_000

    def test_bluetooth_policy_returns_cached_instance(self):
        policy = BluetoothPolicy()
        policy.start(1.0, 1.0, 1.0)
        assert policy.next_packet() is policy.next_packet()

    def test_braidio_reuses_decision_within_plan(self):
        policy = BraidioPolicy()
        policy.start(0.3, 1.0, 1000.0)
        by_mode = {}
        for _ in range(64):
            decision = policy.next_packet()
            assert by_mode.setdefault(decision.mode, decision) is decision

    def test_braidio_rebuilds_decisions_after_replan(self):
        policy = BraidioPolicy()
        policy.start(0.3, 1.0, 1000.0)
        before = next(
            d for d in (policy.next_packet() for _ in range(64))
            if d.mode is LinkMode.BACKSCATTER
        )
        for _ in range(16):  # trips the failure fallback -> re-plan
            policy.record_outcome(LinkMode.BACKSCATTER, False)
        assert policy.controller.fallbacks == 1
        after = policy.next_packet()
        assert after is not before

    def test_update_distance_rebinds_bitrate(self):
        policy = FixedModePolicy(LinkMode.BACKSCATTER)
        policy.start(0.3, 1.0, 1.0)
        assert policy.next_packet().bitrate_bps == 1_000_000
        policy.update_distance(2.0)
        assert policy.next_packet().bitrate_bps == 10_000


class TestBluetoothPolicy:
    def test_symmetric_power(self):
        policy = BluetoothPolicy()
        policy.start(0.3, 1.0, 1.0)
        decision = policy.next_packet()
        assert decision.tx_power_w == decision.rx_power_w
        assert decision.mode is LinkMode.ACTIVE

    def test_custom_baseline(self):
        policy = BluetoothPolicy(BluetoothBaseline(tx_power_w=60e-3, rx_power_w=67e-3))
        decision = policy.next_packet()
        assert decision.tx_power_w == pytest.approx(60e-3)
        assert decision.rx_power_w == pytest.approx(67e-3)

    def test_ignores_feedback(self):
        policy = BluetoothPolicy()
        policy.record_outcome(LinkMode.ACTIVE, False)  # no exception, no state
        policy.update_energy(1.0, 1.0)
        policy.update_distance(3.0)
        assert policy.next_packet().mode is LinkMode.ACTIVE
