"""Unit tests for the dynamic offload controller (§4.2 runtime)."""

import pytest

from repro.core.controller import DynamicOffloadController
from repro.core.modes import LinkMode
from repro.core.offload import InfeasibleOffloadError
from repro.core.regimes import Regime


class TestPlanning:
    def test_start_produces_plan(self):
        controller = DynamicOffloadController()
        plan = controller.start(0.3, 1.0, 100.0)
        assert plan.regime is Regime.A
        assert sum(plan.solution.fractions) == pytest.approx(1.0)

    def test_plan_uses_backscatter_for_poor_transmitter(self):
        controller = DynamicOffloadController()
        plan = controller.start(0.3, 1.0, 100.0)
        fractions = plan.solution.mode_fractions()
        assert fractions[LinkMode.BACKSCATTER] > 0.9

    def test_plan_power_lookup(self):
        controller = DynamicOffloadController()
        plan = controller.start(0.3, 1.0, 100.0)
        power = plan.power_for(LinkMode.BACKSCATTER)
        assert power.mode is LinkMode.BACKSCATTER
        # An unused-but-candidate mode still resolves (re-plans can land
        # between schedule lookup and power lookup).
        active = plan.power_for(LinkMode.ACTIVE)
        assert active.mode is LinkMode.ACTIVE

    def test_plan_power_lookup_rejects_non_candidates(self):
        controller = DynamicOffloadController()
        plan = controller.start(3.0, 1.0, 1.0)  # regime B: no backscatter
        with pytest.raises(KeyError):
            plan.power_for(LinkMode.BACKSCATTER)

    def test_start_beyond_all_ranges_fails(self):
        controller = DynamicOffloadController()
        with pytest.raises(InfeasibleOffloadError):
            controller.start(100.0, 1.0, 1.0)

    def test_next_packet_before_start_fails(self):
        with pytest.raises(RuntimeError):
            DynamicOffloadController().next_packet_mode()

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            DynamicOffloadController(period_packets=0)
        with pytest.raises(ValueError):
            DynamicOffloadController(failure_threshold=0.0)


class TestScheduleExecution:
    def test_packet_modes_follow_fractions(self):
        controller = DynamicOffloadController(period_packets=64)
        controller.start(0.3, 1.0, 1.0)
        modes = [controller.next_packet_mode()[0] for _ in range(640)]
        passive_share = modes.count(LinkMode.PASSIVE) / len(modes)
        assert passive_share == pytest.approx(0.6947, abs=0.05)

    def test_bitrates_match_plan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        _, bitrate = controller.next_packet_mode()
        assert bitrate == 1_000_000


class TestFallback:
    def test_persistent_failures_exclude_mode(self):
        controller = DynamicOffloadController(
            failure_window=8, failure_threshold=0.5, reprobe_packets=1000
        )
        controller.start(0.3, 1.0, 100.0)
        for _ in range(8):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        assert controller.fallbacks == 1
        fractions = controller.plan.solution.mode_fractions()
        assert fractions.get(LinkMode.BACKSCATTER, 0.0) == pytest.approx(0.0)

    def test_active_mode_never_excluded(self):
        controller = DynamicOffloadController(failure_window=4)
        controller.start(5.5, 1.0, 1.0)  # regime C: active only
        for _ in range(20):
            controller.record_outcome(LinkMode.ACTIVE, False)
        assert controller.fallbacks == 0
        assert controller.plan is not None

    def test_successes_do_not_trigger_fallback(self):
        controller = DynamicOffloadController(failure_window=4)
        controller.start(0.3, 1.0, 100.0)
        for _ in range(100):
            controller.record_outcome(LinkMode.BACKSCATTER, True)
        assert controller.fallbacks == 0

    def test_failure_burst_excludes_and_replans_within_budget(self):
        """ISSUE regression: a burst of backscatter failures must exclude
        the mode and trigger a re-plan whose solution still satisfies the
        energy budgets."""
        controller = DynamicOffloadController(
            failure_window=8, failure_threshold=0.5, reprobe_packets=1000
        )
        e1_j, e2_j = 0.5, 100.0
        controller.start(0.3, e1_j, e2_j)
        replans_before = controller.replans
        for _ in range(8):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        assert controller.fallbacks == 1
        assert controller.replans == replans_before + 1
        solution = controller.plan.solution
        assert solution.mode_fractions().get(
            LinkMode.BACKSCATTER, 0.0
        ) == pytest.approx(0.0)
        # The re-planned mix must still respect both batteries: at the
        # deliverable bit volume, neither side exceeds its budget.
        bits = solution.total_bits(e1_j, e2_j)
        assert bits > 0.0
        assert bits * solution.tx_energy_per_bit_j <= e1_j * (1 + 1e-9)
        assert bits * solution.rx_energy_per_bit_j <= e2_j * (1 + 1e-9)

    def test_repeat_offender_backoff_doubles(self):
        controller = DynamicOffloadController(
            failure_window=4, failure_threshold=0.5, reprobe_packets=16
        )
        controller.start(0.3, 1.0, 100.0)
        health = controller._health[LinkMode.BACKSCATTER]
        for _ in range(4):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        first_until = health.excluded_until_packet
        assert health.strikes == 1
        assert first_until == 16  # first strike: exactly reprobe_packets
        # Second strike: the back-off doubles.
        for _ in range(4):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        assert health.strikes == 2
        assert health.excluded_until_packet == 32

    def test_clean_window_decays_a_strike(self):
        controller = DynamicOffloadController(
            failure_window=4, failure_threshold=0.5, reprobe_packets=16
        )
        controller.start(0.3, 1.0, 100.0)
        health = controller._health[LinkMode.BACKSCATTER]
        for _ in range(4):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        assert health.strikes == 1
        for _ in range(4):
            controller.record_outcome(LinkMode.BACKSCATTER, True)
        assert health.strikes == 0

    def test_all_modes_excluded_forces_active_fallback(self):
        controller = DynamicOffloadController(
            failure_window=4, failure_threshold=0.5, reprobe_packets=1000
        )
        controller.start(0.3, 1.0, 100.0)
        # Exclude every non-active mode the regime offers.
        for mode in (LinkMode.BACKSCATTER, LinkMode.PASSIVE):
            controller._exclude(mode)
        # Force a plan with active also blacklisted (only reachable via
        # external pruning — the public path never excludes ACTIVE).
        controller._health[LinkMode.ACTIVE].excluded_until_packet = 10_000
        plan = controller._compute_plan()
        assert controller.forced_active >= 1
        assert set(plan.solution.mode_fractions()) == {LinkMode.ACTIVE}

    def test_excluded_mode_returns_after_backoff(self):
        controller = DynamicOffloadController(
            failure_window=4, reprobe_packets=16, recompute_interval_packets=8
        )
        controller.start(0.3, 1.0, 100.0)
        for _ in range(4):
            controller.record_outcome(LinkMode.BACKSCATTER, False)
        assert controller.plan.solution.mode_fractions().get(
            LinkMode.BACKSCATTER, 0.0
        ) == pytest.approx(0.0)
        # Walk past the back-off; the periodic recompute readmits the mode.
        for _ in range(40):
            controller.next_packet_mode()
        fractions = controller.plan.solution.mode_fractions()
        assert fractions.get(LinkMode.BACKSCATTER, 0.0) > 0.5


class TestAdaptation:
    def test_energy_drift_triggers_replan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        replans = controller.replans
        controller.update_energy(1.0, 2.0)  # 2x drift
        assert controller.replans == replans + 1

    def test_small_drift_does_not_replan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        replans = controller.replans
        controller.update_energy(0.99, 1.0)
        assert controller.replans == replans

    def test_regime_change_triggers_replan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 100.0)
        replans = controller.replans
        controller.update_distance(3.0)  # into regime B
        assert controller.replans == replans + 1
        assert controller.plan.regime is Regime.B

    def test_bitrate_step_triggers_replan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 100.0)
        replans = controller.replans
        controller.update_distance(1.2)  # backscatter 1M -> 100k
        assert controller.replans == replans + 1
        assert controller.plan.bitrates[LinkMode.BACKSCATTER] == 100_000

    def test_same_conditions_no_replan(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 100.0)
        replans = controller.replans
        controller.update_distance(0.35)
        assert controller.replans == replans

    def test_periodic_recompute(self):
        controller = DynamicOffloadController(recompute_interval_packets=32)
        controller.start(0.3, 1.0, 1.0)
        replans = controller.replans
        for _ in range(64):
            controller.next_packet_mode()
        assert controller.replans >= replans + 1

    def test_update_energy_before_start_stores_the_energies(self):
        # Used to divide the unset 0.0 / 0.0 ratio.
        controller = DynamicOffloadController()
        controller.update_energy(1.0, 2.0)
        assert controller.plan is None
        assert controller.replans == 0
        with pytest.raises(ValueError):
            controller.update_energy(0.0, 1.0)
        controller.start(0.3, 1.0, 1.0)
        replans = controller.replans
        controller.update_energy(1.0, 2.0)
        assert controller.replans == replans + 1

    def test_update_energy_replans_on_the_new_joules(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        replans = controller.replans
        controller.update_energy(1.0, 2.0)
        assert controller.replans == replans + 1
        assert controller.plan.solution.energy_ratio == 0.5

    def test_update_energy_takes_integer_joules(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1, 1)
        controller.update_energy(1, 2)
        assert controller.plan.solution.energy_ratio == 0.5

    def test_update_energy_rejects_dead_batteries(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        with pytest.raises(ValueError):
            controller.update_energy(0.0, 1.0)

    def test_update_distance_rejects_negative(self):
        controller = DynamicOffloadController()
        controller.start(0.3, 1.0, 1.0)
        with pytest.raises(ValueError):
            controller.update_distance(-1.0)
