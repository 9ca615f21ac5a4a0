"""Unit and property tests for the Eq 1 carrier-offload solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import LinkMode
from repro.core.offload import (
    InfeasibleOffloadError,
    best_single_mode,
    solve_max_bits,
    solve_offload,
    verify_with_linprog,
)
from repro.core.regimes import LinkMap
from repro.hardware.power_models import paper_mode_power


def _full_mode_set():
    return [
        paper_mode_power(LinkMode.ACTIVE, 1_000_000),
        paper_mode_power(LinkMode.PASSIVE, 1_000_000),
        paper_mode_power(LinkMode.BACKSCATTER, 1_000_000),
    ]


class TestProportionalSolutions:
    def test_equal_energy_mix(self):
        # DESIGN.md §5 anchor: equal batteries -> ~69.5% passive,
        # ~30.5% backscatter, zero active.
        solution = solve_offload(_full_mode_set(), 100.0, 100.0)
        fractions = {p.mode: f for p, f in zip(solution.points, solution.fractions)}
        assert fractions[LinkMode.PASSIVE] == pytest.approx(0.6947, abs=1e-3)
        assert fractions[LinkMode.BACKSCATTER] == pytest.approx(0.3053, abs=1e-3)
        assert fractions[LinkMode.ACTIVE] == pytest.approx(0.0, abs=1e-9)
        assert solution.proportional

    def test_proportionality_constraint_holds(self):
        solution = solve_offload(_full_mode_set(), 10.0, 1.0)
        ratio = solution.tx_energy_per_bit_j / solution.rx_energy_per_bit_j
        assert ratio == pytest.approx(10.0, rel=1e-6)

    def test_solution_lies_on_pareto_edge(self):
        # Fig 9: the optimal mixes lie on segment BC (passive+backscatter).
        solution = solve_offload(_full_mode_set(), 5.0, 1.0)
        used = {
            p.mode for p, f in zip(solution.points, solution.fractions) if f > 1e-9
        }
        assert used <= {LinkMode.PASSIVE, LinkMode.BACKSCATTER}

    def test_fig9_point_p_for_100_to_1(self):
        # The worked example of Fig 9: a 100:1 energy ratio lands on BC.
        solution = solve_offload(_full_mode_set(), 100.0, 1.0)
        assert solution.proportional
        ratio = solution.tx_energy_per_bit_j / solution.rx_energy_per_bit_j
        assert ratio == pytest.approx(100.0, rel=1e-6)

    def test_both_batteries_die_together(self):
        e1, e2 = 7.0, 3.0
        solution = solve_offload(_full_mode_set(), e1, e2)
        bits = solution.total_bits(e1, e2)
        assert bits * solution.tx_energy_per_bit_j == pytest.approx(e1, rel=1e-9)
        assert bits * solution.rx_energy_per_bit_j == pytest.approx(e2, rel=1e-9)


class TestClampedSolutions:
    def test_ratio_above_span_clamps_to_cheapest_rx(self):
        # TX monstrously rich: the receiver is the bottleneck; run the
        # mode with the cheapest RX cost (passive).
        solution = solve_offload(_full_mode_set(), 1e9, 1.0)
        assert not solution.proportional
        used = [p.mode for p, f in zip(solution.points, solution.fractions) if f > 0]
        assert used == [LinkMode.PASSIVE]

    def test_ratio_below_span_clamps_to_cheapest_tx(self):
        solution = solve_offload(_full_mode_set(), 1.0, 1e9)
        assert not solution.proportional
        used = [p.mode for p, f in zip(solution.points, solution.fractions) if f > 0]
        assert used == [LinkMode.BACKSCATTER]

    def test_single_mode_always_clamps_unless_exact(self):
        active_only = [paper_mode_power(LinkMode.ACTIVE, 1_000_000)]
        solution = solve_offload(active_only, 5.0, 1.0)
        assert not solution.proportional
        assert solution.fractions == (1.0,)


class TestValidation:
    def test_rejects_empty_mode_set(self):
        with pytest.raises(InfeasibleOffloadError):
            solve_offload([], 1.0, 1.0)

    def test_rejects_non_positive_energy(self):
        with pytest.raises(ValueError):
            solve_offload(_full_mode_set(), 0.0, 1.0)

    def test_total_bits_zero_for_dead_battery(self):
        solution = solve_offload(_full_mode_set(), 1.0, 1.0)
        assert solution.total_bits(0.0, 1.0) == 0.0

    def test_integer_joules_plan_like_floats(self):
        # The planners take joules as numbers and coerce nothing.
        points = _full_mode_set()
        solution = solve_offload(points, 7200, 3600)
        assert solution == solve_offload(points, 7200.0, 3600.0)
        assert solution.total_bits(7200, 3600) == solution.total_bits(
            7200.0, 3600.0
        )


class TestLinprogCrossValidation:
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_analytic_matches_linprog(self, log_e1, log_e2):
        e1, e2 = 10.0**log_e1, 10.0**log_e2
        points = _full_mode_set()
        analytic = solve_offload(points, e1, e2)
        lp = verify_with_linprog(points, e1, e2)
        if lp is None:
            assert not analytic.proportional
        else:
            assert analytic.total_energy_per_bit_j == pytest.approx(
                lp.total_energy_per_bit_j, rel=1e-6
            )

    def test_linprog_on_mixed_bitrates(self):
        link_map = LinkMap()
        points = link_map.available_powers(2.0)  # backscatter@10k in play
        analytic = solve_offload(points, 1.0, 3.0)
        lp = verify_with_linprog(points, 1.0, 3.0)
        assert lp is not None
        assert analytic.total_energy_per_bit_j == pytest.approx(
            lp.total_energy_per_bit_j, rel=1e-6
        )


class TestInvariants:
    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_fractions_sum_to_one_and_non_negative(self, e1, e2):
        solution = solve_offload(_full_mode_set(), e1, e2)
        assert sum(solution.fractions) == pytest.approx(1.0)
        assert all(f >= -1e-12 for f in solution.fractions)

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_braidio_never_loses_to_any_single_mode(self, e1, e2):
        points = _full_mode_set()
        solution = solve_offload(points, e1, e2)
        _, single_bits = best_single_mode(points, e1, e2)
        assert solution.total_bits(e1, e2) >= single_bits * (1.0 - 1e-9)

    @given(st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale):
        base = solve_offload(_full_mode_set(), 3.0, 1.0)
        scaled = solve_offload(_full_mode_set(), 3.0 * scale, 1.0 * scale)
        assert scaled.fractions == pytest.approx(base.fractions, abs=1e-9)
        assert scaled.total_bits(3.0 * scale, scale) == pytest.approx(
            scale * base.total_bits(3.0, 1.0), rel=1e-9
        )

    def test_mean_bitrate_weighted_by_time(self):
        link_map = LinkMap()
        points = link_map.available_powers(2.0)
        solution = solve_offload(points, 1.0, 100.0)
        rate = solution.mean_bitrate_bps()
        rates = [p.bitrate_bps for p in solution.points]
        assert min(rates) <= rate <= max(rates)


class TestMaxBitsEquivalence:
    """For Braidio's mode geometry, Eq 1's hard proportionality loses no
    bits: the soft-proportionality optimum coincides with it."""

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_eq1_is_bit_optimal_on_paper_points(self, e1, e2):
        points = _full_mode_set()
        eq1 = solve_offload(points, e1, e2).total_bits(e1, e2)
        relaxed = solve_max_bits(points, e1, e2).total_bits(e1, e2)
        assert eq1 == pytest.approx(relaxed, rel=1e-9)

    def test_max_bits_validates_inputs(self):
        with pytest.raises(InfeasibleOffloadError):
            solve_max_bits([], 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_max_bits(_full_mode_set(), 0.0, 1.0)

    def test_max_bits_fractions_sum_to_one(self):
        solution = solve_max_bits(_full_mode_set(), 3.0, 1.0)
        assert sum(solution.fractions) == pytest.approx(1.0)


class TestBestSingleMode:
    def test_equal_batteries_pick_passive(self):
        point, _ = best_single_mode(_full_mode_set(), 1.0, 1.0)
        assert point.mode is LinkMode.PASSIVE

    def test_asymmetric_pick_matches_direction(self):
        # Tiny TX battery: backscatter wins alone.
        point, _ = best_single_mode(_full_mode_set(), 0.001, 1.0)
        assert point.mode is LinkMode.BACKSCATTER

    def test_rejects_empty(self):
        with pytest.raises(InfeasibleOffloadError):
            best_single_mode([], 1.0, 1.0)
