"""Equivalence: the vectorized batch engine vs the scalar oracle.

The lifetime kernels replicate ``solve_offload`` arithmetic operation for
operation, so every comparison here uses ``==`` / ``np.array_equal`` —
no tolerances.  The PHY kernels use numpy's ``log10``/``exp``/``erfc``,
which may differ from libm in the last ulp, so those comparisons use the
documented 1e-12 relative tolerance (DESIGN.md §12).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    best_single_mode_bits,
    bidirectional_bits,
    bluetooth_bidirectional_bits,
    bluetooth_unidirectional_bits,
    bit_error_rate,
    distance_gain_curve_grid,
    gain_matrix_grid,
    link_ber,
    link_noise_floor_dbm,
    link_snr_db,
    offload_bits,
    packet_error_rate,
    point_energies,
    vectorizable_budget,
)
from repro.batch.grid import mode_config_table
from repro.core.modes import LinkMode
from repro.core.offload import InfeasibleOffloadError, solve_offload
from repro.core.regimes import LinkMap
from repro.hardware.battery import JOULES_PER_WATT_HOUR
from repro.hardware.devices import DEVICES, device
from repro.hardware.power_models import ModePower
from repro.phy.link_budget import paper_link_profiles
from repro.phy.modulation import bit_error_rate as scalar_ber
from repro.phy.modulation import packet_error_rate as scalar_per
from repro.sim.lifetime import (
    best_single_mode_unidirectional,
    bluetooth_bidirectional,
    bluetooth_unidirectional,
    braidio_bidirectional,
    braidio_unidirectional,
)

PHY_REL_TOL = 1e-12  # the DESIGN.md §12 contract for transcendental kernels

positive_energy = st.floats(min_value=1e-12, max_value=1e7)
per_bit_energy = st.floats(min_value=1e-12, max_value=1e-3)


def _random_points(draw_tx, draw_rx):
    return [
        ModePower(mode=mode, bitrate_bps=1_000_000, tx_w=tx, rx_w=rx)
        for mode, tx, rx in zip(LinkMode, draw_tx, draw_rx)
    ]


@settings(max_examples=200, deadline=None)
@given(
    tx_w=st.lists(st.floats(min_value=1e-7, max_value=10.0), min_size=1, max_size=3),
    rx_w=st.lists(st.floats(min_value=1e-7, max_value=10.0), min_size=3, max_size=3),
    e1=positive_energy,
    e2=positive_energy,
)
def test_offload_bits_matches_scalar_solver_exactly(tx_w, rx_w, e1, e2):
    """Property: for any operating points and energies the vectorized Eq 1
    solve returns the exact same float64 as ``solve_offload``."""
    points = _random_points(tx_w, rx_w[: len(tx_w)])
    tx, rx = point_energies(points)
    try:
        scalar = solve_offload(points, e1, e2).total_bits(e1, e2)
    except InfeasibleOffloadError:
        # The oracle itself refuses (rho inside the tolerance band with no
        # exact basic solution); the vectorized kernel must refuse too.
        with pytest.raises(InfeasibleOffloadError):
            offload_bits(tx, rx, e1, e2)
        return
    vector = float(offload_bits(tx, rx, e1, e2))
    assert vector == scalar


@settings(max_examples=100, deadline=None)
@given(
    tx_w=st.lists(st.floats(min_value=1e-7, max_value=10.0), min_size=2, max_size=3),
    rx_w=st.lists(st.floats(min_value=1e-7, max_value=10.0), min_size=3, max_size=3),
    e1=positive_energy,
    e2=positive_energy,
)
def test_best_single_mode_matches_scalar_max(tx_w, rx_w, e1, e2):
    points = _random_points(tx_w, rx_w[: len(tx_w)])
    tx, rx = point_energies(points)
    scalar = max(
        min(e1 / p.tx_energy_per_bit_j, e2 / p.rx_energy_per_bit_j) for p in points
    )
    assert float(best_single_mode_bits(tx, rx, e1, e2)) == scalar


@settings(max_examples=100, deadline=None)
@given(e1=positive_energy, e2=positive_energy)
def test_bluetooth_kernels_match_scalar(e1, e2):
    assert float(bluetooth_unidirectional_bits(e1, e2)) == bluetooth_unidirectional(
        e1, e2
    )
    assert float(bluetooth_bidirectional_bits(e1, e2)) == bluetooth_bidirectional(
        e1, e2
    )


def test_bluetooth_kernels_dead_battery():
    assert float(bluetooth_unidirectional_bits(0.0, 1.0)) == 0.0
    assert float(bluetooth_bidirectional_bits(1.0, 0.0)) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    e1=st.floats(min_value=1e-18, max_value=1e-9),
    e2=st.floats(min_value=1e-18, max_value=1e-9),
)
def test_battery_death_boundary_cells(e1, e2):
    """Vanishingly small (but positive) energies still agree exactly —
    the battery-death boundary of the analytic lifetime model."""
    link_map = LinkMap()
    points = link_map.available_powers(0.3)
    tx, rx = point_energies(points)
    scalar = solve_offload(points, e1, e2).total_bits(e1, e2)
    assert float(offload_bits(tx, rx, e1, e2)) == scalar


@pytest.mark.parametrize("kind", ["gain.bluetooth", "gain.best_mode", "gain.bidirectional"])
def test_gain_matrix_grid_matches_scalar_cells(kind):
    """Every cell of each paper matrix is bit-identical to the scalar
    per-cell computation."""
    link_map = LinkMap()
    distance = 0.3
    energies = [d.battery_wh * JOULES_PER_WATT_HOUR for d in DEVICES]
    grid = gain_matrix_grid(kind, distance, energies)
    for x, e_tx in enumerate(energies):
        for y, e_rx in enumerate(energies):
            if kind == "gain.bluetooth":
                braidio = braidio_unidirectional(e_tx, e_rx, distance, link_map)
                expected = braidio.total_bits / bluetooth_unidirectional(e_tx, e_rx)
            elif kind == "gain.best_mode":
                braidio = braidio_unidirectional(e_tx, e_rx, distance, link_map)
                _, best = best_single_mode_unidirectional(
                    e_tx, e_rx, distance, link_map
                )
                expected = braidio.total_bits / best
            else:
                braidio = braidio_bidirectional(e_tx, e_rx, distance, link_map)
                expected = braidio.total_bits / bluetooth_bidirectional(e_tx, e_rx)
            assert grid[y][x] == expected


def _scalar_curve(e_tx, e_rx, distances, link_map):
    values = []
    for d in distances:
        if not link_map.available_powers(float(d)):
            values.append(float("nan"))
            continue
        braidio = braidio_unidirectional(e_tx, e_rx, float(d), link_map)
        values.append(braidio.total_bits / bluetooth_unidirectional(e_tx, e_rx))
    return np.asarray(values, dtype=float)


@settings(max_examples=25, deadline=None)
@given(
    pair=st.tuples(
        st.sampled_from([d.name for d in DEVICES]),
        st.sampled_from([d.name for d in DEVICES]),
    ),
    distances=st.lists(
        st.floats(min_value=0.0, max_value=40.0), min_size=1, max_size=24
    ),
)
def test_distance_curve_matches_scalar_on_random_grids(pair, distances):
    """Property: random device pairs and random distance grids (including
    regions beyond every mode's range, which must be NaN in both engines)
    agree bit for bit."""
    link_map = LinkMap()
    e_tx = device(pair[0]).battery_wh * JOULES_PER_WATT_HOUR
    e_rx = device(pair[1]).battery_wh * JOULES_PER_WATT_HOUR
    d = np.asarray(distances, dtype=float)
    vector = distance_gain_curve_grid(e_tx, e_rx, d)
    scalar = _scalar_curve(e_tx, e_rx, d, link_map)
    assert np.array_equal(vector, scalar, equal_nan=True)


def test_distance_curve_edge_cells():
    """Zero distance (clamped to the near-field epsilon), the regime
    boundaries, and far out-of-range distances all match the scalar path,
    with NaN exactly where no mode operates."""
    link_map = LinkMap()
    e_tx = device("iPhone 6S").battery_wh * JOULES_PER_WATT_HOUR
    e_rx = device("Nike Fuel Band").battery_wh * JOULES_PER_WATT_HOUR
    d = np.array([0.0, 0.04, 0.05, 2.4, 2.41, 5.1, 30.0, 35.0, 100.0, 250.0])
    vector = distance_gain_curve_grid(e_tx, e_rx, d)
    scalar = _scalar_curve(e_tx, e_rx, d, link_map)
    assert np.array_equal(vector, scalar, equal_nan=True)
    assert np.isnan(vector[-1])  # beyond every mode: NaN region


def test_mode_config_table_matches_link_map_availability():
    """The precomputed-range grouping reproduces ``LinkMap``'s per-distance
    availability decision (modes and chosen bitrates) at every distance."""
    link_map = LinkMap()
    distances = np.concatenate(
        [np.linspace(0.0, 8.0, 81), np.array([15.0, 29.9, 30.1, 100.0, 220.0])]
    )
    indices, configs = mode_config_table(distances)
    for k, d in enumerate(distances):
        expected = tuple(
            (p.mode, p.bitrate_bps) for p in link_map.available_powers(float(d))
        )
        assert configs[indices[k]] == expected, f"at {d} m"


def test_bidirectional_bits_matches_scalar():
    link_map = LinkMap()
    points = link_map.available_powers(0.3)
    tx, rx = point_energies(points)
    for e1, e2 in [(10.0, 40000.0), (5.0, 5.0), (1e-6, 3.0)]:
        scalar = braidio_bidirectional(e1, e2, 0.3, link_map).total_bits
        assert float(bidirectional_bits(tx, rx, e1, e2)) == scalar


def test_link_ber_and_snr_within_phy_tolerance():
    """PHY kernels agree with the scalar budget methods to 1e-12 relative
    (transcendental ulp differences only)."""
    distances = np.linspace(0.05, 60.0, 400)
    profiles = paper_link_profiles()
    for (name, bitrate), budget in profiles.items():
        assert vectorizable_budget(budget), name
        ber_v = np.asarray(link_ber(budget, distances, bitrate))
        snr_v = np.asarray(link_snr_db(budget, distances, bitrate))
        noise_v = np.asarray(link_noise_floor_dbm(budget, bitrate))
        for k, d in enumerate(distances):
            ber_s = budget.ber(float(d), bitrate)
            snr_s = budget.snr_db(float(d), bitrate)
            assert ber_v[k] == pytest.approx(ber_s, rel=PHY_REL_TOL)
            assert snr_v[k] == pytest.approx(snr_s, rel=PHY_REL_TOL)
        assert float(noise_v) == pytest.approx(
            budget.noise_floor_dbm(bitrate), rel=PHY_REL_TOL
        )


@settings(max_examples=100, deadline=None)
@given(
    ber=st.floats(min_value=0.0, max_value=0.5),
    bits=st.integers(min_value=1, max_value=10_000),
)
def test_packet_error_rate_matches_scalar(ber, bits):
    vector = float(packet_error_rate(ber, bits))
    assert vector == pytest.approx(scalar_per(ber, bits), rel=PHY_REL_TOL, abs=1e-15)


def test_bit_error_rate_matches_scalar_across_modulations():
    profiles = paper_link_profiles()
    snr = np.linspace(-10.0, 40.0, 101)
    for budget in profiles.values():
        ber = np.asarray(bit_error_rate(budget.modulation, snr))
        for k, s in enumerate(snr):
            assert ber[k] == pytest.approx(
                scalar_ber(budget.modulation, float(s)), rel=PHY_REL_TOL
            )


def test_analysis_sweeps_match_the_oracle_end_to_end():
    """The user-facing sweeps give identical results on the batch engine
    (the default) and on the scalar oracle (an explicit ``link_map``)."""
    from repro.analysis.distance_sweep import distance_gain_curve
    from repro.analysis.gain_matrix import (
        best_mode_gain_matrix,
        bidirectional_gain_matrix,
        bluetooth_gain_matrix,
    )

    for sweep in (bluetooth_gain_matrix, best_mode_gain_matrix, bidirectional_gain_matrix):
        assert np.array_equal(sweep().gains, sweep(link_map=LinkMap()).gains)

    d = np.linspace(0.0, 40.0, 81)
    cv = distance_gain_curve("Surface Book", "Nexus 6P", distances_m=d)
    cs = distance_gain_curve("Surface Book", "Nexus 6P", distances_m=d, link_map=LinkMap())
    assert np.array_equal(cv.gains, cs.gains, equal_nan=True)


def test_mode_ber_curves_match_the_oracle():
    """Fig 13 on the PHY kernels agrees with ``LinkBudget.ber`` point by
    point (an explicit ``link_map`` runs the oracle)."""
    from repro.analysis.ber_sweep import mode_ber_curves

    vector = mode_ber_curves()
    scalar = mode_ber_curves(link_map=LinkMap())
    assert [c.label for c in vector] == [c.label for c in scalar]
    for v, s in zip(vector, scalar):
        assert list(v.ber) == pytest.approx(list(s.ber), rel=PHY_REL_TOL)


def test_reader_comparison_curves_match_the_oracle():
    """Fig 12 on the PHY kernels agrees with ``LinkBudget.ber``."""
    from repro.analysis.ber_sweep import reader_comparison_curves

    curves, _ = reader_comparison_curves()
    profiles = paper_link_profiles()
    budgets = {
        "Braidio": profiles[("backscatter", 100_000)],
        "Commercial": profiles[("as3993", 100_000)],
    }
    for curve in curves:
        budget = budgets[curve.label]
        oracle = [budget.ber(float(d), 100_000) for d in curve.distances_m]
        assert list(curve.ber) == pytest.approx(oracle, rel=PHY_REL_TOL)


def test_sensitivity_sweeps_match_corner_gain():
    """Both calibration sweeps equal :func:`corner_gain` per override."""
    from repro.analysis.sensitivity import (
        PowerOverrides,
        bluetooth_power_sweep,
        corner_gain,
        reader_power_sweep,
    )

    assert reader_power_sweep() == [
        (p, corner_gain(PowerOverrides(backscatter_rx_w=p)))
        for p in (0.040, 0.054, 0.080, 0.100, 0.129, 0.200)
    ]
    expected = []
    for p in (0.055, 0.0563, 0.060, 0.063, 0.067):
        overrides = PowerOverrides(bluetooth_w=p)
        expected.append(
            (
                p,
                corner_gain(overrides),
                corner_gain(overrides, tx_device="Apple Watch", rx_device="Apple Watch"),
            )
        )
    assert bluetooth_power_sweep() == expected
