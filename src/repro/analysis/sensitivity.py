"""Calibration-sensitivity analysis.

EXPERIMENTS.md documents one material deviation: the Fig 15 corner
reproduces at ~168x instead of the paper's 397x, and attributes it to the
authors' unpublished absolute power tables.  This module makes that
attribution quantitative: it re-runs the corner experiment while sweeping
the calibration constants (backscatter reader power, Bluetooth baseline,
passive-mode carrier power) and shows which knob moves the corner where —
in particular, that an effective reader drain near 54 mW recovers the
published 397x exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.modes import LinkMode
from ..core.offload import solve_offload
from ..hardware.baselines import BluetoothBaseline
from ..hardware.battery import JOULES_PER_WATT_HOUR
from ..hardware.devices import device
from ..hardware.power_models import ModePower, paper_mode_power
from ..sim.lifetime import bluetooth_unidirectional


@dataclass(frozen=True)
class PowerOverrides:
    """Calibration constants the sweep can replace (watts).

    ``None`` keeps the calibrated default.
    """

    backscatter_rx_w: float | None = None
    passive_tx_w: float | None = None
    bluetooth_w: float | None = None

    def apply(self, point: ModePower) -> ModePower:
        """Return ``point`` with any matching override applied."""
        tx_w, rx_w = point.tx_w, point.rx_w
        if point.mode is LinkMode.BACKSCATTER and self.backscatter_rx_w is not None:
            rx_w = self.backscatter_rx_w
        if point.mode is LinkMode.PASSIVE and self.passive_tx_w is not None:
            tx_w = self.passive_tx_w
        if (tx_w, rx_w) == (point.tx_w, point.rx_w):
            return point
        return ModePower(
            mode=point.mode, bitrate_bps=point.bitrate_bps, tx_w=tx_w, rx_w=rx_w
        )


def corner_gain(
    overrides: PowerOverrides = PowerOverrides(),
    tx_device: str = "Nike Fuel Band",
    rx_device: str = "MacBook Pro 15",
) -> float:
    """The Fig 15 corner gain under modified calibration constants.

    Uses the 1 Mbps operating points (the close-range configuration of
    the matrix experiments).
    """
    points = [
        overrides.apply(paper_mode_power(mode, 1_000_000)) for mode in LinkMode
    ]
    e1 = device(tx_device).battery_wh * JOULES_PER_WATT_HOUR
    e2 = device(rx_device).battery_wh * JOULES_PER_WATT_HOUR
    braidio = solve_offload(points, e1, e2).total_bits(e1, e2)
    baseline = (
        BluetoothBaseline()
        if overrides.bluetooth_w is None
        else BluetoothBaseline(
            tx_power_w=overrides.bluetooth_w, rx_power_w=overrides.bluetooth_w
        )
    )
    bluetooth = bluetooth_unidirectional(e1, e2, baseline)
    return braidio / bluetooth


def _corner_energies(tx_device: str, rx_device: str) -> tuple[float, float]:
    e1 = device(tx_device).battery_wh * JOULES_PER_WATT_HOUR
    e2 = device(rx_device).battery_wh * JOULES_PER_WATT_HOUR
    return e1, e2


def reader_power_sweep(
    reader_powers_w: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Corner gain as a function of the backscatter reader's power draw.

    The power-proportional corner is pinned by
    ``P_reader / battery_ratio``, so the gain is essentially inversely
    proportional to the reader power — the knob that explains the paper's
    397x.  Every override is solved in one vectorized pass, bit-identical
    to :func:`corner_gain` per override.
    """
    if reader_powers_w is None:
        reader_powers_w = np.array([0.040, 0.054, 0.080, 0.100, 0.129, 0.200])
    from ..batch import bluetooth_unidirectional_bits, offload_bits

    powers = np.asarray(reader_powers_w, dtype=float)
    tx_costs: list[object] = []
    rx_costs: list[object] = []
    for mode in LinkMode:
        point = paper_mode_power(mode, 1_000_000)
        tx_costs.append(point.tx_energy_per_bit_j)
        if mode is LinkMode.BACKSCATTER:
            # Same arithmetic as ModePower.rx_energy_per_bit_j under the
            # override: rx_w / bitrate.
            rx_costs.append(powers / float(point.bitrate_bps))
        else:
            rx_costs.append(point.rx_energy_per_bit_j)
    e1, e2 = _corner_energies("Nike Fuel Band", "MacBook Pro 15")
    bits = offload_bits(tx_costs, rx_costs, e1, e2)
    bluetooth = float(bluetooth_unidirectional_bits(e1, e2))
    gains = bits / bluetooth
    return [(float(p), float(g)) for p, g in zip(powers, gains)]


def reader_power_matching_paper_corner(
    target_gain: float = 397.0,
) -> float:
    """The effective reader power (W) at which the corner gain equals the
    paper's published value (bisection; monotone decreasing in power)."""
    low, high = 1e-3, 1.0
    for _ in range(100):
        mid = (low + high) / 2.0
        if corner_gain(PowerOverrides(backscatter_rx_w=mid)) > target_gain:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def bluetooth_power_sweep(
    bluetooth_powers_w: np.ndarray | None = None,
) -> list[tuple[float, float, float]]:
    """(BT power, corner gain, diagonal gain) across the CC2541 envelope.

    The diagonal scales linearly with the baseline power (the Braidio mix
    is fixed); the corner moves with it too.  This is the sensitivity that
    pins our 56.34 mW choice to the published 1.43x diagonal.  Solved in
    one vectorized pass, bit-identical to :func:`corner_gain` per power.
    """
    if bluetooth_powers_w is None:
        bluetooth_powers_w = np.array([0.055, 0.0563, 0.060, 0.063, 0.067])
    from ..batch import offload_bits, point_energies

    powers = np.asarray(bluetooth_powers_w, dtype=float)
    points = [paper_mode_power(mode, 1_000_000) for mode in LinkMode]
    tx_costs, rx_costs = point_energies(points)
    # Braidio's mix ignores the Bluetooth override, so its bits are one
    # scalar per corner; only the baseline varies with the swept power.
    per_bit = powers / float(BluetoothBaseline().bitrate_bps)

    def gains_for(tx_device: str, rx_device: str) -> np.ndarray:
        e1, e2 = _corner_energies(tx_device, rx_device)
        braidio = float(offload_bits(tx_costs, rx_costs, e1, e2))
        bluetooth = np.minimum(e1 / per_bit, e2 / per_bit)
        return braidio / bluetooth

    corner = gains_for("Nike Fuel Band", "MacBook Pro 15")
    diagonal = gains_for("Apple Watch", "Apple Watch")
    return [
        (float(p), float(c), float(d))
        for p, c, d in zip(powers, corner, diagonal)
    ]
