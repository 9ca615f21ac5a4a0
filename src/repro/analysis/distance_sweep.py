"""Gain versus distance for selected device pairs (Fig 18).

The paper sweeps three pairs (iPhone 6s <-> Apple Watch, Surface Book <->
Nexus 6P, iPhone 6s <-> Fuel Band) in both directions from 0.3 m to 6 m.
Benefits are strongest while backscatter works, fall with its bitrate, and
persist beyond 2.4 m only when the big-battery device transmits (passive
mode).  Past the passive range only the active mode remains and the gain
collapses to ~1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.regimes import LinkMap
from ..hardware.battery import JOULES_PER_WATT_HOUR
from ..hardware.devices import device
from ..sim.lifetime import bluetooth_unidirectional, braidio_unidirectional

#: The device pairs of Fig 18 (each swept in both directions).
PAPER_PAIRS: tuple[tuple[str, str], ...] = (
    ("iPhone 6S", "Apple Watch"),
    ("Surface Book", "Nexus 6P"),
    ("iPhone 6S", "Nike Fuel Band"),
)


@dataclass(frozen=True)
class DistanceGainCurve:
    """Gain over Bluetooth versus distance for one directed pair.

    Attributes:
        label: "<tx> to <rx>".
        distances_m: sweep points.
        gains: Braidio/Bluetooth bit ratio at each distance (NaN where no
            Braidio mode operates — beyond active range).
    """

    label: str
    distances_m: np.ndarray
    gains: np.ndarray

    def gain_at(self, distance_m: float) -> float:
        """Gain at the swept distance closest to ``distance_m``."""
        index = int(np.argmin(np.abs(self.distances_m - distance_m)))
        return float(self.gains[index])


def distance_gain_curve(
    tx_name: str,
    rx_name: str,
    distances_m: np.ndarray | None = None,
    link_map: LinkMap | None = None,
) -> DistanceGainCurve:
    """Gain-vs-distance curve for one directed device pair.

    A custom ``link_map`` computes inline with the scalar oracle;
    otherwise the vectorized batch engine computes the curve
    (bit-identical to the oracle).
    """
    if distances_m is None:
        distances_m = np.linspace(0.3, 6.0, 39)
    e_tx = device(tx_name).battery_wh * JOULES_PER_WATT_HOUR
    e_rx = device(rx_name).battery_wh * JOULES_PER_WATT_HOUR
    if link_map is not None:
        values = []
        for d in distances_m:
            if not link_map.available_powers(d):
                values.append(float("nan"))
                continue
            braidio = braidio_unidirectional(e_tx, e_rx, float(d), link_map).total_bits
            values.append(braidio / bluetooth_unidirectional(e_tx, e_rx))
        gains = np.asarray(values, dtype=float)
    else:
        from ..batch import distance_gain_curve_grid

        gains = distance_gain_curve_grid(e_tx, e_rx, distances_m)
    return DistanceGainCurve(
        label=f"{tx_name} to {rx_name}",
        distances_m=np.asarray(distances_m, dtype=float),
        gains=np.asarray(gains, dtype=float),
    )


def paper_distance_curves(
    distances_m: np.ndarray | None = None,
    link_map: LinkMap | None = None,
) -> list[DistanceGainCurve]:
    """All six directed curves of Fig 18."""
    curves = []
    for a, b in PAPER_PAIRS:
        curves.append(distance_gain_curve(a, b, distances_m, link_map))
        curves.append(distance_gain_curve(b, a, distances_m, link_map))
    return curves
