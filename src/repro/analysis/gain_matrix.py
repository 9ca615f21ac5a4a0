"""Device-pair gain matrices (Fig 15, 16 and 17).

Each matrix cell (x, y) compares total deliverable bits when the device on
the x axis transmits to the device on the y axis, Braidio versus a
baseline, with both starting from full batteries and running until either
dies.  Fig 15 compares against Bluetooth, Fig 16 against the best single
Braidio mode, Fig 17 repeats Fig 15 with bidirectional traffic.

The hundred cells of a matrix are independent simulations.  Each sweep
picks its engine from its inputs: a custom ``link_map`` runs the scalar
oracle inline, cell by cell; anything else runs the vectorized batch
engine (:mod:`repro.batch`) in a few array operations, bit-identical to
the oracle.  ``python -m repro campaign fig15`` runs the same cells as
per-cell :mod:`repro.runtime` jobs
(:func:`repro.runtime.workloads.gain_matrix_specs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.regimes import LinkMap
from ..hardware.battery import JOULES_PER_WATT_HOUR
from ..hardware.devices import DEVICES, DeviceSpec
from ..sim.lifetime import (
    best_single_mode_unidirectional,
    bluetooth_bidirectional,
    bluetooth_unidirectional,
    braidio_bidirectional,
    braidio_unidirectional,
)


@dataclass(frozen=True)
class GainMatrix:
    """A device-by-device gain matrix.

    Attributes:
        devices: axis device specs (same on both axes).
        gains: ``gains[y][x]`` is the gain when device x transmits to
            device y (matching the paper's matrix orientation).
        kind: "bluetooth", "best-mode" or "bidirectional".
    """

    devices: tuple[DeviceSpec, ...]
    gains: np.ndarray
    kind: str

    @property
    def labels(self) -> list[str]:
        """Axis labels."""
        return [d.name for d in self.devices]

    def cell(self, tx_name: str, rx_name: str) -> float:
        """Gain for a named (transmitter, receiver) pair.

        Raises:
            ValueError: for unknown device names.
        """
        names = self.labels
        try:
            x = names.index(tx_name)
            y = names.index(rx_name)
        except ValueError as exc:
            raise ValueError(f"unknown device in {(tx_name, rx_name)!r}") from exc
        return float(self.gains[y][x])

    @property
    def diagonal(self) -> np.ndarray:
        """Equal-battery gains (same device on both ends)."""
        return np.diag(self.gains)

    @property
    def max_gain(self) -> float:
        """Largest cell in the matrix."""
        return float(self.gains.max())


def _energies_j(devices: tuple[DeviceSpec, ...]) -> list[float]:
    return [d.battery_wh * JOULES_PER_WATT_HOUR for d in devices]


def _matrix_gains(
    job_kind: str,
    distance_m: float,
    devices: tuple[DeviceSpec, ...],
    link_map: LinkMap | None,
    cell: Callable[[float, float], float],
) -> np.ndarray:
    if link_map is not None:
        return _matrix_inline(cell, devices)
    from ..batch import gain_matrix_grid

    return gain_matrix_grid(job_kind, distance_m, _energies_j(devices))


def _matrix_inline(
    cell: Callable[[float, float], float],
    devices: tuple[DeviceSpec, ...],
) -> np.ndarray:
    energies = _energies_j(devices)
    gains = np.empty((len(devices), len(devices)))
    for x, e_tx in enumerate(energies):
        for y, e_rx in enumerate(energies):
            gains[y][x] = cell(e_tx, e_rx)
    return gains


def bluetooth_gain_matrix(
    distance_m: float = 0.3,
    devices: tuple[DeviceSpec, ...] = DEVICES,
    link_map: LinkMap | None = None,
) -> GainMatrix:
    """Fig 15: Braidio over Bluetooth, unidirectional saturated traffic."""
    resolved = link_map if link_map is not None else LinkMap()

    def cell(e_tx: float, e_rx: float) -> float:
        braidio = braidio_unidirectional(e_tx, e_rx, distance_m, resolved)
        return braidio.total_bits / bluetooth_unidirectional(e_tx, e_rx)

    gains = _matrix_gains("gain.bluetooth", distance_m, devices, link_map, cell)
    return GainMatrix(devices=devices, gains=gains, kind="bluetooth")


def best_mode_gain_matrix(
    distance_m: float = 0.3,
    devices: tuple[DeviceSpec, ...] = DEVICES,
    link_map: LinkMap | None = None,
) -> GainMatrix:
    """Fig 16: Braidio over the best single mode in isolation."""
    resolved = link_map if link_map is not None else LinkMap()

    def cell(e_tx: float, e_rx: float) -> float:
        braidio = braidio_unidirectional(e_tx, e_rx, distance_m, resolved)
        _, best = best_single_mode_unidirectional(e_tx, e_rx, distance_m, resolved)
        return braidio.total_bits / best

    gains = _matrix_gains("gain.best_mode", distance_m, devices, link_map, cell)
    return GainMatrix(devices=devices, gains=gains, kind="best-mode")


def bidirectional_gain_matrix(
    distance_m: float = 0.3,
    devices: tuple[DeviceSpec, ...] = DEVICES,
    link_map: LinkMap | None = None,
) -> GainMatrix:
    """Fig 17: Braidio over Bluetooth with equal data in both directions."""
    resolved = link_map if link_map is not None else LinkMap()

    def cell(e_a: float, e_b: float) -> float:
        braidio = braidio_bidirectional(e_a, e_b, distance_m, resolved)
        return braidio.total_bits / bluetooth_bidirectional(e_a, e_b)

    gains = _matrix_gains("gain.bidirectional", distance_m, devices, link_map, cell)
    return GainMatrix(devices=devices, gains=gains, kind="bidirectional")
