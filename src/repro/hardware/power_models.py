"""Component power-state machines and the calibrated per-mode power table.

The carrier-offload layer consumes only two numbers per (mode, bitrate):
the transmitter-side and receiver-side power draw.  The paper publishes
these as ratios (Fig 9/14) anchored by absolute extremes (16 uW minimum,
129 mW maximum, §1/§6); :data:`PAPER_POWER_TABLE` encodes them exactly:

* Active:      TX 56.34 mW, RX 59.16 mW             (ratio 0.9524:1)
* Passive:     TX 56.7 mW; RX 16/10.18/7.27 uW      (3546:1 / 5571:1 / 7800:1)
* Backscatter: RX 129 mW;  TX 50.67/32.25/23.04 uW  (1:2546 / 1:4000 / 1:5600)

A bottom-up component reconstruction lives in ``braidio_board``; its
reconciliation against this table is asserted by the tests.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from ..modes import LinkMode


class PowerState(enum.Enum):
    """Power state of one hardware component."""

    OFF = "off"
    SLEEP = "sleep"
    IDLE = "idle"
    ACTIVE = "active"


@dataclass(frozen=True)
class ComponentPower:
    """Power draw of one component across its states (watts).

    Attributes:
        name: component name (for reports).
        off_w / sleep_w / idle_w / active_w: draw in each state.
    """

    name: str
    off_w: float = 0.0
    sleep_w: float = 0.0
    idle_w: float = 0.0
    active_w: float = 0.0

    def __post_init__(self) -> None:
        draws = (self.off_w, self.sleep_w, self.idle_w, self.active_w)
        if any(d < 0.0 for d in draws):
            raise ValueError(f"power draws must be non-negative: {draws}")
        if not (self.off_w <= self.sleep_w <= self.idle_w <= self.active_w):
            raise ValueError(
                f"{self.name}: power draws must be ordered off<=sleep<=idle<=active"
            )

    def draw_w(self, state: PowerState) -> float:
        """Power draw in ``state``."""
        return {
            PowerState.OFF: self.off_w,
            PowerState.SLEEP: self.sleep_w,
            PowerState.IDLE: self.idle_w,
            PowerState.ACTIVE: self.active_w,
        }[state]


#: The paper's three characterized bitrates (bps).
POWER_TABLE_BITRATES = (10_000, 100_000, 1_000_000)

#: Calibrated (tx_watts, rx_watts) per (mode, bitrate).  Values are chosen
#: so the TX:RX ratios equal the labels printed on Fig 9 and Fig 14 of the
#: paper exactly, anchored at the published absolute extremes.
PAPER_POWER_TABLE: dict[tuple[LinkMode, int], tuple[float, float]] = {
    (LinkMode.ACTIVE, 1_000_000): (56.34e-3, 56.34e-3 / 0.9524),
    (LinkMode.PASSIVE, 1_000_000): (56.7e-3, 56.7e-3 / 3546.0),
    (LinkMode.PASSIVE, 100_000): (56.7e-3, 56.7e-3 / 5571.0),
    (LinkMode.PASSIVE, 10_000): (56.7e-3, 56.7e-3 / 7800.0),
    (LinkMode.BACKSCATTER, 1_000_000): (129.0e-3 / 2546.0, 129.0e-3),
    (LinkMode.BACKSCATTER, 100_000): (129.0e-3 / 4000.0, 129.0e-3),
    (LinkMode.BACKSCATTER, 10_000): (129.0e-3 / 5600.0, 129.0e-3),
}


@dataclass(frozen=True)
class ModePower:
    """Power draw of one operating point (a mode at a bitrate).

    Attributes:
        mode: link mode.
        bitrate_bps: link bitrate.
        tx_w: data-transmitter-side power draw.
        rx_w: data-receiver-side power draw.
    """

    mode: LinkMode
    bitrate_bps: int
    tx_w: float
    rx_w: float

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.tx_w <= 0.0 or self.rx_w <= 0.0:
            raise ValueError("power draws must be positive")

    @property
    def tx_energy_per_bit_j(self) -> float:
        """Joules the transmitter spends per bit (T_i of Eq 1)."""
        return self.tx_w / self.bitrate_bps

    @property
    def rx_energy_per_bit_j(self) -> float:
        """Joules the receiver spends per bit (R_i of Eq 1)."""
        return self.rx_w / self.bitrate_bps

    @property
    def tx_bits_per_joule(self) -> float:
        """Transmitter-side efficiency (x axis of Fig 9/14)."""
        return self.bitrate_bps / self.tx_w

    @property
    def rx_bits_per_joule(self) -> float:
        """Receiver-side efficiency (y axis of Fig 9/14)."""
        return self.bitrate_bps / self.rx_w

    @property
    def tx_rx_power_ratio(self) -> float:
        """TX power over RX power (the ratio labels of Fig 9/14)."""
        return self.tx_w / self.rx_w


@functools.lru_cache(maxsize=None, typed=True)
def paper_mode_power(mode: LinkMode, bitrate_bps: int) -> ModePower:
    """The calibrated power point for ``mode`` at ``bitrate_bps``.

    Memoized: the table is constant and :class:`ModePower` is frozen, so
    every caller can share one record per operating point (controllers
    ask for their candidates on every re-plan).

    Raises:
        KeyError: if the paper does not characterize that combination
            (e.g. the active link below 1 Mbps).
    """
    tx_w, rx_w = PAPER_POWER_TABLE[(mode, bitrate_bps)]
    return ModePower(mode=mode, bitrate_bps=bitrate_bps, tx_w=tx_w, rx_w=rx_w)


def all_paper_mode_powers() -> list[ModePower]:
    """Every characterized operating point, in table order."""
    return [paper_mode_power(mode, rate) for (mode, rate) in PAPER_POWER_TABLE]


def supported_bitrates(mode: LinkMode) -> tuple[int, ...]:
    """Bitrates the paper characterizes for ``mode`` (descending)."""
    rates = sorted(
        (rate for (m, rate) in PAPER_POWER_TABLE if m is mode), reverse=True
    )
    return tuple(rates)
