"""Public facade: :class:`BraidioRadio` and :func:`plan_transfer`.

Most users want one of two things:

* a quick answer — "given these two devices at this distance, what mode mix
  should they run and how many bits can they move?" — which
  :func:`plan_transfer` computes analytically; or
* a full simulation — handled by :mod:`repro.sim` with
  :class:`BraidioRadio` end points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.battery import Battery
from ..hardware.braidio_board import BraidioBoard
from ..hardware.devices import DeviceSpec, device
from .controller import DynamicOffloadController, OffloadPlan
from .regimes import LinkMap


@dataclass
class BraidioRadio:
    """One Braidio end point: a device, its battery and its board.

    Attributes:
        spec: the host device (battery capacity, class).
        battery: the live battery (fresh by default).
        board: the radio hardware model.
    """

    spec: DeviceSpec
    battery: Battery = None  # type: ignore[assignment]
    board: BraidioBoard = field(default_factory=BraidioBoard)

    def __post_init__(self) -> None:
        if self.battery is None:
            self.battery = self.spec.fresh_battery()

    @classmethod
    def for_device(cls, name: str, charge_fraction: float = 1.0) -> "BraidioRadio":
        """Build a radio for a Fig 1 device by name.

        Raises:
            KeyError: for unknown device names.
        """
        spec = device(name)
        return cls(spec=spec, battery=Battery(spec.battery_wh, charge_fraction))

    @property
    def name(self) -> str:
        """Host device name."""
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BraidioRadio({self.spec.name!r}, {self.battery!r})"


@dataclass(frozen=True)
class TransferPlan:
    """Analytic plan for a transmitter -> receiver transfer.

    Attributes:
        plan: the controller's offload plan (fractions, schedule, regime).
        total_bits: bits deliverable before either battery dies.
        tx_power_w / rx_power_w: average side power under the plan.
        duration_s: air time to deliver ``total_bits``.
    """

    plan: OffloadPlan
    total_bits: float
    tx_power_w: float
    rx_power_w: float
    duration_s: float


def plan_transfer(
    transmitter: BraidioRadio,
    receiver: BraidioRadio,
    distance_m: float,
    link_map: LinkMap | None = None,
) -> TransferPlan:
    """Compute the power-proportional plan for a one-way transfer.

    Args:
        transmitter: data source end point.
        receiver: data sink end point.
        distance_m: separation between the radios.
        link_map: availability map (defaults to the paper calibration).

    Returns:
        The :class:`TransferPlan`.

    Raises:
        InfeasibleOffloadError: if no mode works at ``distance_m``.
    """
    controller = DynamicOffloadController(link_map=link_map)
    tx_j = transmitter.battery.remaining_j
    rx_j = receiver.battery.remaining_j
    plan = controller.start(distance_m, tx_j, rx_j)
    solution = plan.solution
    bits = solution.total_bits(tx_j, rx_j)
    mean_rate = solution.mean_bitrate_bps()
    tx_power = solution.tx_energy_per_bit_j * mean_rate
    rx_power = solution.rx_energy_per_bit_j * mean_rate
    return TransferPlan(
        plan=plan,
        total_bits=bits,
        tx_power_w=tx_power,
        rx_power_w=rx_power,
        duration_s=bits / mean_rate,
    )
