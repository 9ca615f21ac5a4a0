"""Link policies: who decides which mode each packet uses.

A policy answers, per packet, "(mode, bitrate, tx-side power, rx-side
power)".  Three policies cover the paper's comparisons:

* :class:`BraidioPolicy` — the full energy-aware carrier-offload layer
  (wraps :class:`~repro.core.controller.DynamicOffloadController`).
* :class:`FixedModePolicy` — one Braidio mode used exclusively (the
  Fig 16 "best single mode" baselines).
* :class:`BluetoothPolicy` — a symmetric active radio (the Fig 15/17/18
  baseline); modelled as the active link with CC2541-class power.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.controller import DynamicOffloadController
from ..core.modes import LinkMode
from ..core.offload import InfeasibleOffloadError
from ..core.regimes import LinkMap
from ..hardware.baselines import BluetoothBaseline
from ..hardware.power_models import ModePower


@dataclass(frozen=True)
class PacketDecision:
    """The policy's verdict for one packet.

    Frozen and value-like: policies are free to hand back the same cached
    instance for every packet whose verdict is unchanged.
    """

    mode: LinkMode
    bitrate_bps: int
    tx_power_w: float
    rx_power_w: float


class BraidioPolicy:
    """Energy-aware carrier offload (the paper's contribution).

    Per-packet decisions follow the committed schedule, so the *mode* can
    change packet to packet — but the (mode, bitrate, powers) tuple for a
    given mode only changes when the controller re-plans.  Decisions are
    therefore cached per mode and invalidated on every re-plan (tracked
    via the controller's ``replans`` counter, which every new plan
    advances, fallback and re-probe re-plans included).  A decision
    costs two calls (this one and the controller's
    :meth:`~repro.core.controller.DynamicOffloadController.next_packet_mode`),
    and so does an outcome.
    """

    def __init__(self, controller: DynamicOffloadController | None = None) -> None:
        self._controller = controller or DynamicOffloadController()
        self._decision_plan_epoch = -1
        self._decisions: dict[LinkMode, PacketDecision] = {}

    @property
    def controller(self) -> DynamicOffloadController:
        """The underlying dynamic controller."""
        return self._controller

    def start(self, distance_m: float, e1_j: float, e2_j: float) -> None:
        """Negotiate the initial plan."""
        self._controller.start(distance_m, e1_j, e2_j)

    def next_packet(self) -> PacketDecision:
        """Mode/power for the next packet per the committed schedule."""
        controller = self._controller
        mode, bitrate = controller.next_packet_mode()
        epoch = controller.replans
        if epoch != self._decision_plan_epoch:
            self._decisions.clear()
            self._decision_plan_epoch = epoch
        decision = self._decisions.get(mode)
        if decision is None:
            power = controller.plan.power_for(mode)
            decision = PacketDecision(
                mode=mode,
                bitrate_bps=bitrate,
                tx_power_w=power.tx_w,
                rx_power_w=power.rx_w,
            )
            self._decisions[mode] = decision
        return decision

    def record_outcome(self, mode: LinkMode, success: bool) -> None:
        """Feed back packet outcomes (drives fallback)."""
        self._controller.record_outcome(mode, success)

    def update_energy(self, e1_j: float, e2_j: float) -> None:
        """Refresh battery state (drives periodic re-planning)."""
        self._controller.update_energy(e1_j, e2_j)

    def update_distance(self, distance_m: float) -> None:
        """Refresh separation (drives regime changes)."""
        self._controller.update_distance(distance_m)


class FixedModePolicy:
    """A single Braidio mode used for every packet.

    Args:
        mode: the mode to pin.
        link_map: availability map used to pick the best bitrate at the
            session's distance.

    Raises:
        InfeasibleOffloadError: at :meth:`start` if the mode does not work
            at the distance.
    """

    def __init__(self, mode: LinkMode, link_map: LinkMap | None = None) -> None:
        self._mode = mode
        self._link_map = link_map if link_map is not None else LinkMap()
        self._power: ModePower | None = None
        self._decision: PacketDecision | None = None

    def start(self, distance_m: float, e1_j: float, e2_j: float) -> None:
        """Resolve the best bitrate for the pinned mode at this distance."""
        availability = self._link_map.availability(self._mode, distance_m)
        if not availability.available:
            raise InfeasibleOffloadError(
                f"{self._mode} does not operate at {distance_m} m"
            )
        self._power = availability.power()
        # The verdict is frozen until the next start/update_distance, so
        # build it once.
        self._decision = PacketDecision(
            mode=self._mode,
            bitrate_bps=self._power.bitrate_bps,
            tx_power_w=self._power.tx_w,
            rx_power_w=self._power.rx_w,
        )

    def next_packet(self) -> PacketDecision:
        """Always the pinned mode (the same cached instance every packet).

        Raises:
            RuntimeError: before :meth:`start`.
        """
        if self._decision is None:
            raise RuntimeError("policy not started")
        return self._decision

    def record_outcome(self, mode: LinkMode, success: bool) -> None:
        """Fixed policy ignores outcomes (no adaptation)."""

    def update_energy(self, e1_j: float, e2_j: float) -> None:
        """Fixed policy ignores energy state."""

    def update_distance(self, distance_m: float) -> None:
        """Re-resolve the bitrate at the new distance."""
        self.start(distance_m, 1.0, 1.0)


class BluetoothPolicy:
    """Symmetric Bluetooth baseline: the active link at CC2541 power."""

    def __init__(self, baseline: BluetoothBaseline | None = None) -> None:
        self._baseline = baseline or BluetoothBaseline()
        self._decision = PacketDecision(
            mode=LinkMode.ACTIVE,
            bitrate_bps=self._baseline.bitrate_bps,
            tx_power_w=self._baseline.tx_power_w,
            rx_power_w=self._baseline.rx_power_w,
        )

    def start(self, distance_m: float, e1_j: float, e2_j: float) -> None:
        """Bluetooth needs no negotiation."""

    def next_packet(self) -> PacketDecision:
        """Always the active link at the baseline's symmetric power (the
        same cached instance every packet)."""
        return self._decision

    def record_outcome(self, mode: LinkMode, success: bool) -> None:
        """No adaptation."""

    def update_energy(self, e1_j: float, e2_j: float) -> None:
        """No adaptation."""

    def update_distance(self, distance_m: float) -> None:
        """No adaptation."""
