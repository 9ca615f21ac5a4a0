"""Operating regimes (Fig 8) and per-distance mode availability.

As the separation between two Braidios grows, links drop out in order of
sensitivity: backscatter first (round-trip loss), then the passive
receiver, leaving only the active link.

* Regime A — all three links available: the carrier can be moved to either
  end point (full carrier-offload flexibility).
* Regime B — backscatter is gone but the passive link works: the
  transmitter must generate the carrier, but the receiver can still shed
  its own.
* Regime C — only the active link works.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..hardware.power_models import (
    ModePower,
    paper_mode_power,
    supported_bitrates,
)
from ..phy.link_budget import OPERATIONAL_BER, LinkBudget, paper_link_profiles
from ..phy.modulation import packet_error_rate
from .modes import ALL_MODES, LinkMode

#: Entries kept in a LinkMap's per-distance availability memo before it is
#: dropped wholesale (guards distance sweeps against unbounded growth).
_AVAILABILITY_CACHE_MAX = 4096


class Regime(enum.Enum):
    """Operating regime of a Braidio pair at some separation (Fig 8)."""

    A = "A"  # active + passive + backscatter
    B = "B"  # active + passive
    C = "C"  # active only


@dataclass(frozen=True)
class ModeAvailability:
    """Availability of one mode at a given distance.

    Attributes:
        mode: the link mode.
        best_bitrate_bps: highest characterized bitrate whose BER is under
            the operational threshold, or ``None`` if the mode is out of
            range entirely.
        ber: BER at that bitrate (or 1.0 when unavailable).
    """

    mode: LinkMode
    best_bitrate_bps: int | None
    ber: float

    @property
    def available(self) -> bool:
        """Whether the mode works at all at this distance."""
        return self.best_bitrate_bps is not None

    def power(self) -> ModePower:
        """Calibrated power record at the best supported bitrate.

        Raises:
            RuntimeError: if the mode is unavailable.
        """
        if self.best_bitrate_bps is None:
            raise RuntimeError(f"{self.mode} is not available")
        return paper_mode_power(self.mode, self.best_bitrate_bps)


class LinkMap:
    """Per-distance availability of the three Braidio links.

    Wraps the calibrated link budgets and answers "which modes work at
    which bitrate at distance d" — the pruning input of the carrier-offload
    algorithm (§4.2).

    Args:
        profiles: (link name, bitrate) -> budget; defaults to the
            paper-calibrated profiles.
        target_ber: BER threshold for a link to count as operational (the
            paper's criterion, BER < 1e-2).
        packet_bits: if set, availability additionally requires the
            packet error rate for this frame size to stay at or below
            ``max_packet_error``.  The paper's figures use the plain BER
            criterion; packet-level deployments (and the mobility example)
            want the stricter PER criterion so the controller downgrades
            bitrate before the failure-driven fallback has to engage.
        max_packet_error: PER ceiling used when ``packet_bits`` is set.
    """

    def __init__(
        self,
        profiles: dict[tuple[str, int], LinkBudget] | None = None,
        target_ber: float = OPERATIONAL_BER,
        packet_bits: int | None = None,
        max_packet_error: float = 0.1,
    ) -> None:
        if not 0.0 < target_ber < 0.5:
            raise ValueError(f"target BER must be in (0, 0.5), got {target_ber!r}")
        if packet_bits is not None and packet_bits <= 0:
            raise ValueError(f"packet_bits must be positive, got {packet_bits!r}")
        if not 0.0 < max_packet_error < 1.0:
            raise ValueError(
                f"max_packet_error must be in (0, 1), got {max_packet_error!r}"
            )
        self._profiles = paper_link_profiles() if profiles is None else dict(profiles)
        self._target_ber = target_ber
        self._packet_bits = packet_bits
        self._max_packet_error = max_packet_error
        # Budgets and availability are pure functions of the (immutable)
        # profile set, so both are memoized: budgets for the per-packet
        # (mode, bitrate) lookup, availability for the per-distance scans
        # the controller and policies repeat.
        self._budget_cache: dict[tuple[LinkMode, int], LinkBudget] = {}
        self._availability_cache: dict[tuple[LinkMode, float], ModeAvailability] = {}
        self._modes_cache: dict[float, tuple[ModeAvailability, ...]] = {}
        #: Offload plans of the controllers that plan against this map,
        #: keyed by their exact inputs and bounded by
        #: :class:`~repro.core.controller.DynamicOffloadController`.  It
        #: lives as long as the map: in a deployment, one region.
        self.plan_memo: dict = {}
        #: Eq 1 solutions of the lifetime engine over this map's
        #: operating points, keyed by their exact inputs and bounded by
        #: :mod:`repro.sim.lifetime`.  It lives as long as the map: in a
        #: campaign worker, the whole process.
        self.offload_memo: dict = {}

    @property
    def target_ber(self) -> float:
        """BER threshold used to declare links operational."""
        return self._target_ber

    def budget(self, mode: LinkMode, bitrate_bps: int) -> LinkBudget:
        """The link budget for ``mode`` at ``bitrate_bps``.

        Raises:
            KeyError: if the combination is not characterized.
        """
        key = (mode, bitrate_bps)
        budget = self._budget_cache.get(key)
        if budget is None:
            budget = self._profiles[(mode.link_budget_name, bitrate_bps)]
            self._budget_cache[key] = budget
        return budget

    def availability(self, mode: LinkMode, distance_m: float) -> ModeAvailability:
        """Best supported bitrate of ``mode`` at ``distance_m``."""
        key = (mode, distance_m)
        cached = self._availability_cache.get(key)
        if cached is not None:
            return cached
        entry = self._availability_uncached(mode, distance_m)
        if len(self._availability_cache) >= _AVAILABILITY_CACHE_MAX:
            self._availability_cache.clear()
        self._availability_cache[key] = entry
        return entry

    def _availability_uncached(
        self, mode: LinkMode, distance_m: float
    ) -> ModeAvailability:
        for bitrate in supported_bitrates(mode):
            key = (mode.link_budget_name, bitrate)
            if key not in self._profiles:
                continue
            budget = self._profiles[key]
            ber = budget.ber(distance_m, bitrate)
            if ber > self._target_ber:
                continue
            if self._packet_bits is not None:
                if packet_error_rate(ber, self._packet_bits) > self._max_packet_error:
                    continue
            return ModeAvailability(mode=mode, best_bitrate_bps=bitrate, ber=ber)
        return ModeAvailability(mode=mode, best_bitrate_bps=None, ber=1.0)

    def available_modes(self, distance_m: float) -> list[ModeAvailability]:
        """Availability of every mode at ``distance_m`` (available first)."""
        entries = self._modes_cache.get(distance_m)
        if entries is None:
            entries = tuple(
                sorted(
                    (self.availability(mode, distance_m) for mode in ALL_MODES),
                    key=lambda e: not e.available,
                )
            )
            if len(self._modes_cache) >= _AVAILABILITY_CACHE_MAX:
                self._modes_cache.clear()
            self._modes_cache[distance_m] = entries
        return list(entries)

    def available_powers(self, distance_m: float) -> list[ModePower]:
        """Calibrated power records of every available mode at its best
        bitrate — the candidate set Eq 1 optimizes over."""
        return [
            entry.power()
            for entry in self.available_modes(distance_m)
            if entry.available
        ]

    def classify(self, distance_m: float) -> Regime:
        """Regime (Fig 8) at ``distance_m``."""
        backscatter = self.availability(LinkMode.BACKSCATTER, distance_m)
        passive = self.availability(LinkMode.PASSIVE, distance_m)
        if backscatter.available:
            return Regime.A
        if passive.available:
            return Regime.B
        return Regime.C

    def regime_boundaries_m(self, resolution_m: float = 0.01) -> dict[Regime, float]:
        """Outer edge (m) of each regime, found by scanning distance.

        Regime A ends where backscatter dies (paper: 2.4 m); regime B ends
        where the passive link dies (paper: 5.1 m).
        """
        if resolution_m <= 0.0:
            raise ValueError("resolution must be positive")
        boundaries: dict[Regime, float] = {}
        backscatter_range = max(
            self.budget(LinkMode.BACKSCATTER, rate).max_range_m(rate, self._target_ber)
            for rate in supported_bitrates(LinkMode.BACKSCATTER)
        )
        passive_range = max(
            self.budget(LinkMode.PASSIVE, rate).max_range_m(rate, self._target_ber)
            for rate in supported_bitrates(LinkMode.PASSIVE)
        )
        active_range = max(
            self.budget(LinkMode.ACTIVE, rate).max_range_m(rate, self._target_ber)
            for rate in supported_bitrates(LinkMode.ACTIVE)
        )
        boundaries[Regime.A] = backscatter_range
        boundaries[Regime.B] = passive_range
        boundaries[Regime.C] = active_range
        return boundaries
