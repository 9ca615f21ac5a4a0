"""In-band interference injection (failure injection for the controller).

The SAW filter removes out-of-band energy (§3.2), but another 915 MHz
transmitter in the room lands squarely in the envelope detector's band.
This module models bursty in-band interference as a two-state (on/off)
renewal process that knocks the SNR down while active — the stress case
for the §4.2 fallback logic ("Braidio simply falls back to the active
mode if the current operating mode is performing poorly").
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..core.modes import LinkMode
from ..core.regimes import LinkMap
from ..phy.fading import BlockFadingProcess
from ..phy.modulation import packet_error_rate
from .link import SimulatedLink

# Read once: an enum member lookup costs about 0.1 us per packet.
_ACTIVE = LinkMode.ACTIVE


class BurstyInterferer:
    """On/off interference with exponential dwell times.

    The process is pre-sampled over a horizon so queries are pure
    functions of time (no hidden state advanced by query order).

    Args:
        rng: random source.
        mean_on_s / mean_off_s: mean burst / quiet durations.
        snr_penalty_db: SNR degradation while the interferer is on.
        horizon_s: pre-sampled time span.

    Raises:
        ValueError: for non-positive dwells or horizon, a negative
            penalty, or any non-finite parameter (naming it).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_on_s: float = 0.5,
        mean_off_s: float = 2.0,
        snr_penalty_db: float = 20.0,
        horizon_s: float = 3600.0,
    ) -> None:
        for name, value in (
            ("mean_on_s", mean_on_s),
            ("mean_off_s", mean_off_s),
            ("snr_penalty_db", snr_penalty_db),
            ("horizon_s", horizon_s),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if mean_on_s <= 0.0 or mean_off_s <= 0.0:
            raise ValueError("dwell times must be positive")
        if snr_penalty_db < 0.0:
            raise ValueError("penalty must be non-negative")
        if horizon_s <= 0.0:
            raise ValueError("horizon must be positive")
        self._penalty_db = snr_penalty_db
        edges = [0.0]
        state_on = [False]
        t = 0.0
        on = False
        while t < horizon_s:
            dwell = float(rng.exponential(mean_on_s if on else mean_off_s))
            t += max(dwell, 1e-6)
            on = not on
            edges.append(t)
            state_on.append(on)
        # Plain lists: one bisect per query beats a numpy call on a
        # scalar by an order of magnitude.
        self._edges = edges
        self._state_on = state_on

    @property
    def penalty_db(self) -> float:
        """SNR penalty applied during bursts."""
        return self._penalty_db

    def is_active(self, time_s: float) -> bool:
        """Whether a burst is in progress at ``time_s``.

        Raises:
            ValueError: for negative times.
        """
        if time_s < 0.0:
            raise ValueError("time must be non-negative")
        return self._state_on[bisect_right(self._edges, time_s) - 1]

    def snr_penalty_at(self, time_s: float) -> float:
        """Penalty (dB) at ``time_s`` — the burst depth or zero."""
        return self._penalty_db if self.is_active(time_s) else 0.0

    def duty_cycle(self, until_s: float, resolution: int = 2000) -> float:
        """Fraction of [0, until_s] covered by bursts (sampled)."""
        if until_s <= 0.0:
            raise ValueError("until must be positive")
        times = np.linspace(0.0, until_s, resolution)
        return float(np.mean([self.is_active(float(t)) for t in times]))


class InterferedLink(SimulatedLink):
    """A :class:`SimulatedLink` with an in-band interferer.

    The penalty hits the envelope-detector modes (passive, backscatter)
    only: the active radio's coherent receiver and channel filtering ride
    the burst out, which is exactly why the fallback target is the active
    mode.

    The burst makes the SNR time-varying, so the static per-(mode,
    bitrate) memo of the base class stays off (``cache_enabled`` is
    false).  On a static channel, though, the SNR of a (mode, bitrate)
    pair takes exactly two values, burst on and burst off, so the packet
    error rate is memoized per (mode, bitrate, packet bits, burst on)
    instead, in the same ``_per_cache`` the base class clears on
    :meth:`set_distance` and on a change of ``snr_offset_db``.  A fading
    process bypasses this memo too.
    """

    __slots__ = ("_interferer",)

    def __init__(
        self,
        link_map: LinkMap,
        distance_m: float,
        rng: np.random.Generator,
        interferer: BurstyInterferer,
        fading: BlockFadingProcess | None = None,
    ) -> None:
        super().__init__(link_map, distance_m, rng, fading=fading, cache=False)
        self._interferer = interferer

    @property
    def interferer(self) -> BurstyInterferer:
        """The injected interference process."""
        return self._interferer

    def snr_db(self, mode: LinkMode, bitrate_bps: int, time_s: float = 0.0) -> float:
        """SNR including the burst penalty for envelope-detector modes."""
        snr = super().snr_db(mode, bitrate_bps, time_s)
        if mode is not _ACTIVE:
            snr -= self._interferer.snr_penalty_at(time_s)
        return snr

    def _packet_error_rate(
        self, mode: LinkMode, bitrate_bps: int, packet_bits: int, time_s: float
    ) -> float:
        if self._fading is not None:
            return super()._packet_error_rate(mode, bitrate_bps, packet_bits, time_s)
        burst = mode is not _ACTIVE and self._interferer.is_active(time_s)
        key = (mode, bitrate_bps, packet_bits, burst)
        per = self._per_cache.get(key)
        if per is None:
            per = packet_error_rate(self.ber(mode, bitrate_bps, time_s), packet_bits)
            self._per_cache[key] = per
        return per
