"""Energy-efficiency operating points and the feasible mixing region.

Fig 9/14 of the paper plot each mode as a point in (TX bits/joule,
RX bits/joule) space; time-multiplexing between modes sweeps out the convex
hull of the available points (the shaded triangle).  This module computes:

* the operating points of a set of available modes,
* mixtures (what power each side draws for a given bit-fraction mix),
* the achievable TX:RX power-ratio span (the "1:2546 to 3546:1" headline),
* the Pareto-optimal edge (segment BC of Fig 9 — the mixes with the best
  cumulative efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..hardware.power_models import ModePower
from .modes import LinkMode


@dataclass(frozen=True)
class OperatingPoint:
    """One mode's location in efficiency space.

    Attributes:
        power: the (mode, bitrate, tx_w, rx_w) power record.
        label: short label used by the figure renderers (A/B/C etc.).
    """

    power: ModePower
    label: str = ""

    @property
    def tx_bits_per_joule(self) -> float:
        """Transmitter-side efficiency (Fig 9 x axis)."""
        return self.power.tx_bits_per_joule

    @property
    def rx_bits_per_joule(self) -> float:
        """Receiver-side efficiency (Fig 9 y axis)."""
        return self.power.rx_bits_per_joule

    @property
    def tx_rx_power_ratio(self) -> float:
        """TX:RX power ratio at this point."""
        return self.power.tx_rx_power_ratio

    @property
    def cumulative_energy_per_bit_j(self) -> float:
        """Total (TX + RX) joules per bit — the Eq 1 objective at a
        pure-mode point."""
        return self.power.tx_energy_per_bit_j + self.power.rx_energy_per_bit_j


@dataclass(frozen=True)
class Mixture:
    """A time/bit-share mixture of operating points.

    ``fractions`` are fractions of *bits* carried by each mode (the paper's
    p_i with T_i/R_i expressed per bit), summing to 1.
    """

    points: tuple[OperatingPoint, ...]
    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.fractions):
            raise ValueError("points and fractions must have equal length")
        if not self.points:
            raise ValueError("a mixture needs at least one point")
        if any(f < -1e-12 for f in self.fractions):
            raise ValueError(f"fractions must be non-negative: {self.fractions}")
        total = sum(self.fractions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total!r}")

    @property
    def tx_energy_per_bit_j(self) -> float:
        """Average transmitter joules per bit across the mixture."""
        return sum(
            f * p.power.tx_energy_per_bit_j for f, p in zip(self.fractions, self.points)
        )

    @property
    def rx_energy_per_bit_j(self) -> float:
        """Average receiver joules per bit across the mixture."""
        return sum(
            f * p.power.rx_energy_per_bit_j for f, p in zip(self.fractions, self.points)
        )

    @property
    def cumulative_energy_per_bit_j(self) -> float:
        """Eq 1 objective: total joules per bit."""
        return self.tx_energy_per_bit_j + self.rx_energy_per_bit_j

    @property
    def mean_bitrate_bps(self) -> float:
        """Harmonic-style mean bitrate: total bits over total air time."""
        time_per_bit = sum(
            f / p.power.bitrate_bps for f, p in zip(self.fractions, self.points)
        )
        return 1.0 / time_per_bit

    def time_fractions(self) -> tuple[float, ...]:
        """Convert bit fractions to air-time fractions."""
        times = [f / p.power.bitrate_bps for f, p in zip(self.fractions, self.points)]
        total = sum(times)
        return tuple(t / total for t in times)

    def mode_fractions(self) -> Mapping[LinkMode, float]:
        """Bit fractions aggregated per mode."""
        out: dict[LinkMode, float] = {}
        for f, p in zip(self.fractions, self.points):
            out[p.power.mode] = out.get(p.power.mode, 0.0) + f
        return out


def power_ratio_span(points: Sequence[OperatingPoint]) -> tuple[float, float]:
    """(min, max) TX:RX power ratio achievable by mixing ``points``.

    Mixing ratios are bounded by the extreme pure-mode ratios (the ratio is
    a monotone function along any two-point mixture), so the span is just
    the min and max over the points.

    Raises:
        ValueError: if no points are given.
    """
    if not points:
        raise ValueError("need at least one operating point")
    ratios = [p.tx_rx_power_ratio for p in points]
    return min(ratios), max(ratios)


def dynamic_range_orders_of_magnitude(points: Sequence[OperatingPoint]) -> float:
    """Orders of magnitude spanned by the achievable power ratios — the
    paper's "seven orders of magnitude" headline for 1:2546..3546:1."""
    import math

    low, high = power_ratio_span(points)
    return math.log10(high / low)


def pareto_edge(points: Sequence[OperatingPoint]) -> tuple[OperatingPoint, ...]:
    """Operating points on the efficiency-Pareto frontier.

    A point is dominated if another point is at least as TX-efficient *and*
    at least as RX-efficient.  The passive and backscatter points (B and C
    of Fig 9) always survive; the active point is cumulative-cost dominated
    by the BC segment, which is why Eq 1 optima never use it at close
    range, but it can remain per-axis non-dominated.
    """
    frontier = []
    for candidate in points:
        dominated = any(
            other is not candidate
            and other.tx_bits_per_joule >= candidate.tx_bits_per_joule
            and other.rx_bits_per_joule >= candidate.rx_bits_per_joule
            and (
                other.tx_bits_per_joule > candidate.tx_bits_per_joule
                or other.rx_bits_per_joule > candidate.rx_bits_per_joule
            )
            for other in points
        )
        if not dominated:
            frontier.append(candidate)
    return tuple(frontier)


def operating_points(
    powers: Iterable[ModePower], labels: Mapping[LinkMode, str] | None = None
) -> tuple[OperatingPoint, ...]:
    """Wrap :class:`ModePower` records as labelled operating points."""
    default_labels = {
        LinkMode.ACTIVE: "A",
        LinkMode.PASSIVE: "B",
        LinkMode.BACKSCATTER: "C",
    }
    labels = dict(default_labels if labels is None else labels)
    return tuple(
        OperatingPoint(power=p, label=labels.get(p.mode, p.mode.value)) for p in powers
    )
