"""BER-versus-distance sweeps (Fig 12 and Fig 13).

Each curve runs the vectorized PHY kernels (:mod:`repro.batch`), except
that a custom ``link_map``, or a budget the kernels cannot reproduce
(:func:`~repro.batch.vectorizable_budget`), runs the scalar oracle
``LinkBudget.ber`` point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.modes import LinkMode
from ..core.regimes import LinkMap
from ..hardware.baselines import AS3993, BRAIDIO_READER_POWER_W
from ..phy.link_budget import LinkBudget, paper_link_profiles


@dataclass(frozen=True)
class BerCurve:
    """One BER-vs-distance curve.

    Attributes:
        label: curve name as it appears in the figure legend.
        distances_m: sweep points.
        ber: BER at each distance.
    """

    label: str
    distances_m: np.ndarray
    ber: np.ndarray

    def range_at_ber(self, threshold: float = 0.01) -> float:
        """Largest swept distance whose BER stays at or below
        ``threshold`` (0.0 if the first point already exceeds it)."""
        below = self.distances_m[self.ber <= threshold]
        return float(below.max()) if below.size else 0.0


def _ber_over_distances(
    budget: LinkBudget, distances_m: np.ndarray, bitrate_bps: int, oracle: bool
) -> np.ndarray:
    """One BER curve: the scalar oracle when asked for or when the
    kernels cannot reproduce ``budget``, the PHY kernels otherwise."""
    from ..batch import link_ber, vectorizable_budget

    if oracle or not vectorizable_budget(budget):
        return np.array([budget.ber(float(d), bitrate_bps) for d in distances_m])
    return np.asarray(link_ber(budget, distances_m, bitrate_bps), dtype=float)


def mode_ber_curves(
    distances_m: np.ndarray | None = None,
    link_map: LinkMap | None = None,
) -> list[BerCurve]:
    """Fig 13: BER over distance for the backscatter and passive links at
    1 Mbps / 100 kbps / 10 kbps.  (The active link operates far beyond the
    6 m sweep, exactly as the paper notes, so it is omitted.)
    """
    if distances_m is None:
        distances_m = np.linspace(0.1, 6.0, 60)
    oracle = link_map is not None
    link_map = link_map if link_map is not None else LinkMap()
    curves = []
    for mode in (LinkMode.BACKSCATTER, LinkMode.PASSIVE):
        for bitrate, suffix in ((1_000_000, "1M"), (100_000, "100k"), (10_000, "10k")):
            budget = link_map.budget(mode, bitrate)
            ber = _ber_over_distances(budget, distances_m, bitrate, oracle)
            curves.append(
                BerCurve(
                    label=f"{mode.value}@{suffix}",
                    distances_m=np.asarray(distances_m, dtype=float),
                    ber=ber,
                )
            )
    return curves


def reader_comparison_curves(
    distances_m: np.ndarray | None = None,
) -> tuple[list[BerCurve], dict[str, float]]:
    """Fig 12: Braidio's backscatter link vs the AS3993 commercial reader
    at 100 kbps, plus the §6.1 power/efficiency summary.

    Returns:
        (curves, summary) where summary holds the operating ranges, the
        power draws, and the efficiency advantage.
    """
    if distances_m is None:
        distances_m = np.linspace(0.1, 4.0, 40)
    profiles = paper_link_profiles()
    braidio = profiles[("backscatter", 100_000)]
    commercial = profiles[("as3993", 100_000)]

    curves = []
    for label, budget in (("Braidio", braidio), ("Commercial", commercial)):
        ber = _ber_over_distances(budget, distances_m, 100_000, oracle=False)
        curves.append(
            BerCurve(label=label, distances_m=np.asarray(distances_m), ber=ber)
        )

    braidio_range = braidio.max_range_m(100_000)
    commercial_range = commercial.max_range_m(100_000)
    summary = {
        "braidio_range_m": braidio_range,
        "commercial_range_m": commercial_range,
        "range_penalty": 1.0 - braidio_range / commercial_range,
        "braidio_power_w": BRAIDIO_READER_POWER_W,
        "commercial_power_w": AS3993.total_power_w,
        "efficiency_advantage": AS3993.total_power_w / BRAIDIO_READER_POWER_W,
    }
    return curves, summary
