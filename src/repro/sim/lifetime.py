"""Analytic battery-exhaustion engine.

The Fig 15/16/17/18 experiments run devices to battery death — up to 10^12
bits, far beyond what packet-level simulation can step through.  Following
the paper (whose §6.3 results also come from a simulator driven by the
empirical characterization), these experiments are evaluated analytically:

* one-way transfers reduce to the Eq 1 solution (its optimum equals the
  bit-maximization LP — the tests cross-validate this);
* bidirectional transfers solve a small LP with per-direction mode shares
  and equal data in each direction;
* the Bluetooth and single-mode baselines have closed forms.

The discrete-event simulator cross-validates these formulas on shrunken
batteries in the integration tests.

The Eq 1 solves of :func:`braidio_unidirectional` and
:func:`braidio_bidirectional` are memoized on the
:class:`~repro.core.regimes.LinkMap` by their exact inputs: a gain
matrix solves the same few LPs for many cells (a one-way cell a -> b
and the bidirectional cells (a, b) and (b, a) share theirs), and an
:class:`~repro.core.offload.OffloadSolution` is frozen, so sharing one
changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.modes import LinkMode
from ..core.offload import OffloadSolution, best_single_mode, solve_offload
from ..core.regimes import LinkMap
from ..hardware.baselines import BluetoothBaseline
from ..hardware.power_models import ModePower


#: Entries a LinkMap's Eq 1 memo holds before it is dropped wholesale.
#: The paper's campaigns need a few hundred (perfbench's ``study`` jobs
#: solve 324 distinct programs); the bound only matters for a long-lived
#: map swept over drifting energies.
_OFFLOAD_MEMO_MAX = 4096


def _solve_offload(
    link_map: LinkMap, points: list[ModePower], e1_j: float, e2_j: float
) -> OffloadSolution:
    """:func:`~repro.core.offload.solve_offload`, memoized on
    ``link_map`` by its exact inputs."""
    memo = link_map.offload_memo
    key = (tuple(points), e1_j, e2_j)
    solution = memo.get(key)
    if solution is None:
        solution = solve_offload(points, e1_j, e2_j)
        if len(memo) >= _OFFLOAD_MEMO_MAX:
            memo.clear()
        memo[key] = solution
    return solution


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of an analytic battery-exhaustion computation.

    Attributes:
        total_bits: bits delivered before the binding battery dies.
        tx_energy_per_bit_j / rx_energy_per_bit_j: average per-bit cost at
            each role (for bidirectional runs these are per *device A* and
            *device B* rather than TX/RX).
        mode_fractions: share of bits per mode (aggregated across
            directions for bidirectional runs).
        limited_by: "both" when power-proportional (batteries die together)
            else "tx"/"rx" (or "a"/"b").
    """

    total_bits: float
    tx_energy_per_bit_j: float
    rx_energy_per_bit_j: float
    mode_fractions: dict[LinkMode, float]
    limited_by: str


def braidio_unidirectional(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> LifetimeResult:
    """Bits a Braidio pair delivers one-way before a battery dies.

    Raises:
        InfeasibleOffloadError: if no mode operates at ``distance_m``.
    """
    link_map = link_map if link_map is not None else LinkMap()
    points = link_map.available_powers(distance_m)
    solution = _solve_offload(link_map, points, e1_j, e2_j)
    bits = solution.total_bits(e1_j, e2_j)
    tx_cost = solution.tx_energy_per_bit_j
    rx_cost = solution.rx_energy_per_bit_j
    if solution.proportional:
        limited = "both"
    else:
        limited = "tx" if e1_j / tx_cost <= e2_j / rx_cost else "rx"
    return LifetimeResult(
        total_bits=bits,
        tx_energy_per_bit_j=tx_cost,
        rx_energy_per_bit_j=rx_cost,
        mode_fractions=dict(solution.mode_fractions()),
        limited_by=limited,
    )


def braidio_bidirectional(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> LifetimeResult:
    """Bits delivered with equal data in both directions (Scenario 2),
    the paper's method: Eq 1 is solved independently per direction (each
    direction operates power-proportionally on its own), and the roles
    alternate with equal data each way.

    This reproduces Fig 17, including its 1.43x equal-battery diagonal.
    A jointly optimized variant (strictly better on the diagonal) is
    available as :func:`braidio_bidirectional_joint`.
    """
    link_map = link_map if link_map is not None else LinkMap()
    points = link_map.available_powers(distance_m)
    if e1_j <= 0.0 or e2_j <= 0.0:
        return LifetimeResult(0.0, math.inf, math.inf, {}, "both")

    forward = _solve_offload(link_map, points, e1_j, e2_j)  # A transmits
    reverse = _solve_offload(link_map, points, e2_j, e1_j)  # B transmits
    # Per delivered bit (averaged over the equal split), device A pays
    # T(forward)/2 + R(reverse)/2 and device B the mirror image.
    cost_a = (forward.tx_energy_per_bit_j + reverse.rx_energy_per_bit_j) / 2.0
    cost_b = (forward.rx_energy_per_bit_j + reverse.tx_energy_per_bit_j) / 2.0
    bits = min(e1_j / cost_a, e2_j / cost_b)

    fractions: dict[LinkMode, float] = {}
    for solution in (forward, reverse):
        for mode, share in solution.mode_fractions().items():
            fractions[mode] = fractions.get(mode, 0.0) + share / 2.0

    slack_a = e1_j - cost_a * bits
    slack_b = e2_j - cost_b * bits
    tolerance = 1e-9 * (e1_j + e2_j)
    if slack_a < tolerance and slack_b < tolerance:
        limited = "both"
    else:
        limited = "a" if slack_a < slack_b else "b"
    return LifetimeResult(
        total_bits=bits,
        tx_energy_per_bit_j=cost_a,
        rx_energy_per_bit_j=cost_b,
        mode_fractions=fractions,
        limited_by=limited,
    )


def braidio_bidirectional_joint(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> LifetimeResult:
    """Jointly optimized bidirectional transfer (an extension beyond the
    paper): maximize total bits M = sum(w) + sum(x), where w_i are A->B
    bits and x_i are B->A bits carried by operating point i, subject to
    equal split (sum w = sum x) and both energy budgets.

    On the equal-battery diagonal this beats the paper's per-direction
    method (~2x vs 1.43x over Bluetooth) by running *both* directions in
    passive mode, so each device only powers a carrier while talking.
    """
    link_map = link_map if link_map is not None else LinkMap()
    points = link_map.available_powers(distance_m)
    return _bidirectional_lp(points, e1_j, e2_j)


def _bidirectional_lp(
    points: Sequence[ModePower], e1_j: float, e2_j: float
) -> LifetimeResult:
    from scipy.optimize import linprog

    if not points:
        raise ValueError("no operating points available")
    if e1_j <= 0.0 or e2_j <= 0.0:
        return LifetimeResult(0.0, math.inf, math.inf, {}, "both")

    n = len(points)
    t = np.array([p.tx_energy_per_bit_j for p in points])
    r = np.array([p.rx_energy_per_bit_j for p in points])
    # Variables: [w_1..w_n, x_1..x_n] in units of bits.  Scale by the total
    # energy so the LP is well conditioned.
    scale = (e1_j + e2_j) / min(np.min(t), np.min(r))
    c = -np.ones(2 * n)  # maximize total bits
    a_ub = np.vstack(
        [
            np.concatenate([t, r]),  # device A: transmits w, receives x
            np.concatenate([r, t]),  # device B: receives w, transmits x
        ]
    )
    b_ub = np.array([e1_j, e2_j])
    a_eq = np.concatenate([np.ones(n), -np.ones(n)]).reshape(1, -1)
    b_eq = np.array([0.0])
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, scale)] * (2 * n),
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"bidirectional LP failed: {result.message}")
    w = np.maximum(result.x[:n], 0.0)
    x = np.maximum(result.x[n:], 0.0)
    total = float(np.sum(w) + np.sum(x))
    if total <= 0.0:
        return LifetimeResult(0.0, math.inf, math.inf, {}, "both")

    cost_a = float(np.dot(w, t) + np.dot(x, r)) / total
    cost_b = float(np.dot(w, r) + np.dot(x, t)) / total
    fractions: dict[LinkMode, float] = {}
    for i, p in enumerate(points):
        share = (w[i] + x[i]) / total
        if share > 1e-12:
            fractions[p.mode] = fractions.get(p.mode, 0.0) + float(share)

    slack_a = e1_j - cost_a * total
    slack_b = e2_j - cost_b * total
    tolerance = 1e-6 * (e1_j + e2_j)
    if slack_a < tolerance and slack_b < tolerance:
        limited = "both"
    else:
        limited = "a" if slack_a < slack_b else "b"
    return LifetimeResult(
        total_bits=total,
        tx_energy_per_bit_j=cost_a,
        rx_energy_per_bit_j=cost_b,
        mode_fractions=fractions,
        limited_by=limited,
    )


def braidio_unidirectional_harvesting(
    e1_j: float,
    e2_j: float,
    distance_m: float = 0.3,
    link_map: LinkMap | None = None,
    harvester=None,
) -> LifetimeResult:
    """One-way transfer where the backscatter tag harvests the reader's
    carrier while it reflects (extension; see
    :mod:`repro.hardware.harvesting`).

    The tag's *net* battery draw in backscatter mode is its load minus the
    banked carrier energy, floored at zero; within the self-sustaining
    range the transmitter side of the backscatter mode becomes free and
    the achievable asymmetry widens beyond 1:2546.
    """
    from ..hardware.harvesting import RfHarvester
    from ..hardware.power_models import ModePower

    link_map = link_map if link_map is not None else LinkMap()
    harvester = harvester if harvester is not None else RfHarvester()
    points = []
    for point in link_map.available_powers(distance_m):
        if point.mode is LinkMode.BACKSCATTER:
            harvested = harvester.harvested_power_w(distance_m)
            net_tx = max(point.tx_w - harvested, 1e-12)
            point = ModePower(
                mode=point.mode,
                bitrate_bps=point.bitrate_bps,
                tx_w=net_tx,
                rx_w=point.rx_w,
            )
        points.append(point)
    solution = solve_offload(points, e1_j, e2_j)
    bits = solution.total_bits(e1_j, e2_j)
    limited = "both" if solution.proportional else (
        "tx" if e1_j / solution.tx_energy_per_bit_j <= e2_j / solution.rx_energy_per_bit_j
        else "rx"
    )
    return LifetimeResult(
        total_bits=bits,
        tx_energy_per_bit_j=solution.tx_energy_per_bit_j,
        rx_energy_per_bit_j=solution.rx_energy_per_bit_j,
        mode_fractions=dict(solution.mode_fractions()),
        limited_by=limited,
    )


@dataclass(frozen=True)
class DemandLifetime:
    """Lifetime under a fixed offered load.

    Attributes:
        lifetime_s: seconds until the binding battery dies.
        limited_by: "tx", "rx" or "both".
        tx_power_w / rx_power_w: average side power including sleep draw.
        air_time_fraction: share of time the radios are on air.
    """

    lifetime_s: float
    limited_by: str
    tx_power_w: float
    rx_power_w: float
    air_time_fraction: float


def lifetime_at_demand(
    e1_j: float,
    e2_j: float,
    demand_bps: float,
    distance_m: float = 0.3,
    link_map: LinkMap | None = None,
    sleep_power_w: tuple[float, float] = (4e-6, 4e-6),
) -> DemandLifetime:
    """How long a duty-cycled session lasts at ``demand_bps`` of offered
    load (the adopter question: "how long does my watch last streaming at
    100 kbps?").

    The mode mix comes from Eq 1 (which sets the per-bit costs); radios
    sleep between packets at ``sleep_power_w``.  The sleep draw is not
    folded back into the proportionality constraint — at microwatt sleep
    levels its effect on the optimal mix is negligible, and the returned
    powers do include it.

    Raises:
        ValueError: for non-positive demand or demand beyond the mix's
            air rate.
    """
    if demand_bps <= 0.0:
        raise ValueError("demand must be positive")
    if any(p < 0.0 for p in sleep_power_w):
        raise ValueError("sleep power must be non-negative")
    link_map = link_map if link_map is not None else LinkMap()
    points = link_map.available_powers(distance_m)
    solution = solve_offload(points, e1_j, e2_j)
    air_rate = solution.mean_bitrate_bps()
    if demand_bps > air_rate:
        raise ValueError(
            f"demand {demand_bps} bps exceeds the mix's {air_rate:.0f} bps"
        )
    air_fraction = demand_bps / air_rate
    tx_power = (
        demand_bps * solution.tx_energy_per_bit_j
        + (1.0 - air_fraction) * sleep_power_w[0]
    )
    rx_power = (
        demand_bps * solution.rx_energy_per_bit_j
        + (1.0 - air_fraction) * sleep_power_w[1]
    )
    tx_life = e1_j / tx_power
    rx_life = e2_j / rx_power
    if abs(tx_life - rx_life) <= 1e-6 * max(tx_life, rx_life):
        limited = "both"
    else:
        limited = "tx" if tx_life < rx_life else "rx"
    return DemandLifetime(
        lifetime_s=min(tx_life, rx_life),
        limited_by=limited,
        tx_power_w=tx_power,
        rx_power_w=rx_power,
        air_time_fraction=air_fraction,
    )


def bluetooth_unidirectional(
    e1_j: float, e2_j: float, baseline: BluetoothBaseline | None = None
) -> float:
    """Bits a symmetric Bluetooth pair delivers one-way."""
    baseline = baseline or BluetoothBaseline()
    if e1_j <= 0.0 or e2_j <= 0.0:
        return 0.0
    return min(
        e1_j / baseline.tx_energy_per_bit_j, e2_j / baseline.rx_energy_per_bit_j
    )


def bluetooth_bidirectional(
    e1_j: float, e2_j: float, baseline: BluetoothBaseline | None = None
) -> float:
    """Bits a Bluetooth pair delivers with equal data each way.

    Each device spends (T + R)/2 per delivered bit on average; the smaller
    battery binds.
    """
    baseline = baseline or BluetoothBaseline()
    if e1_j <= 0.0 or e2_j <= 0.0:
        return 0.0
    per_bit = (baseline.tx_energy_per_bit_j + baseline.rx_energy_per_bit_j) / 2.0
    return min(e1_j, e2_j) / per_bit


def best_single_mode_unidirectional(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> tuple[LinkMode, float]:
    """The Fig 16 baseline: bits under the best pure mode."""
    link_map = link_map if link_map is not None else LinkMap()
    points = link_map.available_powers(distance_m)
    point, bits = best_single_mode(points, e1_j, e2_j)
    return point.mode, bits


def braidio_gain_over_bluetooth(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> float:
    """Fig 15 cell value: Braidio bits / Bluetooth bits, one-way."""
    braidio = braidio_unidirectional(e1_j, e2_j, distance_m, link_map).total_bits
    bluetooth = bluetooth_unidirectional(e1_j, e2_j)
    return braidio / bluetooth


def braidio_gain_over_best_mode(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> float:
    """Fig 16 cell value: Braidio bits / best-single-mode bits."""
    braidio = braidio_unidirectional(e1_j, e2_j, distance_m, link_map).total_bits
    _, best = best_single_mode_unidirectional(e1_j, e2_j, distance_m, link_map)
    return braidio / best


def braidio_bidirectional_gain(
    e1_j: float, e2_j: float, distance_m: float = 0.3, link_map: LinkMap | None = None
) -> float:
    """Fig 17 cell value: bidirectional Braidio bits / Bluetooth bits."""
    braidio = braidio_bidirectional(e1_j, e2_j, distance_m, link_map).total_bits
    bluetooth = bluetooth_bidirectional(e1_j, e2_j)
    return braidio / bluetooth
