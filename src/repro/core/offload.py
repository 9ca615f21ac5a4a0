"""The energy-aware carrier-offload optimization (Eq 1 of the paper).

Given the candidate operating points (mode @ bitrate, each with per-bit
energies T_i at the transmitter and R_i at the receiver) and the energy
E1/E2 available at the two end points, find bit fractions p_i that

    minimize    sum_i p_i (T_i + R_i)          (total energy per bit)
    subject to  sum_i p_i = 1,  p_i >= 0,
                sum_i p_i T_i / sum_i p_i R_i = E1 / E2   (proportionality)

Minimizing total energy per bit under exact power-proportionality
maximizes the number of bits delivered before the batteries (which die
simultaneously) are exhausted:  N = (E1 + E2) / sum_i p_i (T_i + R_i).

When the required ratio lies outside the achievable span the constraint is
infeasible; the solver then *clamps* to the most favourable extreme mode
(whichever side is the bottleneck runs as efficiently as possible), which
is how the paper's matrices behave in the highly asymmetric corners.

The LP is small (three variables, two equalities), so the primary solver
enumerates basic solutions analytically; :func:`verify_with_linprog`
cross-checks against scipy for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..hardware.power_models import ModePower
from .modes import LinkMode

#: Tolerance used when comparing energy ratios and objectives.
_RATIO_TOLERANCE = 1e-9


@dataclass(frozen=True)
class OffloadSolution:
    """Result of the carrier-offload optimization.

    Attributes:
        points: candidate operating points, in input order.
        fractions: bit fraction assigned to each point (sums to 1).
        proportional: True when exact power-proportionality was achievable;
            False when the solver clamped to an extreme mode.
        energy_ratio: the E1/E2 target the solver was asked for.
    """

    points: tuple[ModePower, ...]
    fractions: tuple[float, ...]
    proportional: bool
    energy_ratio: float

    def __post_init__(self) -> None:
        if len(self.points) != len(self.fractions):
            raise ValueError("points and fractions must align")
        if any(f < -1e-12 for f in self.fractions):
            raise ValueError(f"negative fraction in {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-6:
            raise ValueError(f"fractions must sum to 1: {self.fractions}")

    @property
    def tx_energy_per_bit_j(self) -> float:
        """Average transmitter joules per bit under this mix."""
        return sum(f * p.tx_energy_per_bit_j for f, p in zip(self.fractions, self.points))

    @property
    def rx_energy_per_bit_j(self) -> float:
        """Average receiver joules per bit under this mix."""
        return sum(f * p.rx_energy_per_bit_j for f, p in zip(self.fractions, self.points))

    @property
    def total_energy_per_bit_j(self) -> float:
        """Eq 1 objective value."""
        return self.tx_energy_per_bit_j + self.rx_energy_per_bit_j

    def total_bits(self, e1_j: float, e2_j: float) -> float:
        """Bits deliverable before either battery dies under this mix."""
        if e1_j <= 0.0 or e2_j <= 0.0:
            return 0.0
        tx_per_bit = self.tx_energy_per_bit_j
        rx_per_bit = self.rx_energy_per_bit_j
        return min(e1_j / tx_per_bit, e2_j / rx_per_bit)

    def mode_fractions(self) -> Mapping[LinkMode, float]:
        """Bit fractions aggregated by mode."""
        out: dict[LinkMode, float] = {}
        for f, p in zip(self.fractions, self.points):
            out[p.mode] = out.get(p.mode, 0.0) + f
        return out

    def mean_bitrate_bps(self) -> float:
        """Delivered bits per second of air time under this mix."""
        time_per_bit = sum(
            f / p.bitrate_bps for f, p in zip(self.fractions, self.points)
        )
        return 1.0 / time_per_bit


class InfeasibleOffloadError(ValueError):
    """Raised when no operating points are supplied."""


def _ratio_of(point: ModePower) -> float:
    return point.tx_energy_per_bit_j / point.rx_energy_per_bit_j


def solve_offload(
    points: Sequence[ModePower], e1_j: float, e2_j: float
) -> OffloadSolution:
    """Solve Eq 1 for the given candidate points and end-point energies.

    Args:
        points: candidate operating points (already pruned for link
            availability by the caller).
        e1_j: energy available at the data transmitter (joules).
        e2_j: energy available at the data receiver (joules).

    Returns:
        The optimal :class:`OffloadSolution`.

    Raises:
        InfeasibleOffloadError: if ``points`` is empty.
        ValueError: if either energy is not positive.
    """
    if not points:
        raise InfeasibleOffloadError("no operating points available")
    if e1_j <= 0.0 or e2_j <= 0.0:
        raise ValueError("both end points need positive energy")

    pts = tuple(points)
    rho = e1_j / e2_j
    ratios = [_ratio_of(p) for p in pts]

    if rho < min(ratios) - _RATIO_TOLERANCE:
        # The transmitter is poorer than even the most TX-favourable mode
        # can accommodate: the TX battery is the bottleneck; run the mode
        # with the cheapest TX cost (ties broken by total energy).
        best = min(
            range(len(pts)),
            key=lambda i: (
                pts[i].tx_energy_per_bit_j,
                pts[i].tx_energy_per_bit_j + pts[i].rx_energy_per_bit_j,
            ),
        )
        return _pure_solution(pts, best, proportional=False, energy_ratio=rho)

    if rho > max(ratios) + _RATIO_TOLERANCE:
        # The receiver is the bottleneck; run the mode with the cheapest RX
        # cost.
        best = min(
            range(len(pts)),
            key=lambda i: (
                pts[i].rx_energy_per_bit_j,
                pts[i].tx_energy_per_bit_j + pts[i].rx_energy_per_bit_j,
            ),
        )
        return _pure_solution(pts, best, proportional=False, energy_ratio=rho)

    # Proportionality is achievable.  g_i = T_i - rho * R_i; the constraint
    # is sum p_i g_i = 0.  Basic solutions of the 2-equality LP have at
    # most two non-zero fractions: enumerate singletons and pairs.
    g = [p.tx_energy_per_bit_j - rho * p.rx_energy_per_bit_j for p in pts]
    cost = [p.tx_energy_per_bit_j + p.rx_energy_per_bit_j for p in pts]
    scale = max(abs(v) for v in g) or 1.0

    best_fracs: list[float] | None = None
    best_cost = math.inf

    for i in range(len(pts)):
        if abs(g[i]) / scale <= _RATIO_TOLERANCE:
            if cost[i] < best_cost:
                best_cost = cost[i]
                best_fracs = [1.0 if k == i else 0.0 for k in range(len(pts))]

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            denominator = g[j] - g[i]
            if abs(denominator) / scale <= _RATIO_TOLERANCE:
                continue
            p_i = g[j] / denominator
            if not -1e-12 <= p_i <= 1.0 + 1e-12:
                continue
            p_i = min(max(p_i, 0.0), 1.0)
            p_j = 1.0 - p_i
            pair_cost = p_i * cost[i] + p_j * cost[j]
            if pair_cost < best_cost - _RATIO_TOLERANCE * max(cost):
                best_cost = pair_cost
                best_fracs = [0.0] * len(pts)
                best_fracs[i] = p_i
                best_fracs[j] = p_j

    if best_fracs is None:
        # Should be unreachable when rho is inside the span; guard anyway.
        raise InfeasibleOffloadError(
            f"no feasible mixture for ratio {rho!r} over {len(pts)} points"
        )

    return OffloadSolution(
        points=pts,
        fractions=tuple(best_fracs),
        proportional=True,
        energy_ratio=rho,
    )


def _pure_solution(
    pts: tuple[ModePower, ...], index: int, proportional: bool, energy_ratio: float
) -> OffloadSolution:
    fractions = [0.0] * len(pts)
    fractions[index] = 1.0
    return OffloadSolution(
        points=pts,
        fractions=tuple(fractions),
        proportional=proportional,
        energy_ratio=energy_ratio,
    )


def verify_with_linprog(
    points: Sequence[ModePower], e1_j: float, e2_j: float
) -> OffloadSolution | None:
    """Solve the same LP with :func:`scipy.optimize.linprog` (HiGHS).

    Returns ``None`` when the LP is infeasible (ratio outside the span);
    used by tests to cross-validate the analytic solver.
    """
    from scipy.optimize import linprog

    if not points:
        raise InfeasibleOffloadError("no operating points available")
    rho = e1_j / e2_j
    costs = [p.tx_energy_per_bit_j + p.rx_energy_per_bit_j for p in points]
    g = [p.tx_energy_per_bit_j - rho * p.rx_energy_per_bit_j for p in points]
    scale = max(abs(v) for v in g) or 1.0
    result = linprog(
        c=costs,
        A_eq=[[1.0] * len(points), [v / scale for v in g]],
        b_eq=[1.0, 0.0],
        bounds=[(0.0, 1.0)] * len(points),
        method="highs",
    )
    if not result.success:
        return None
    fractions = [max(float(x), 0.0) for x in result.x]
    total = sum(fractions)
    fractions = [f / total for f in fractions]
    return OffloadSolution(
        points=tuple(points),
        fractions=tuple(fractions),
        proportional=True,
        energy_ratio=rho,
    )


def solve_max_bits(
    points: Sequence[ModePower], e1_j: float, e2_j: float
) -> OffloadSolution:
    """Maximize deliverable bits with *soft* proportionality.

    Eq 1 enforces exact power-proportionality; for Braidio's mode geometry
    its optimum coincides with the bit-maximizing mixture, but on
    arbitrary operating-point sets a pure cheap mode that strands energy
    on one side can beat every proportional mix.  This solver drops the
    equality constraint:

        maximize  sum_i w_i   s.t.  sum w_i T_i <= E1,  sum w_i R_i <= E2

    enumerating LP vertices (pairs with both budgets tight, singletons
    with one tight).  Returned fractions are bit shares of the optimum.

    Raises:
        InfeasibleOffloadError: if ``points`` is empty.
        ValueError: if either energy is not positive.
    """
    if not points:
        raise InfeasibleOffloadError("no operating points available")
    if e1_j <= 0.0 or e2_j <= 0.0:
        raise ValueError("both end points need positive energy")

    pts = tuple(points)
    best_bits = -1.0
    best_weights: list[float] | None = None
    best_tight_both = False

    for i, p in enumerate(pts):
        bits = min(e1_j / p.tx_energy_per_bit_j, e2_j / p.rx_energy_per_bit_j)
        if bits > best_bits:
            best_bits = bits
            best_weights = [bits if k == i else 0.0 for k in range(len(pts))]
            best_tight_both = abs(
                e1_j / p.tx_energy_per_bit_j - e2_j / p.rx_energy_per_bit_j
            ) <= 1e-9 * bits

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            t_i, r_i = pts[i].tx_energy_per_bit_j, pts[i].rx_energy_per_bit_j
            t_j, r_j = pts[j].tx_energy_per_bit_j, pts[j].rx_energy_per_bit_j
            det = t_i * r_j - t_j * r_i
            if abs(det) <= 1e-30:
                continue
            w_i = (e1_j * r_j - e2_j * t_j) / det
            w_j = (e2_j * t_i - e1_j * r_i) / det
            if w_i < 0.0 or w_j < 0.0:
                continue
            bits = w_i + w_j
            if bits > best_bits:
                best_bits = bits
                best_weights = [0.0] * len(pts)
                best_weights[i] = w_i
                best_weights[j] = w_j
                best_tight_both = True

    assert best_weights is not None  # at least one singleton always exists
    total = sum(best_weights)
    fractions = tuple(w / total for w in best_weights)
    return OffloadSolution(
        points=pts,
        fractions=fractions,
        proportional=best_tight_both,
        energy_ratio=e1_j / e2_j,
    )


def best_single_mode(
    points: Sequence[ModePower], e1_j: float, e2_j: float
) -> tuple[ModePower, float]:
    """The single operating point that maximizes deliverable bits (the
    Fig 16 baseline: "the best of the three modes in isolation").

    Returns:
        (point, bits) of the best pure mode.

    Raises:
        InfeasibleOffloadError: if ``points`` is empty.
    """
    if not points:
        raise InfeasibleOffloadError("no operating points available")

    def bits(p: ModePower) -> float:
        if e1_j <= 0.0 or e2_j <= 0.0:
            return 0.0
        return min(e1_j / p.tx_energy_per_bit_j, e2_j / p.rx_energy_per_bit_j)

    best = max(points, key=bits)
    return best, bits(best)
