"""A hub serving multiple Braidio clients (extension).

The paper evaluates pairs; real deployments look like one phone/laptop hub
with a fleet of wearables uploading to it.  The hub's battery is *shared*
across clients, which couples their carrier-offload problems: every bit a
tag backscatters costs the hub reader-side energy.

The fleet optimization generalizes Eq 1 to one LP:

    maximize   sum_i sum_j w_ij                 (total uplink bits)
    subject to sum_j w_ij * T_j  <=  E_i        (each client's battery)
               sum_i sum_j w_ij * R_j <= E_hub  (the shared hub battery)
               w_ij >= 0

where w_ij is the number of client-i bits carried by operating point j,
and (T_j, R_j) are the per-bit costs of the points available at client i's
distance.  Weighted max-min fairness is available as an alternative
objective (maximize the minimum weighted per-client bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.modes import LinkMode
from ..core.regimes import LinkMap
from ..hardware.battery import JOULES_PER_WATT_HOUR
from ..hardware.devices import DeviceSpec, device
from ..hardware.power_models import ModePower


@dataclass(frozen=True)
class ClientPlacement:
    """One client of the hub: a device at a distance.

    Attributes:
        name: unique client identifier (device names work).
        spec: the client's device spec.
        distance_m: separation from the hub.
        weight: fairness weight for the max-min objective.
    """

    name: str
    spec: DeviceSpec
    distance_m: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client name must be non-empty")
        if self.distance_m <= 0.0:
            raise ValueError(
                f"client {self.name!r} needs a positive distance, got "
                f"{self.distance_m!r} (a zero separation would degenerate "
                "the fleet LP's per-bit cost constraints)"
            )
        if self.weight <= 0.0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class ClientAllocation:
    """Optimizer output for one client.

    Attributes:
        name: client identifier.
        bits: uplink bits allocated before the binding battery dies.
        mode_fractions: mode shares of those bits.
        client_energy_j / hub_energy_j: energy consumed at each side.
    """

    name: str
    bits: float
    mode_fractions: dict[LinkMode, float]
    client_energy_j: float
    hub_energy_j: float


@dataclass(frozen=True)
class HubPlan:
    """Fleet-wide allocation.

    Attributes:
        allocations: per-client results.
        total_bits: fleet uplink total.
        hub_energy_used_j: hub energy consumed across all clients.
        objective: "total" or "maxmin".
    """

    allocations: tuple[ClientAllocation, ...]
    total_bits: float
    hub_energy_used_j: float
    objective: str

    def allocation(self, name: str) -> ClientAllocation:
        """Look up one client's allocation.

        Raises:
            KeyError: for unknown client names.
        """
        for entry in self.allocations:
            if entry.name == name:
                return entry
        raise KeyError(f"unknown client {name!r}")


class HubNetwork:
    """A hub with a shared battery serving several uplink clients.

    Args:
        hub_device: the hub's device name (Fig 1 catalog).
        clients: client placements.
        link_map: availability map (paper calibration by default).
    """

    def __init__(
        self,
        hub_device: str,
        clients: Sequence[ClientPlacement],
        link_map: LinkMap | None = None,
    ) -> None:
        if not clients:
            raise ValueError("at least one client required")
        names = [c.name for c in clients]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate client ids {duplicates}: each client needs its "
                "own battery constraint row in the fleet LP"
            )
        self._hub = device(hub_device)
        self._clients = tuple(clients)
        self._link_map = link_map if link_map is not None else LinkMap()

    @property
    def hub(self) -> DeviceSpec:
        """The hub device."""
        return self._hub

    @property
    def clients(self) -> tuple[ClientPlacement, ...]:
        """The client placements."""
        return self._clients

    def _candidate_points(self) -> list[list[ModePower]]:
        points = []
        for client in self._clients:
            available = self._link_map.available_powers(client.distance_m)
            if not available:
                raise ValueError(
                    f"client {client.name!r} out of range at {client.distance_m} m"
                )
            points.append(available)
        return points

    def plan(self, objective: str = "total") -> HubPlan:
        """Solve the fleet allocation on every device's fresh nameplate
        battery.

        Args:
            objective: "total" (maximize fleet bits) or "maxmin"
                (maximize the minimum weight-normalized per-client bits).

        Raises:
            ValueError: on unknown objectives or out-of-range clients.
        """
        if objective not in ("total", "maxmin"):
            raise ValueError(f"unknown objective {objective!r}")
        clients = self._clients
        points = self._candidate_points()
        energies = [c.spec.battery_wh * JOULES_PER_WATT_HOUR for c in clients]
        hub_energy = self._hub.battery_wh * JOULES_PER_WATT_HOUR
        if objective == "total":
            return self._solve_total(clients, points, energies, hub_energy)
        return self._solve_maxmin(clients, points, energies, hub_energy)

    def _solve_total(self, clients, points, energies, hub_energy) -> HubPlan:
        from scipy.optimize import linprog

        offsets, t_cost, r_cost = _flatten_costs(points)
        n_vars = len(t_cost)
        # Scale bits to units of "cheapest-mode battery lifetimes" so the
        # constraint matrix is well conditioned for HiGHS.
        bit_unit = min(energies + [hub_energy]) / max(min(t_cost), 1e-30)
        c = -np.ones(n_vars)
        a_ub, b_ub = _energy_constraints(
            points, offsets, t_cost, r_cost, energies, hub_energy
        )
        a_ub = a_ub * bit_unit
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, None)] * n_vars,
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"hub LP failed: {result.message}")
        solution = result.x * bit_unit
        return self._build_plan(
            clients, points, offsets, solution, t_cost, r_cost, "total"
        )

    def _solve_maxmin(self, clients, points, energies, hub_energy) -> HubPlan:
        from scipy.optimize import linprog

        offsets, t_cost, r_cost = _flatten_costs(points)
        n_vars = len(t_cost)
        weights = [c.weight for c in clients]
        bit_unit = min(energies + [hub_energy]) / max(min(t_cost), 1e-30)
        # Variables (in bit_unit): [w_11..w_nk, m]; maximize m subject to
        # the energy constraints and (per client) sum_j w_ij >= weight_i*m.
        c = np.zeros(n_vars + 1)
        c[-1] = -1.0
        a_ub, b_ub = _energy_constraints(
            points, offsets, t_cost, r_cost, energies, hub_energy
        )
        a_ub = np.hstack([a_ub * bit_unit, np.zeros((a_ub.shape[0], 1))])
        fairness_rows = []
        for i, (start, end) in enumerate(offsets):
            row = np.zeros(n_vars + 1)
            row[start:end] = -1.0
            row[-1] = weights[i]
            fairness_rows.append(row)
        a_ub = np.vstack([a_ub] + fairness_rows)
        b_ub = np.concatenate([b_ub, np.zeros(len(fairness_rows))])
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, None)] * (n_vars + 1),
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"hub max-min LP failed: {result.message}")
        solution = result.x[:n_vars] * bit_unit
        return self._build_plan(
            clients, points, offsets, solution, t_cost, r_cost, "maxmin"
        )

    def _build_plan(
        self, clients, points, offsets, solution, t_cost, r_cost, objective
    ) -> HubPlan:
        allocations = []
        hub_total = 0.0
        for i, client in enumerate(clients):
            start, end = offsets[i]
            bits_per_point = np.maximum(solution[start:end], 0.0)
            bits = float(np.sum(bits_per_point))
            fractions: dict[LinkMode, float] = {}
            if bits > 0.0:
                for j, point in enumerate(points[i]):
                    share = float(bits_per_point[j] / bits)
                    if share > 1e-12:
                        fractions[point.mode] = fractions.get(point.mode, 0.0) + share
            client_energy = float(
                np.dot(bits_per_point, t_cost[start:end])
            )
            hub_energy = float(np.dot(bits_per_point, r_cost[start:end]))
            hub_total += hub_energy
            allocations.append(
                ClientAllocation(
                    name=client.name,
                    bits=bits,
                    mode_fractions=fractions,
                    client_energy_j=client_energy,
                    hub_energy_j=hub_energy,
                )
            )
        return HubPlan(
            allocations=tuple(allocations),
            total_bits=float(sum(a.bits for a in allocations)),
            hub_energy_used_j=hub_total,
            objective=objective,
        )


def _flatten_costs(points):
    offsets = []
    t_cost: list[float] = []
    r_cost: list[float] = []
    cursor = 0
    for client_points in points:
        start = cursor
        for point in client_points:
            t_cost.append(point.tx_energy_per_bit_j)
            r_cost.append(point.rx_energy_per_bit_j)
            cursor += 1
        offsets.append((start, cursor))
    return offsets, t_cost, r_cost


def _energy_constraints(points, offsets, t_cost, r_cost, energies, hub_energy):
    n_vars = len(t_cost)
    rows = []
    bounds = []
    for i, (start, end) in enumerate(offsets):
        row = np.zeros(n_vars)
        row[start:end] = t_cost[start:end]
        rows.append(row)
        bounds.append(energies[i])
    hub_row = np.asarray(r_cost, dtype=float)
    rows.append(hub_row)
    bounds.append(hub_energy)
    return np.vstack(rows), np.asarray(bounds)
