"""Spatial partitioning: carve a deployment into independent regions.

Hubs couple through RF: two hubs whose pairwise path loss
(:func:`~repro.phy.propagation.log_distance_path_loss_db`) is below the
scenario's ``coupling_threshold_db`` can hear each other's bursts, so
their sessions must be co-simulated.  Thresholding every pair yields an
*interference graph*; its connected components are regions that share no
RF path and therefore simulate as fully independent jobs — the lever
that lets a 10k-device city fan out across worker processes.

Within a region, hubs get TDMA reuse channels by greedy graph coloring
(:func:`~repro.net.tdma.assign_reuse_channels`); only edges that survive
co-channel (:func:`~repro.net.tdma.co_channel_edges`) inject actual
interference into the region's simulation.

Everything here is a pure function of the spec: poisson layouts draw
from the scenario's content-addressed ``"layout"`` stream, so the same
fingerprint always yields the same positions, the same graph and the
same regions — regardless of worker count or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..net.tdma import assign_reuse_channels, co_channel_edges
from ..phy.propagation import log_distance_path_loss_db
from .spec import DeploymentSpec

#: Centimetre quantum applied to all geometry-derived distances so the
#: link-budget availability caches see a bounded key set.
DISTANCE_QUANTUM_M = 0.01


def quantize_distance(distance_m: float) -> float:
    """Snap a distance to the centimetre grid (minimum one quantum)."""
    return max(round(distance_m / DISTANCE_QUANTUM_M) * DISTANCE_QUANTUM_M,
               DISTANCE_QUANTUM_M)


def hub_positions(spec: DeploymentSpec) -> "tuple[tuple[float, float], ...]":
    """Place the scenario's hubs, deterministically.

    Grid layouts fill a near-square lattice row-major at ``spacing_m``
    pitch; poisson layouts draw uniform points over ``area_m`` from the
    scenario's ``"layout"`` stream; manual layouts pass through.
    """
    layout = spec.hubs
    if layout.strategy == "manual":
        return layout.positions_m
    if layout.strategy == "grid":
        cols = max(1, math.ceil(math.sqrt(layout.count)))
        return tuple(
            (
                (index % cols) * layout.spacing_m,
                (index // cols) * layout.spacing_m,
            )
            for index in range(layout.count)
        )
    # poisson: a fixed-count binomial point process over the area.
    rng = spec.stream("layout")
    width, height = layout.area_m
    xs = rng.uniform(0.0, width, size=layout.count)
    ys = rng.uniform(0.0, height, size=layout.count)
    return tuple((float(x), float(y)) for x, y in zip(xs, ys))


def coupling_db(
    positions: "tuple[tuple[float, float], ...]",
    index_a: int,
    index_b: int,
    path_loss_exponent: float,
) -> float:
    """Pairwise hub-to-hub path loss in dB (larger = better isolated)."""
    (xa, ya), (xb, yb) = positions[index_a], positions[index_b]
    separation = quantize_distance(math.hypot(xb - xa, yb - ya))
    return log_distance_path_loss_db(
        separation, path_loss_exponent=path_loss_exponent
    )


def interference_edges(
    positions: "tuple[tuple[float, float], ...]",
    threshold_db: float,
    path_loss_exponent: float,
) -> "frozenset[tuple[int, int]]":
    """Hub pairs whose path loss is under the coupling threshold."""
    edges = set()
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if coupling_db(positions, a, b, path_loss_exponent) < threshold_db:
                edges.add((a, b))
    return frozenset(edges)


def connected_components(
    n_nodes: int, edges: "frozenset[tuple[int, int]]"
) -> "tuple[tuple[int, ...], ...]":
    """Connected components of the interference graph, each sorted,
    ordered by smallest member (stable under edge iteration order)."""
    parent = list(range(n_nodes))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[max(root_a, root_b)] = min(root_a, root_b)

    members: "dict[int, list[int]]" = {}
    for node in range(n_nodes):
        members.setdefault(find(node), []).append(node)
    return tuple(
        tuple(sorted(group)) for _, group in sorted(members.items())
    )


@dataclass(frozen=True)
class Region:
    """One independently simulable slice of the deployment.

    Attributes:
        index: region ordinal within the partition.
        hub_indices: global hub indices in this region (sorted).
        positions_m: those hubs' (x, y) positions.
        channels: reuse channel per hub (parallel to ``hub_indices``).
        co_channel: *local* hub-index pairs (positions within this
            region) that share a channel and still interfere.
    """

    index: int
    hub_indices: "tuple[int, ...]"
    positions_m: "tuple[tuple[float, float], ...]"
    channels: "tuple[int, ...]"
    co_channel: "frozenset[tuple[int, int]]"

    @property
    def hub_count(self) -> int:
        """Hubs in this region."""
        return len(self.hub_indices)

    def neighbor_distances_m(self, local_index: int) -> "tuple[float, ...]":
        """Distances to this hub's co-channel neighbors (metres)."""
        distances = []
        x0, y0 = self.positions_m[local_index]
        for a, b in sorted(self.co_channel):
            if local_index not in (a, b):
                continue
            other = b if a == local_index else a
            x1, y1 = self.positions_m[other]
            distances.append(quantize_distance(math.hypot(x1 - x0, y1 - y0)))
        return tuple(distances)


@dataclass(frozen=True)
class DeploymentPartition:
    """A deployment resolved into geometry, channels and regions.

    Attributes:
        positions_m: all hub positions (global index order).
        edges: interference graph edges over global hub indices.
        channels: reuse channel per hub (global index order).
        regions: the independent regions.
    """

    positions_m: "tuple[tuple[float, float], ...]"
    edges: "frozenset[tuple[int, int]]"
    channels: "tuple[int, ...]"
    regions: "tuple[Region, ...]"

    @property
    def hub_count(self) -> int:
        """Total hubs across all regions."""
        return len(self.positions_m)

    @property
    def residual_edges(self) -> "frozenset[tuple[int, int]]":
        """Interference edges that survive channel reuse (global ids)."""
        return co_channel_edges(
            {a: [b for (x, b) in _directed(self.edges) if x == a]
             for a in range(self.hub_count)},
            self.channels,
        )


def _directed(edges: "frozenset[tuple[int, int]]") -> "list[tuple[int, int]]":
    out = []
    for a, b in edges:
        out.append((a, b))
        out.append((b, a))
    return out


def partition(spec: DeploymentSpec) -> DeploymentPartition:
    """Resolve a scenario into regions ready to fan out.

    Hub positions, the interference graph, the channel coloring and the
    component split are all pure functions of the spec, so the region
    list — and therefore the job fan-out — is identical on every run of
    the same fingerprint.
    """
    positions = hub_positions(spec)
    edges = interference_edges(
        positions, spec.coupling_threshold_db, spec.path_loss_exponent
    )
    adjacency: "dict[int, list[int]]" = {i: [] for i in range(len(positions))}
    for a, b in sorted(edges):
        adjacency[a].append(b)
        adjacency[b].append(a)
    channels = assign_reuse_channels(len(positions), adjacency, spec.n_channels)
    residual = co_channel_edges(adjacency, channels)
    components = connected_components(len(positions), edges)
    regions = []
    for index, hub_indices in enumerate(components):
        local = {global_i: local_i for local_i, global_i in enumerate(hub_indices)}
        member_set = set(hub_indices)
        region_co_channel = frozenset(
            (local[a], local[b])
            for a, b in residual
            if a in member_set and b in member_set
        )
        regions.append(
            Region(
                index=index,
                hub_indices=hub_indices,
                positions_m=tuple(positions[i] for i in hub_indices),
                channels=tuple(channels[i] for i in hub_indices),
                co_channel=region_co_channel,
            )
        )
    return DeploymentPartition(
        positions_m=positions,
        edges=edges,
        channels=channels,
        regions=tuple(regions),
    )
