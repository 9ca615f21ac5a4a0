"""TDMA air-time sharing for a hub serving multiple Braidio clients.

A single hub (phone/laptop) owns one radio, so concurrent clients share
air time in slots.  Slots are weighted: a camera streaming at 30 fps gets
more slots than a heartbeat sensor.  The schedule is periodic and
deterministic, like the mode schedule, and composes with it — within its
slot a client pair runs its own mode mix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class Slot:
    """One TDMA slot: a client identifier and a dwell in packets."""

    client: str
    packets: int

    def __post_init__(self) -> None:
        if self.packets <= 0:
            raise ValueError("slots must cover at least one packet")


class TdmaSchedule:
    """Weighted round-robin slot schedule.

    A schedule keeps each client's packets per round and their running
    totals, so :meth:`client_for_packet` is one bisect; :class:`Slot`
    objects are built only when :attr:`slots` is read.

    Args:
        weights: client -> relative air-time share (positive, finite;
            each client once).
        round_packets: packets per TDMA round.

    Raises:
        ValueError: on empty, duplicate, non-positive or non-finite
            weights (naming the client), or a round too short to give
            every client a slot.
    """

    def __init__(
        self,
        weights: Mapping[str, float] | Sequence[tuple[str, float]],
        round_packets: int = 128,
    ) -> None:
        # A mapping cannot list a client twice; a sequence of pairs can.
        if isinstance(weights, Mapping):
            self._weights = dict(weights)
            items = self._weights.items()
        else:
            items = list(weights)
            self._weights = dict(items)
        if not items:
            raise ValueError("at least one client required")
        values = np.fromiter(self._weights.values(), dtype=float, count=len(self._weights))
        if (
            len(self._weights) < len(items)
            or not values.min() > 0.0
            or not values.max() < math.inf
        ):
            _reject_weights(items)
        if round_packets < len(items):
            raise ValueError("round too short to serve every client")
        self._round = round_packets
        self._names = list(self._weights)
        # The total is summed left to right, as Python's sum does (numpy's
        # pairwise sum can round differently).
        self._counts = self._apportion(values, sum(self._weights.values()))
        # Round position p falls in the first slot whose end exceeds p.
        self._ends = list(accumulate(self._counts))

    def _apportion(self, weights: np.ndarray, total: float) -> list[int]:
        # Largest-remainder with a guaranteed slot per client: unlike mode
        # fractions, starving a client entirely is a fairness failure, so
        # every client gets at least one packet per round.  Ties go to the
        # earlier client, both when trimming the richest (argmax returns
        # the first maximum) and when handing out the leftover packets (a
        # stable sort of the negated remainders).  Each quota is the
        # float expression w / total * round, element by element.
        # Trimming only takes from counts above one (the round holds at
        # least one packet per client), so no slot ends up empty.
        quotas = weights / total * self._round
        counts = np.maximum(quotas.astype(np.int64), 1)
        excess = int(counts.sum()) - self._round
        for _ in range(excess):
            counts[counts.argmax()] -= 1
        if excess < 0:
            ranked = np.argsort(counts - quotas, kind="stable")
            counts[ranked[:-excess]] += 1
        return counts.tolist()

    @property
    def round_packets(self) -> int:
        """Packets per TDMA round."""
        return self._round

    @property
    def weights(self) -> dict[str, float]:
        """The raw (un-normalized) weights the schedule was built from."""
        return dict(self._weights)

    def without(self, names: Iterable[str]) -> "TdmaSchedule":
        """A new schedule with ``names`` removed and their air time
        redistributed to the survivors by weight (same round length) —
        how a hub reclaims the slots of clients that are suspended,
        retired or released.

        Raises:
            ValueError: if nothing would remain.
        """
        dropped = set(names)
        remaining = {c: w for c, w in self._weights.items() if c not in dropped}
        if not remaining:
            raise ValueError("cannot drop every client from the schedule")
        return TdmaSchedule(remaining, self._round)

    def with_client(self, name: str, weight: float) -> "TdmaSchedule":
        """A new schedule admitting ``name`` at ``weight``, the existing
        clients' air time shrinking proportionally (same round length) —
        how a hub grants slots to a device it adopts from a blacked-out
        neighbor during hub-to-hub handoff.

        Raises:
            ValueError: for duplicate names or non-positive or non-finite
                weights.
        """
        if name in self._weights:
            raise ValueError(f"client {name!r} is already scheduled")
        merged = dict(self._weights)
        merged[name] = weight
        return TdmaSchedule(merged, max(self._round, len(merged)))

    @property
    def slots(self) -> tuple[Slot, ...]:
        """Per-round slots."""
        return tuple(Slot(c, n) for c, n in zip(self._names, self._counts))

    def air_time_shares(self) -> dict[str, float]:
        """Realized per-round share per client."""
        return {c: n / self._round for c, n in zip(self._names, self._counts)}

    def client_for_packet(self, index: int) -> str:
        """Client served by the ``index``-th packet.

        Raises:
            ValueError: for negative indices.
        """
        if index < 0:
            raise ValueError("packet index must be non-negative")
        return self._names[bisect_right(self._ends, index % self._round)]

    def packet_clients(self) -> Iterator[str]:
        """Infinite per-packet client iterator."""
        while True:
            for client, count in zip(self._names, self._counts):
                for _ in range(count):
                    yield client


def _reject_weights(items: Iterable[tuple[str, float]]) -> None:
    """Raise the error naming the first duplicate, non-positive or
    non-finite entry of ``items``."""
    seen: set[str] = set()
    for client, weight in items:
        if client in seen:
            raise ValueError(f"client {client!r} is listed more than once")
        seen.add(client)
        if not math.isfinite(weight):
            raise ValueError(f"client {client!r} weight must be finite, got {weight!r}")
        if weight <= 0.0:
            raise ValueError(f"client {client!r} weight must be positive, got {weight!r}")


def assign_reuse_channels(
    n_nodes: int,
    adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    n_channels: int,
) -> tuple[int, ...]:
    """Frequency/slot reuse for co-located hubs: greedy graph coloring.

    Nodes are hubs; an edge means the two hubs interfere.  Each node gets
    the smallest channel index unused by its already-colored neighbors.
    When every channel is taken, the node shares the channel *least used*
    among its neighbors (ties break toward the lowest index) — those
    residual co-channel edges are the interference the region simulator
    must model; orthogonal-channel neighbors do not interfere.

    Deterministic: nodes are colored in index order, so the same graph
    always yields the same plan.

    Raises:
        ValueError: on non-positive node/channel counts or out-of-range
            neighbor indices.
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    if n_channels <= 0:
        raise ValueError("need at least one channel")
    neighbor_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    items = (
        adjacency.items()
        if isinstance(adjacency, Mapping)
        else enumerate(adjacency)
    )
    for node, neighbors in items:
        for other in neighbors:
            if not 0 <= node < n_nodes or not 0 <= other < n_nodes:
                raise ValueError(
                    f"edge ({node}, {other}) out of range for {n_nodes} nodes"
                )
            if other == node:
                continue
            neighbor_sets[node].add(other)
            neighbor_sets[other].add(node)
    channels: list[int] = [-1] * n_nodes
    for node in range(n_nodes):
        used = {channels[n] for n in neighbor_sets[node] if channels[n] >= 0}
        free = [c for c in range(n_channels) if c not in used]
        if free:
            channels[node] = free[0]
        else:
            counts = [0] * n_channels
            for neighbor in neighbor_sets[node]:
                if channels[neighbor] >= 0:
                    counts[channels[neighbor]] += 1
            channels[node] = counts.index(min(counts))
    return tuple(channels)


def co_channel_edges(
    adjacency: Mapping[int, Iterable[int]] | Sequence[Iterable[int]],
    channels: Sequence[int],
) -> frozenset[tuple[int, int]]:
    """Interference edges that survive channel reuse (both ends on the
    same channel), as (low, high) index pairs."""
    edges: set[tuple[int, int]] = set()
    items = (
        adjacency.items()
        if isinstance(adjacency, Mapping)
        else enumerate(adjacency)
    )
    for node, neighbors in items:
        for other in neighbors:
            if other != node and channels[node] == channels[other]:
                edges.add((min(node, other), max(node, other)))
    return frozenset(edges)
