"""Mode-multiplexing schedule.

Once the offload optimization yields bit fractions p_i, the link layer
"simply switches between the modes after a certain number of packets to
achieve that proportion" (§4.2; e.g. p = [0.5, 0.25, 0.25] produces
Active-Active-Passive-Backscatter repeated).  The scheduler turns fractions
into a deterministic packet-by-packet sequence with two goals:

* the realized shares converge to the requested fractions *exactly* in the
  long run — per-round counts come from cumulative quotas
  (``floor(f * period * (r+1)) - floor(f * period * r)``), so a 0.1% mode
  is simply skipped most rounds instead of being inflated to one packet
  every round (which would distort extreme power-proportional mixes); and
* mode switches are as infrequent as the fractions allow (switches cost
  energy, Table 5), achieved by contiguous per-round dwell blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..modes import LinkMode


@dataclass(frozen=True)
class ScheduleEntry:
    """One slot of a scheduling round: a mode and how many consecutive
    packets to spend in it."""

    mode: LinkMode
    packets: int

    def __post_init__(self) -> None:
        if self.packets <= 0:
            raise ValueError("schedule entries must cover at least one packet")


class ModeSchedule:
    """A deterministic packet schedule realizing target mode fractions.

    Args:
        fractions: mapping of mode -> target share (need not be normalized;
            zero-share modes are dropped).
        period_packets: packets per scheduling round.  Larger rounds track
            fractions more precisely within a single round and switch less
            often; across rounds the cumulative-quota accounting converges
            to the targets regardless.

    Raises:
        ValueError: if any share is negative, no mode has positive share,
            or the period is not positive.
    """

    def __init__(
        self,
        fractions: dict[LinkMode, float] | Sequence[tuple[LinkMode, float]],
        period_packets: int = 64,
    ) -> None:
        items = list(fractions.items()) if isinstance(fractions, dict) else list(fractions)
        if any(share < 0.0 for _, share in items):
            raise ValueError("shares must be non-negative")
        items = [(mode, share) for mode, share in items if share > 1e-12]
        if not items:
            raise ValueError("at least one mode must have a positive share")
        if period_packets <= 0:
            raise ValueError("period must be positive")

        total = sum(share for _, share in items)
        # Stable mode order: largest share first so dominant-mode dwells
        # open each round and small shares append at the end.
        items.sort(key=lambda kv: -kv[1])
        self._modes = tuple(mode for mode, _ in items)
        self._fractions = {mode: share / total for mode, share in items}
        self._period = period_packets
        # mode_for_packet walks packets sequentially, re-deriving the same
        # round's apportionment `period` times in a row — memoize the last
        # round computed (the counts are a pure function of the index).
        self._last_round: tuple[int, list[tuple[LinkMode, int]]] | None = None
        # round_modes' tuples, keyed by a round's (mode, count) row.
        self._round_modes: dict[tuple, tuple[LinkMode, ...]] = {}

    @property
    def period_packets(self) -> int:
        """Packets per scheduling round."""
        return self._period

    @property
    def target_fractions(self) -> dict[LinkMode, float]:
        """Normalized target shares."""
        return dict(self._fractions)

    def _counts_for_round(self, round_index: int) -> list[tuple[LinkMode, int]]:
        """Per-mode packet counts in round ``round_index``.

        Cumulative-quota apportionment: every mode's count is the growth of
        ``floor(cumulative quota)`` over the round, and one mode absorbs
        the slack so the round always sums to the period.
        """
        cached = self._last_round
        if cached is not None and cached[0] == round_index:
            return cached[1]
        counts: list[tuple[LinkMode, int]] = []
        allocated = 0
        start = round_index * self._period
        end = start + self._period
        for mode in self._modes[1:]:
            share = self._fractions[mode]
            count = math.floor(share * end) - math.floor(share * start)
            counts.append((mode, count))
            allocated += count
        # The dominant mode takes whatever remains (its own quota plus
        # rounding slack), keeping each round exactly `period` packets.
        counts.insert(0, (self._modes[0], self._period - allocated))
        self._last_round = (round_index, counts)
        return counts

    def entries_for_round(self, round_index: int) -> tuple[ScheduleEntry, ...]:
        """Dwell blocks of round ``round_index`` (zero-count modes omitted).

        Raises:
            ValueError: for negative round indices.
        """
        if round_index < 0:
            raise ValueError("round index must be non-negative")
        return tuple(
            ScheduleEntry(mode, count)
            for mode, count in self._counts_for_round(round_index)
            if count > 0
        )

    @property
    def entries(self) -> tuple[ScheduleEntry, ...]:
        """Dwell blocks of the first round."""
        return self.entries_for_round(0)

    @property
    def switches_per_period(self) -> int:
        """Mode switches per round in steady state (block boundaries,
        including the wrap into the next round), for the first round."""
        modes = [e.mode for e in self.entries]
        if len(modes) <= 1:
            return 0
        switches = sum(1 for a, b in zip(modes, modes[1:]) if a is not b)
        if modes[-1] is not modes[0]:
            switches += 1
        return switches

    def realized_fractions(self, rounds: int = 1) -> dict[LinkMode, float]:
        """Realized shares over the first ``rounds`` rounds.

        Converges to :attr:`target_fractions` as ``rounds`` grows; within
        one round each share is accurate to ~1/period.

        Raises:
            ValueError: for non-positive round counts.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        totals: dict[LinkMode, int] = {}
        for r in range(rounds):
            for mode, count in self._counts_for_round(r):
                if count > 0:
                    totals[mode] = totals.get(mode, 0) + count
        span = rounds * self._period
        return {mode: count / span for mode, count in totals.items()}

    def packet_modes(self) -> Iterator[LinkMode]:
        """Infinite iterator over per-packet modes."""
        round_index = 0
        while True:
            for entry in self.entries_for_round(round_index):
                for _ in range(entry.packets):
                    yield entry.mode
            round_index += 1

    def round_modes(self, round_index: int) -> tuple[LinkMode, ...]:
        """The mode of every packet of round ``round_index``, in order:
        entry ``p`` is ``mode_for_packet(round_index * period + p)``.

        Rounds with the same per-mode counts share one tuple (a schedule
        has at most ``2 ** (len(modes) - 1)`` distinct count rows).

        Raises:
            ValueError: for negative round indices.
        """
        if round_index < 0:
            raise ValueError("round index must be non-negative")
        counts = tuple(self._counts_for_round(round_index))
        modes = self._round_modes.get(counts)
        if modes is None:
            modes = tuple(mode for mode, count in counts for _ in range(count))
            self._round_modes[counts] = modes
        return modes

    def mode_for_packet(self, index: int) -> LinkMode:
        """Mode used for the ``index``-th packet (0-based).

        Raises:
            ValueError: for negative indices.
        """
        if index < 0:
            raise ValueError("packet index must be non-negative")
        round_index, position = divmod(index, self._period)
        for mode, count in self._counts_for_round(round_index):
            if position < count:
                return mode
            position -= count
        raise AssertionError("unreachable: round accounting is exhaustive")
