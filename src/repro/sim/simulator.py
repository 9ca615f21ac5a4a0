"""Discrete-event simulator core.

Single-threaded, deterministic given a seed: a clock, an event calendar
and a random generator.  Sessions schedule packet events against it;
experiments run it until a stop condition.

One loop runs every event (:meth:`Simulator._advance`): it pops the
calendar's head while that head is ordered no later than a given
(time, sequence) bound and fires it.  A plain kernel's :meth:`run` is
that loop bounded by ``until_s``.

A kernel can also host *lanes* (:meth:`Simulator.lane`): child kernels
with their own calendar, clock and generator for work that touches only
its own state, such as one hub of a region.  The parent's :meth:`run`
advances every lane, through the same loop, over the events ordered
before the parent's own next event, then runs that event, so each lane's
self-rescheduling chains run inline up to the next event that may touch
several lanes.  Parent and lanes draw sequence numbers from one counter,
and a lane event never touches another lane's state, so every lane sees
its events, and every parent event sees every lane, exactly as one
calendar holding all of them would order them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .events import EventQueue

#: Lanes run ahead of the parent's calendar up to its next event, so a
#: lane event that adds one due before it would break the order one
#: calendar gives.
_LANE_TOUCHED_PARENT = (
    "a lane event scheduled an event of its parent kernel due before the "
    "parent's next event"
)


class Simulator:
    """The simulation kernel.

    Args:
        seed: seed for the kernel's :class:`numpy.random.Generator`.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now_s = 0.0
        self._rng = np.random.default_rng(seed)
        self._event_count = 0
        # Latest time chain_in may run an event inline: the bound of the
        # loop in progress, -inf outside run().
        self._chain_until_s = -math.inf
        self._lanes: list[Simulator] = []
        self._parent: Simulator | None = None
        self._started = False

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._now_s

    @property
    def rng(self) -> np.random.Generator:
        """The kernel's random generator (deterministic per seed)."""
        return self._rng

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (inline ones and those of
        every lane included)."""
        return self._event_count + sum(lane._event_count for lane in self._lanes)

    def lane(self, seed: int) -> Simulator:
        """A child kernel for events that touch only its own state.

        The lane has its own calendar, clock and generator (seeded with
        ``seed``) and shares this kernel's sequence counter.  It never
        runs on its own: this kernel's :meth:`run` advances it.  Its
        events may read and write only state no other lane touches, and
        never this kernel's calendar; anything that spans lanes belongs
        on this kernel, where it runs with every lane's clock at its
        instant.  :meth:`run` raises ``RuntimeError`` when a lane event
        schedules an event of this kernel due before this kernel's next
        one.

        Raises:
            RuntimeError: on a lane, or once this kernel has run.
        """
        if self._parent is not None:
            raise RuntimeError("a lane cannot have lanes of its own")
        if self._started:
            raise RuntimeError("lanes must be added before the kernel first runs")
        lane = type(self)(seed)
        lane._queue = self._queue.sibling()
        lane._parent = self
        self._lanes.append(lane)
        return lane

    def schedule_at(self, time_s: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time_s``.

        Raises:
            ValueError: if the time is in the past or NaN.
        """
        if time_s < self._now_s:
            raise ValueError(
                f"cannot schedule into the past: {time_s} < {self._now_s}"
            )
        self._queue.schedule(time_s, callback)

    def schedule_in(self, delay_s: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay_s`` seconds.

        Raises:
            ValueError: for negative or NaN delays.
        """
        if delay_s < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay_s!r}")
        self._queue.schedule(self._now_s + delay_s, callback)

    def chain_in(self, delay_s: float, callback: Callable[[], None]) -> bool:
        """Continue a self-rescheduling ``callback`` after ``delay_s``.

        Returns ``True`` when the caller must run its next event inline,
        now: that event is due strictly before every pending event and
        no later than the bound of the run in progress, so the calendar
        would pop it next anyway.  The clock then stands at its time and
        it counts as processed.  Otherwise ``callback`` is scheduled as
        by :meth:`schedule_in` and the result is ``False``.  Nothing
        chains outside :meth:`run`.  A lane chains only strictly before
        its parent's next event, and never while a parent event runs; a
        kernel with lanes never chains.

        Raises:
            ValueError: for negative or NaN delays.
        """
        time_s = self._now_s + delay_s
        if (
            delay_s >= 0.0
            and time_s <= self._chain_until_s
            and self._queue.precedes(time_s)
        ):
            self._now_s = time_s
            self._event_count += 1
            return True
        self.schedule_in(delay_s, callback)
        return False

    def run(self, until_s: float | None = None) -> None:
        """Process events until the queue drains or ``until_s`` is
        passed; events due at exactly ``until_s`` run.

        Time advances to ``until_s`` even if the queue drains earlier, so
        repeated bounded runs observe a consistent clock; it never moves
        backwards.  A kernel with lanes advances them too, and every
        lane's clock ends where this kernel's does.

        Raises:
            ValueError: for a NaN ``until_s``.
            RuntimeError: on a lane.
        """
        if until_s is not None and until_s != until_s:
            raise ValueError(f"run bound until_s must be a number, got {until_s!r}")
        if self._parent is not None:
            raise RuntimeError("a lane runs only inside its parent's run")
        self._started = True
        bound = math.inf if until_s is None else until_s
        if self._lanes:
            self._run_lanes(bound)
        else:
            self._advance(bound, math.inf, bound)
        if until_s is not None and until_s > self._now_s:
            self._now_s = until_s
        for lane in self._lanes:
            lane._now_s = self._now_s

    def _run_lanes(self, bound: float) -> None:
        # Each of this kernel's events is a barrier: every lane first runs
        # the events one calendar would run before it, with its chains
        # held strictly before its instant (an inline event would have
        # drawn a later sequence number and lost the tie), then every
        # clock stands at that instant while the event runs.
        peek_key = self._queue.peek_key
        pop_before = self._queue.pop_before
        lanes = self._lanes
        while (key := peek_key()) is not None and key[0] <= bound:
            time_s, sequence = key
            chain_until_s = math.nextafter(time_s, -math.inf)
            for lane in lanes:
                lane._advance(time_s, sequence, chain_until_s)
                lane._now_s = time_s
            entry = pop_before(time_s, sequence)
            if entry is None or entry[1] != sequence:
                raise RuntimeError(_LANE_TOUCHED_PARENT)
            self._now_s = time_s
            entry[2]()
            self._event_count += 1
        for lane in lanes:
            lane._advance(bound, math.inf, bound)
        if (key := peek_key()) is not None and key[0] <= bound:
            raise RuntimeError(_LANE_TOUCHED_PARENT)
        self._now_s = max(self._now_s, max(lane._now_s for lane in lanes))

    def _advance(self, time_s: float, sequence: float, chain_until_s: float) -> None:
        """Run the events ordered no later than ``(time_s, sequence)``,
        chaining no later than ``chain_until_s``."""
        pop_before = self._queue.pop_before
        outer_chain_until_s = self._chain_until_s
        self._chain_until_s = chain_until_s
        try:
            while (entry := pop_before(time_s, sequence)) is not None:
                self._now_s = entry[0]
                entry[2]()
                self._event_count += 1
        finally:
            self._chain_until_s = outer_chain_until_s

    def pending_events(self) -> int:
        """Number of events still scheduled (those of every lane
        included)."""
        return len(self._queue) + sum(len(lane._queue) for lane in self._lanes)

    def stop(self) -> None:
        """Drop everything still pending, on every lane too (used to free
        a finished hub or region)."""
        self._queue.clear()
        for lane in self._lanes:
            lane._queue.clear()
