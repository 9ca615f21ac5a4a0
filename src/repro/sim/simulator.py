"""Discrete-event simulator core.

Single-threaded, deterministic given a seed: a clock, an event calendar
and a random generator.  Sessions schedule packet events against it;
experiments run it until a stop condition.

A kernel can also host *lanes* (:meth:`Simulator.lane`): child kernels
with their own calendar, clock and generator for work that touches only
its own state, such as one hub of a region.  The parent's :meth:`run`
advances every lane through the events ordered before the parent's own
next event, then runs that event, so each lane's self-rescheduling
chains run inline up to the next event that may touch several lanes.
Parent and lanes draw sequence numbers from one counter, and a lane
event never touches another lane's state, so every lane sees its
events, and every parent event sees every lane, exactly as one calendar
holding all of them would order them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .events import EventHandle, EventQueue

#: Lanes run ahead of the parent's calendar up to its next event, so a
#: lane event that cancels that event, or adds one due before it, would
#: break the order one calendar gives.
_LANE_TOUCHED_PARENT = (
    "a lane event scheduled or cancelled an event of its parent kernel "
    "due before the parent's next event"
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
        # run in progress (for a lane, of its current advance), -inf
        # outside run() and in max_events runs.
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
        one, or cancels that next one.

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

    def schedule_at(self, time_s: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time_s``.

        Raises:
            ValueError: if the time is in the past or NaN.
        """
        if time_s < self._now_s:
            raise ValueError(
                f"cannot schedule into the past: {time_s} < {self._now_s}"
            )
        return self._queue.schedule(time_s, callback)

    def schedule_in(self, delay_s: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay_s`` seconds.

        Raises:
            ValueError: for negative or NaN delays.
        """
        if delay_s < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay_s!r}")
        return self._queue.schedule(self._now_s + delay_s, callback)

    def chain_in(self, delay_s: float, callback: Callable[[], None]) -> bool:
        """Continue a self-rescheduling ``callback`` after ``delay_s``.

        Returns ``True`` when the caller must run its next event inline,
        now: that event is due strictly before every pending event and
        no later than the bound of the run in progress, so the calendar
        would pop it next anyway.  The clock then stands at its time and
        it counts as processed.  Otherwise ``callback`` is scheduled as
        by :meth:`schedule_in` and the result is ``False``.  Nothing
        chains outside :meth:`run` or in a ``max_events`` run.  A lane
        chains only strictly before its parent's next event, and never
        while a parent event runs; a kernel with lanes never chains.

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

    def run(
        self,
        until_s: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events until the queue drains, ``until_s`` is reached,
        or ``max_events`` have fired — whichever comes first.

        Time advances to ``until_s`` even if the queue drains earlier, so
        repeated bounded runs observe a consistent clock; it never moves
        backwards.  A kernel with lanes advances them too, and every
        lane's clock ends where this kernel's does.

        Raises:
            ValueError: for a NaN ``until_s``.
            RuntimeError: on a lane, or for a ``max_events`` run of a
                kernel with lanes.
        """
        if until_s is not None and until_s != until_s:
            raise ValueError(f"run bound until_s must be a number, got {until_s!r}")
        if self._parent is not None:
            raise RuntimeError("a lane runs only inside its parent's run")
        if self._lanes and max_events is not None:
            raise RuntimeError("a kernel with lanes cannot run a max_events run")
        self._started = True
        if self._lanes:
            self._run_lanes(until_s)
            return
        outer_chain_until_s = self._chain_until_s
        if max_events is None:
            self._chain_until_s = math.inf if until_s is None else until_s
        else:
            self._chain_until_s = -math.inf
        try:
            self._run(until_s, max_events)
        finally:
            self._chain_until_s = outer_chain_until_s

    def _run(self, until_s: float | None, max_events: int | None) -> None:
        if until_s is None and max_events is None:
            # Unbounded fast path: no per-event bound checks and a single
            # heap operation per event (no peek-then-pop double scan).
            pop_next = self._queue.pop_next
            while (event := pop_next()) is not None:
                self._now_s = event.time_s
                event.callback()
                self._event_count += 1
            return
        peek_time = self._queue.peek_time
        pop_next = self._queue.pop_next
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return
            next_time = peek_time()
            if next_time is None or (until_s is not None and next_time > until_s):
                if until_s is not None:
                    self._now_s = max(self._now_s, until_s)
                return
            event = pop_next()
            if event is None:
                continue
            self._now_s = event.time_s
            event.callback()
            self._event_count += 1
            fired += 1

    def _run_lanes(self, until_s: float | None) -> None:
        # Each of this kernel's events is a barrier: every lane first runs
        # the events one calendar would run before it, with its chains
        # held strictly before its instant (an inline event would have
        # drawn a later sequence number and lost the tie), then every
        # clock stands at that instant while the event runs.
        bound = math.inf if until_s is None else until_s
        peek_key = self._queue.peek_key
        pop_next = self._queue.pop_next
        lanes = self._lanes
        while (key := peek_key()) is not None and key[0] <= bound:
            time_s, sequence = key
            chain_until_s = math.nextafter(time_s, -math.inf)
            for lane in lanes:
                lane._advance(time_s, sequence, chain_until_s)
                lane._now_s = time_s
            if peek_key() != key:
                raise RuntimeError(_LANE_TOUCHED_PARENT)
            event = pop_next()
            self._now_s = time_s
            event.callback()  # type: ignore[union-attr]
            self._event_count += 1
        for lane in lanes:
            lane._advance(bound, math.inf, bound)
        if (key := peek_key()) is not None and key[0] <= bound:
            raise RuntimeError(_LANE_TOUCHED_PARENT)
        end_s = max(self._now_s, max(lane._now_s for lane in lanes))
        if until_s is not None:
            end_s = max(end_s, until_s)
        self._now_s = end_s
        for lane in lanes:
            lane._now_s = end_s

    def _advance(self, time_s: float, sequence: float, chain_until_s: float) -> None:
        """Run this lane's events ordered before ``(time_s, sequence)``,
        chaining no later than ``chain_until_s``."""
        pop_before = self._queue.pop_before
        self._chain_until_s = chain_until_s
        try:
            while (event := pop_before(time_s, sequence)) is not None:
                self._now_s = event.time_s
                event.callback()
                self._event_count += 1
        finally:
            self._chain_until_s = -math.inf

    def pending_events(self) -> int:
        """Number of events still scheduled (those of every lane
        included)."""
        return len(self._queue) + sum(len(lane._queue) for lane in self._lanes)

    def stop(self) -> None:
        """Cancel everything still pending, on every lane too (used by
        sessions when a battery dies)."""
        self._queue.clear()
        for lane in self._lanes:
            lane._queue.clear()
