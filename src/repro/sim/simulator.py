"""Discrete-event simulator core.

Single-threaded, deterministic given a seed: a clock, an event calendar
and a shared random generator.  Sessions schedule packet events against
it; experiments run it until a stop condition.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .events import EventHandle, EventQueue


class Simulator:
    """The simulation kernel.

    Args:
        seed: seed for the shared :class:`numpy.random.Generator`.
    """

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now_s = 0.0
        self._rng = np.random.default_rng(seed)
        self._event_count = 0
        # Latest time chain_in may run an event inline: the bound of the
        # run in progress, -inf outside run() and in max_events runs.
        self._chain_until_s = -math.inf

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._now_s

    @property
    def rng(self) -> np.random.Generator:
        """Shared random generator (deterministic per seed)."""
        return self._rng

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (inline ones included)."""
        return self._event_count

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
        chains outside :meth:`run` or in a ``max_events`` run.

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
        backwards.

        Raises:
            ValueError: for a NaN ``until_s``.
        """
        if until_s is not None and until_s != until_s:
            raise ValueError(f"run bound until_s must be a number, got {until_s!r}")
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

    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    def stop(self) -> None:
        """Cancel everything still pending (used by sessions when a
        battery dies)."""
        self._queue.clear()
