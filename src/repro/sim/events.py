"""Event calendar for the discrete-event simulator.

A binary-heap priority queue of ``(time, sequence, callback)`` tuples.
The monotonically increasing sequence number makes ordering stable for
events scheduled at the same instant and keeps the heap comparison away
from the (uncomparable) callbacks.

The queue is on the per-packet hot path (one schedule + one pop per
packet that does not chain, see :meth:`Simulator.chain_in`), so an entry
is a bare tuple: scheduling allocates nothing else, and an event, once
scheduled, always fires unless :meth:`EventQueue.clear` drops it.  NaN
times are rejected: a NaN compares false against everything, so one
entry would silently break the heap order every later pop relies on.

Queues made by :meth:`EventQueue.sibling` share one sequence counter, so
entries of several queues order among each other exactly as they would
in one queue; a kernel's lanes (:meth:`Simulator.lane`) rely on it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

#: One calendar entry: (firing time, tie-breaking sequence, callback).
Entry = tuple[float, int, Callable[[], None]]


class EventQueue:
    """A time-ordered event queue."""

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._counter = itertools.count()

    def sibling(self) -> "EventQueue":
        """A new, empty queue that draws sequence numbers from this
        queue's counter: an entry of either queue orders against an
        entry of the other as it would if both were in one queue."""
        queue = EventQueue()
        queue._counter = self._counter
        return queue

    def schedule(self, time_s: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time_s``.

        Raises:
            ValueError: for negative or NaN times.
        """
        if not time_s >= 0.0:
            if time_s != time_s:
                raise ValueError(f"event time must be a number, got {time_s!r}")
            raise ValueError(f"event time must be non-negative, got {time_s!r}")
        heapq.heappush(self._heap, (time_s, next(self._counter), callback))

    def pop_before(self, time_s: float, sequence: float) -> Entry | None:
        """Remove and return the earliest entry if it is ordered no later
        than ``(time_s, sequence)``, else ``None``.  With ``sequence``
        infinite, every entry due at ``time_s`` or earlier qualifies."""
        heap = self._heap
        if heap:
            entry = heap[0]
            if entry[0] < time_s or (entry[0] == time_s and entry[1] <= sequence):
                return heapq.heappop(heap)
        return None

    def peek_key(self) -> tuple[float, int] | None:
        """``(time, sequence)`` of the earliest pending event, or
        ``None``."""
        heap = self._heap
        return heap[0][:2] if heap else None

    def precedes(self, time_s: float) -> bool:
        """Whether an event at ``time_s`` would pop before every pending
        one: strictly earlier than the earliest entry, because a pending
        entry at the same instant was scheduled first and wins the tie."""
        heap = self._heap
        return not heap or time_s < heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
