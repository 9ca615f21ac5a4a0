"""Event calendar for the discrete-event simulator.

A binary-heap priority queue of (time, sequence, handle) entries.  The
monotonically increasing sequence number makes ordering stable for events
scheduled at the same instant and keeps the heap comparison away from the
(uncomparable) callbacks.

The queue is on the per-packet hot path (one schedule + one pop per
packet that does not chain, see :meth:`Simulator.chain_in`), so the
classes are ``__slots__``-based and the queue keeps an O(1) live-event
count: cancelled entries are tallied as they are marked and the heap is
compacted in place once they outnumber the live ones.  NaN times are
rejected: a NaN compares false against everything, so one entry would
silently break the heap order every later pop relies on.

Queues made by :meth:`EventQueue.sibling` share one sequence counter, so
entries of several queues order among each other exactly as they would
in one queue; a kernel's lanes (:meth:`Simulator.lane`) rely on it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

#: Heaps smaller than this are never compacted — rebuilding them costs
#: more than the dead entries they carry.
COMPACTION_MIN_HEAP = 64


class Event:
    """A scheduled event.

    Attributes:
        time_s: absolute firing time.
        sequence: tie-breaking insertion order.
        callback: zero-argument callable run when the event fires.
    """

    __slots__ = ("time_s", "sequence", "callback")

    def __init__(
        self, time_s: float, sequence: int, callback: Callable[[], None]
    ) -> None:
        self.time_s = time_s
        self.sequence = sequence
        self.callback = callback

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event(time_s={self.time_s!r}, sequence={self.sequence!r})"


class EventHandle:
    """Handle returned by :meth:`EventQueue.schedule`; lets the owner
    cancel a pending event.

    Cancellation is cooperative: the entry stays in the heap and is
    skipped (and counted) when encountered.  Handles report back to their
    owning queue so the live-event count stays O(1).
    """

    __slots__ = ("event", "cancelled", "_queue")

    def __init__(
        self,
        event: Event,
        cancelled: bool = False,
        queue: "Optional[EventQueue]" = None,
    ) -> None:
        self.event = event
        self.cancelled = cancelled
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancelled()
                self._queue = None


class EventQueue:
    """A time-ordered event queue with an O(1) live count."""

    __slots__ = ("_heap", "_counter", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._counter = itertools.count()
        self._cancelled = 0

    def sibling(self) -> "EventQueue":
        """A new, empty queue that draws sequence numbers from this
        queue's counter: an entry of either queue orders against an
        entry of the other as it would if both were in one queue."""
        queue = EventQueue()
        queue._counter = self._counter
        return queue

    def schedule(self, time_s: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute ``time_s``.

        Raises:
            ValueError: for negative or NaN times.
        """
        if not time_s >= 0.0:
            if time_s != time_s:
                raise ValueError(f"event time must be a number, got {time_s!r}")
            raise ValueError(f"event time must be non-negative, got {time_s!r}")
        sequence = next(self._counter)
        handle = EventHandle(Event(time_s, sequence, callback), queue=self)
        heapq.heappush(self._heap, (time_s, sequence, handle))
        return handle

    def _note_cancelled(self) -> None:
        """Tally one newly cancelled pending entry; compact when dead
        entries dominate the heap."""
        self._cancelled += 1
        if (
            len(self._heap) >= COMPACTION_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors."""
        live = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0

    def pop_next(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``
        when the queue is exhausted."""
        heap = self._heap
        while heap:
            _, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            # A cancel() after the pop must not skew the live count.
            handle._queue = None
            return handle.event
        return None

    def pop_before(self, time_s: float, sequence: float) -> Event | None:
        """Remove and return the earliest live event ordered before
        ``(time_s, sequence)``, or ``None`` when there is none.  With
        ``sequence`` infinite, every event due at ``time_s`` or earlier
        qualifies."""
        heap = self._heap
        while heap:
            entry_time, entry_sequence, handle = heap[0]
            if entry_time > time_s or (
                entry_time == time_s and entry_sequence > sequence
            ):
                return None
            heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._queue = None
            return handle.event
        return None

    def peek_key(self) -> tuple[float, int] | None:
        """``(time, sequence)`` of the earliest pending event, or
        ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][:2] if heap else None

    def precedes(self, time_s: float) -> bool:
        """Whether an event at ``time_s`` would pop before every pending
        one: strictly earlier than the earliest live entry, because a
        pending entry at the same instant was scheduled first and wins
        the tie."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return not heap or time_s < heap[0][0]

    def peek_time(self) -> float | None:
        """Firing time of the earliest pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._cancelled = 0
