"""A fixed pure-Python load that gauges how fast the host runs right now.

The host the benchmark was tuned on is shared, and its speed drifts by
tens of percent over minutes.  ``run.py`` runs this load before the
first pass and after every pass, once per worker in parallel, and scales
each pass's times by the load's nominal time over the mean of the two
load times either side of it, which cancels most of the drift.  The load imports nothing from the program, so no
change to the program can move it.

Run: ``python3 perfbench/reference.py`` prints the load's time in seconds
(interpreter start-up excluded).
"""

from __future__ import annotations

import heapq
import random
import time

#: Events pushed through the heap; about 0.4 s on the tuning host.
EVENTS = 150_000


class _Event:
    __slots__ = ("time_s", "key")

    def __init__(self, time_s: float, key: int) -> None:
        self.time_s = time_s
        self.key = key

    def __lt__(self, other: "_Event") -> bool:
        return self.time_s < other.time_s


def load(events: int = EVENTS) -> int:
    """Event-queue churn in the style of the program's DES kernel, over a
    working set of tens of megabytes."""
    rng = random.Random(7)
    heap: "list[_Event]" = []
    totals: "dict[int, list[float]]" = {}
    for index in range(events):
        heapq.heappush(heap, _Event(rng.random() * 10.0, index % 4099))
        if len(heap) > 2048:
            event = heapq.heappop(heap)
            totals.setdefault(event.key, []).append(event.time_s)
    return sum(len(v) for v in totals.values())


if __name__ == "__main__":
    started = time.perf_counter()
    load()
    print(time.perf_counter() - started)
