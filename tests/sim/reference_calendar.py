"""A sorted-list event calendar that shares no code with the kernel.

Every pending event sits in one list sorted by (time, scheduling
order), and ``run`` fires the head while it is due.  It has the
kernel's scheduling surface, so a test can build one schedule on both
and compare what ran.  It never chains, and a lane of it is the
calendar itself.
"""

import bisect
import itertools


class ReferenceCalendar:
    def __init__(self, seed=0):
        self.now_s = 0.0
        self.processed_events = 0
        self._pending = []  # sorted (time_s, order, callback)
        self._order = itertools.count()

    def lane(self, seed):
        return self

    def schedule_at(self, time_s, callback):
        bisect.insort(self._pending, (time_s, next(self._order), callback))

    def schedule_in(self, delay_s, callback):
        self.schedule_at(self.now_s + delay_s, callback)

    def chain_in(self, delay_s, callback):
        self.schedule_in(delay_s, callback)
        return False

    def run(self, until_s=None):
        while self._pending and (until_s is None or self._pending[0][0] <= until_s):
            self.now_s, _, callback = self._pending.pop(0)
            callback()
            self.processed_events += 1
        if until_s is not None:
            self.now_s = max(self.now_s, until_s)

    def pending_events(self):
        return len(self._pending)
