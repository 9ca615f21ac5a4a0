"""Unit tests for the event calendar."""

import math

import pytest

from repro.sim.events import EventQueue


def _drain(queue):
    """Fire every pending entry in calendar order."""
    while (entry := queue.pop_before(math.inf, math.inf)) is not None:
        entry[2]()


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(3.0, lambda: fired.append("c"))
        _drain(queue)
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(1.0, lambda: fired.append(2))
        queue.schedule(1.0, lambda: fired.append(3))
        _drain(queue)
        assert fired == [1, 2, 3]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)


class TestPopBefore:
    # (bound time, bound sequence relative to the entry's own, pops?) for
    # one entry due at 1.0.
    @pytest.mark.parametrize(
        "time_s, sequence_offset, pops",
        [
            (2.0, -1, True),
            (1.0, +1, True),
            (1.0, 0, True),
            (1.0, -1, False),
            (1.0, math.inf, True),
            (0.5, math.inf, False),
        ],
        ids=[
            "earlier-time",
            "same-time-lower-sequence",
            "same-key",
            "same-time-higher-sequence",
            "infinite-sequence",
            "later-time",
        ],
    )
    def test_pops_only_an_entry_ordered_no_later_than_the_bound(
        self, time_s, sequence_offset, pops
    ):
        def callback():
            pass

        queue = EventQueue()
        queue.schedule(1.0, callback)
        _, sequence = queue.peek_key()
        entry = queue.pop_before(time_s, sequence + sequence_offset)
        if pops:
            assert entry == (1.0, sequence, callback)
            assert len(queue) == 0
        else:
            assert entry is None
            assert len(queue) == 1

    def test_sibling_queues_share_the_sequence_counter(self):
        queue = EventQueue()
        sibling = queue.sibling()
        queue.schedule(1.0, lambda: None)
        sibling.schedule(1.0, lambda: None)
        queue.schedule(1.0, lambda: None)
        first = queue.pop_before(1.0, math.inf)
        second = queue.pop_before(1.0, math.inf)
        between = sibling.pop_before(1.0, math.inf)
        assert first[1] < between[1] < second[1]


class TestPrecedes:
    def test_only_strictly_before_the_head(self):
        queue = EventQueue()
        assert queue.precedes(5.0)
        queue.schedule(1.0, lambda: None)
        assert queue.precedes(0.5)
        # A pending event at the same instant was scheduled first.
        assert not queue.precedes(1.0)
        assert not queue.precedes(2.0)


class TestHousekeeping:
    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.pop_before(math.inf, math.inf) is None
        assert queue.peek_key() is None
        assert len(queue) == 0

    def test_clear(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.clear()
        assert len(queue) == 0
