"""Bounded-run semantics of the discrete-event kernel: the ``until_s`` /
``max_events`` interplay and the cancelled-event skip paths."""

import math

import pytest

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


class TestUntilMaxEventsInterplay:
    def test_max_events_binds_before_until(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run(until_s=10.0, max_events=2)
        assert fired == [0, 1]
        # The event cap stopped the run mid-calendar: the clock sits at
        # the last fired event, not at until_s.
        assert sim.now_s == 1.0
        assert sim.pending_events() == 3

    def test_until_binds_before_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run(until_s=1.5, max_events=100)
        assert fired == [0, 1]
        assert sim.now_s == 1.5
        assert sim.pending_events() == 3

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("at"))
        sim.schedule_at(2.0 + 1e-9, lambda: fired.append("after"))
        sim.run(until_s=2.0)
        assert fired == ["at"]
        assert sim.now_s == 2.0

    def test_clock_advances_to_until_on_drain(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until_s=6.0)
        assert sim.now_s == 6.0  # queue drained at t=1 but the horizon holds

    def test_repeated_bounded_runs_observe_consistent_clock(self):
        sim = Simulator()
        observed = []
        sim.schedule_at(0.5, lambda: observed.append(sim.now_s))
        for horizon in (1.0, 2.0, 3.0):
            sim.run(until_s=horizon)
            assert sim.now_s == horizon
        # Scheduling relative to the advanced clock lands past the drain.
        sim.schedule_in(1.0, lambda: observed.append(sim.now_s))
        sim.run()
        assert observed == [0.5, 4.0]

    def test_until_does_not_rewind_the_clock(self):
        sim = Simulator()
        sim.run(until_s=5.0)
        sim.run(until_s=2.0)  # earlier horizon than the current clock
        assert sim.now_s == 5.0

    def test_until_does_not_rewind_the_clock_with_events_pending(self):
        # An event beyond the bound keeps the queue non-empty, which used
        # to take a branch that set the clock to until_s unconditionally.
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5.0))
        sim.schedule_at(6.0, lambda: fired.append(6.0))
        sim.run(until_s=5.0)
        assert sim.now_s == 5.0
        sim.run(until_s=2.0)
        assert sim.now_s == 5.0
        assert fired == [5.0]
        assert sim.pending_events() == 1

    def test_nan_until_is_rejected_by_name(self):
        sim = Simulator()
        ticks = []

        def tick():
            # A 1 ms tick, capped so a kernel that ignores the bound
            # still returns.
            ticks.append(sim.now_s)
            if len(ticks) < 1000:
                sim.schedule_in(1e-3, tick)

        sim.schedule_at(0.0, tick)
        with pytest.raises(ValueError, match="until_s.*nan"):
            sim.run(until_s=math.nan)
        assert ticks == []
        assert sim.now_s == 0.0

    def test_infinite_until_runs_to_drain(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run(until_s=math.inf)
        assert sim.processed_events == 1
        assert sim.now_s == math.inf

    def test_zero_max_events_is_a_no_op(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.run(max_events=0)
        assert fired == []
        assert sim.pending_events() == 1


class TestCancelledEventSkips:
    def test_cancelled_event_does_not_fire_or_count(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("cancelled"))
        sim.schedule_at(2.0, lambda: fired.append("kept"))
        handle.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.processed_events == 1

    def test_cancelled_head_does_not_consume_max_events(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("cancelled"))
        sim.schedule_at(2.0, lambda: fired.append("kept"))
        handle.cancel()
        sim.run(max_events=1)
        assert fired == ["kept"]

    def test_cancelled_head_does_not_hold_the_until_horizon(self):
        # A cancelled event inside the horizon must not stop the clock
        # from advancing to until_s.
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        handle.cancel()
        sim.run(until_s=3.0)
        assert sim.now_s == 3.0
        assert sim.pending_events() == 0

    def test_queue_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0

    def test_queue_len_ignores_cancelled(self):
        queue = EventQueue()
        handles = [queue.schedule(float(i), lambda: None) for i in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert len(queue) == 2

    def test_pop_next_skips_cancelled_run(self):
        queue = EventQueue()
        cancelled = [queue.schedule(float(i), lambda: None) for i in range(3)]
        kept = queue.schedule(10.0, lambda: None)
        for handle in cancelled:
            handle.cancel()
        event = queue.pop_next()
        assert event is kept.event
        assert queue.pop_next() is None


class TestNanEventTimes:
    def test_queue_rejects_nan_by_name(self):
        with pytest.raises(ValueError, match="nan"):
            EventQueue().schedule(math.nan, lambda: None)

    def test_schedule_at_rejects_nan(self):
        with pytest.raises(ValueError, match="nan"):
            Simulator().schedule_at(math.nan, lambda: None)

    def test_schedule_in_rejects_nan(self):
        with pytest.raises(ValueError, match="nan"):
            Simulator().schedule_in(math.nan, lambda: None)

    def test_rejected_nan_leaves_the_calendar_ordered(self):
        # NaN compares false against everything, so one NaN entry used to
        # scramble the heap and run the clock backwards.
        sim = Simulator()
        fired = []
        for when in (1.0, math.nan, math.nan, 0.5, 2.0, 0.25):
            try:
                sim.schedule_at(when, lambda when=when: fired.append(sim.now_s))
            except ValueError:
                pass
        sim.run()
        assert fired == [0.25, 0.5, 1.0, 2.0]

    def test_infinite_time_is_accepted(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(math.inf, lambda: fired.append(sim.now_s))
        sim.schedule_in(math.inf, lambda: fired.append(sim.now_s))
        sim.run()
        assert fired == [math.inf, math.inf]
