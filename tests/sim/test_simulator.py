"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.simulator import Simulator


class TestClock:
    def test_time_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.5, lambda: times.append(sim.now_s))
        sim.schedule_at(0.5, lambda: times.append(sim.now_s))
        sim.run()
        assert times == [0.5, 1.5]

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        observed = []
        sim.schedule_in(1.0, lambda: sim.schedule_in(2.0, lambda: observed.append(sim.now_s)))
        sim.run()
        assert observed == [3.0]

    def test_cannot_schedule_into_the_past(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in(-1.0, lambda: None)


class TestRunBounds:
    def test_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(2))
        sim.run(until_s=5.0)
        assert fired == [1]
        assert sim.now_s == 5.0
        assert sim.pending_events() == 1

    def test_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until_s=7.0)
        assert sim.now_s == 7.0

    def test_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run(until_s=1.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_stop_cancels_pending(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.stop()
        assert sim.pending_events() == 0


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = Simulator(seed=123).rng.random(10)
        b = Simulator(seed=123).rng.random(10)
        assert (a == b).all()

    def test_different_seed_different_draws(self):
        a = Simulator(seed=1).rng.random(10)
        b = Simulator(seed=2).rng.random(10)
        assert (a != b).any()

    def test_event_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4
