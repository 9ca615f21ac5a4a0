"""Bounded-run semantics of the discrete-event kernel: the ``until_s``
contract on every shape the one event loop serves, NaN and infinite
times, and random stepped runs against a reference calendar."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator

from .reference_calendar import ReferenceCalendar


def _shape(name):
    """(kernel to run, kernel that holds the events) for one shape of the
    loop: events on a plain kernel, on a kernel with an idle lane, or on
    a lane of an idle parent."""
    sim = Simulator()
    if name == "plain":
        return sim, sim
    lane = sim.lane(seed=1)
    return (sim, lane) if name == "lane" else (sim, sim)


every_shape = pytest.mark.parametrize("shape", ["plain", "idle-lane", "lane"])


def _schedule_mixed(kernel, log):
    """A chain, events that schedule events (one at their own instant)
    and a tie, all logging (time, label)."""

    def event(label):
        log.append((kernel.now_s, label))

    def spawner():
        event("spawner")
        kernel.schedule_in(0.0, functools.partial(event, "tie"))
        kernel.schedule_in(0.75, functools.partial(event, "child"))

    def serve():
        while True:
            event("chain")
            if kernel.now_s >= 3.0 or not kernel.chain_in(0.25, serve):
                return

    kernel.schedule_at(0.0, serve)
    kernel.schedule_at(1.0, spawner)
    kernel.schedule_at(1.0, functools.partial(event, "local"))
    kernel.schedule_at(2.5, spawner)


class TestRunBound:
    @every_shape
    def test_event_exactly_at_until_fires(self, shape):
        sim, kernel = _shape(shape)
        fired = []
        kernel.schedule_at(2.0, lambda: fired.append("at"))
        kernel.schedule_at(2.0 + 1e-9, lambda: fired.append("after"))
        sim.run(until_s=2.0)
        assert fired == ["at"]
        assert sim.now_s == kernel.now_s == 2.0
        assert sim.pending_events() == 1

    @every_shape
    def test_clock_advances_to_until_on_drain(self, shape):
        sim, kernel = _shape(shape)
        kernel.schedule_at(1.0, lambda: None)
        sim.run(until_s=6.0)
        # The queue drained at t=1 but the horizon holds.
        assert sim.now_s == kernel.now_s == 6.0

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

    @every_shape
    def test_until_does_not_rewind_the_clock(self, shape):
        sim, kernel = _shape(shape)
        sim.run(until_s=5.0)
        sim.run(until_s=2.0)  # earlier horizon than the current clock
        assert sim.now_s == kernel.now_s == 5.0

    @every_shape
    def test_until_does_not_rewind_the_clock_with_events_pending(self, shape):
        # An event beyond the bound keeps the queue non-empty, which used
        # to take a branch that set the clock to until_s unconditionally.
        sim, kernel = _shape(shape)
        fired = []
        kernel.schedule_at(5.0, lambda: fired.append(5.0))
        kernel.schedule_at(6.0, lambda: fired.append(6.0))
        sim.run(until_s=5.0)
        assert sim.now_s == kernel.now_s == 5.0
        sim.run(until_s=2.0)
        assert sim.now_s == kernel.now_s == 5.0
        assert fired == [5.0]
        assert sim.pending_events() == 1

    @every_shape
    def test_stepping_equals_one_run(self, shape):
        once_sim, once = _shape(shape)
        once_log = []
        _schedule_mixed(once, once_log)
        once_sim.run()
        stepped_sim, stepped = _shape(shape)
        stepped_log = []
        _schedule_mixed(stepped, stepped_log)
        for k in range(7):
            stepped_sim.run(until_s=0.5 * k)
        stepped_sim.run()
        assert stepped_log == once_log
        assert stepped_sim.processed_events == once_sim.processed_events
        assert stepped_sim.now_s == once_sim.now_s == 3.25
        assert once_log[-1] == (3.25, "child")

    @every_shape
    def test_chains_stop_at_until(self, shape):
        sim, kernel = _shape(shape)
        times = []

        def serve():
            while True:
                times.append(kernel.now_s)
                if not kernel.chain_in(1.0, serve):
                    return

        kernel.schedule_at(0.0, serve)
        sim.run(until_s=2.0)
        assert times == [0.0, 1.0, 2.0]
        assert sim.processed_events == 3
        assert sim.pending_events() == 1
        assert sim.now_s == kernel.now_s == 2.0

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


# -- random stepped runs against the reference calendar -----------------------

GRID_S = 0.25


@st.composite
def _programs(draw):
    roots = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.lists(st.integers(0, 4), max_size=3)),
            max_size=6,
        )
    )
    chains = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 3), st.integers(1, 10)),
            max_size=3,
        )
    )
    # The setup order decides every tie at one instant.
    order = draw(
        st.permutations(
            [("root", i) for i in range(len(roots))]
            + [("chain", i) for i in range(len(chains))]
        )
    )
    steps = draw(st.lists(st.integers(0, 20), max_size=5))
    return roots, chains, order, steps


def _run_program(kernel_cls, program):
    """Build ``program`` on a fresh kernel and run it in its bounded steps
    (in any order, so some would rewind the clock), then unbounded; one
    (log, processed, clock, pending) record per run."""
    roots, chains, order, steps = program
    kernel = kernel_cls(seed=0)
    log = []
    served = [0] * len(chains)

    def leaf(label):
        log.append((kernel.now_s, label))

    def root(i):
        leaf(f"root{i}")
        for j, delay in enumerate(roots[i][1]):
            kernel.schedule_in(delay * GRID_S, functools.partial(leaf, f"child{i}.{j}"))

    def serve(i):
        _, step, packets = chains[i]
        while True:
            leaf(f"chain{i}")
            served[i] += 1
            if served[i] == packets:
                return
            if not kernel.chain_in(step * GRID_S, functools.partial(serve, i)):
                return

    for kind, i in order:
        if kind == "root":
            kernel.schedule_at(roots[i][0] * GRID_S, functools.partial(root, i))
        else:
            kernel.schedule_at(chains[i][0] * GRID_S, functools.partial(serve, i))
    records = []
    for until in steps + [None]:
        kernel.run(until_s=None if until is None else until * GRID_S)
        records.append(
            (list(log), kernel.processed_events, kernel.now_s, kernel.pending_events())
        )
    return records


@settings(max_examples=200, deadline=None)
@given(_programs())
def test_stepped_runs_match_the_reference_calendar(program):
    assert _run_program(Simulator, program) == _run_program(ReferenceCalendar, program)


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
