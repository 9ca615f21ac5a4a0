"""Kernel lanes against one calendar.

``Simulator.lane`` gives a child kernel its own calendar, clock and
generator; the parent's ``run`` advances every lane through the events
ordered before the parent's next event, then runs that event.  The
references here are a kernel whose ``lane()`` returns the kernel itself,
so every event shares one calendar and one clock, and the sorted-list
:class:`ReferenceCalendar`, which shares no code with the kernel.  Lane
events touch only their own lane's state, so all three must run each
lane's events, and each parent event, at the same instants and in the
same order.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator

from .reference_calendar import ReferenceCalendar


class OneCalendar(Simulator):
    """The reference kernel: every lane is the kernel itself."""

    def lane(self, seed):
        return self


class TestTies:
    @pytest.mark.parametrize("first", ["region", "lane"])
    def test_same_instant_events_run_in_scheduling_order(self, first):
        sim = Simulator()
        lane = sim.lane(seed=1)
        order = []
        schedulers = {
            "region": lambda: sim.schedule_at(1.0, lambda: order.append("region")),
            "lane": lambda: lane.schedule_at(1.0, lambda: order.append("lane")),
        }
        second = "lane" if first == "region" else "region"
        schedulers[first]()
        schedulers[second]()
        sim.run()
        assert order == [first, second]

    def test_region_event_scheduled_into_a_lane_runs_after_it(self):
        # A lane event scheduled at the parent event's own instant drew a
        # later sequence number than every event already pending there.
        sim = Simulator()
        lane = sim.lane(seed=1)
        order = []
        lane.schedule_at(1.0, lambda: order.append("pending"))

        def region():
            order.append(("region", lane.now_s))
            lane.schedule_in(0.0, lambda: order.append(("poked", lane.now_s)))

        sim.schedule_at(1.0, region)
        lane.schedule_at(1.0, lambda: order.append("later"))
        sim.run()
        assert order == ["pending", ("region", 1.0), "later", ("poked", 1.0)]


class TestChains:
    def test_chain_stops_strictly_before_the_parent_event_and_resumes(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        log, chained = [], []
        seen = []

        def serve():
            while True:
                log.append(lane.now_s)
                if len(log) == 8:
                    return
                ok = lane.chain_in(0.25, serve)
                chained.append(ok)
                if not ok:
                    return

        lane.schedule_at(0.0, serve)
        sim.schedule_at(1.0, lambda: seen.append((len(log), lane.now_s)))
        sim.run()
        assert log == [0.25 * k for k in range(8)]
        # Inline through 0.75; the packet due at the parent's instant goes
        # through the calendar; inline again after it.
        assert chained == [True, True, True, False, True, True, True]
        assert seen == [(4, 1.0)]
        assert sim.processed_events == 9

    def test_lane_never_chains_while_a_parent_event_runs(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        results = []
        sim.schedule_at(
            1.0, lambda: results.append(lane.chain_in(0.5, lambda: None))
        )
        sim.run()
        assert results == [False]
        assert lane.now_s == sim.now_s == 1.5

    def test_other_lanes_do_not_stop_a_chain(self):
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        chained = []

        def serve():
            while True:
                ok = lanes[0].chain_in(0.25, serve) if lanes[0].now_s < 1.0 else False
                if not ok:
                    return
                chained.append(lanes[0].now_s)

        lanes[0].schedule_at(0.0, serve)
        lanes[1].schedule_at(0.5, lambda: None)
        sim.run()
        assert chained == [0.25, 0.5, 0.75, 1.0]

    def test_a_kernel_with_lanes_never_chains(self):
        sim = Simulator()
        sim.lane(seed=1)
        results = []
        sim.schedule_at(0.0, lambda: results.append(sim.chain_in(1.0, lambda: None)))
        sim.run()
        assert results == [False]
        assert sim.processed_events == 2


class TestBounds:
    def test_lanes_run_through_until_inclusive(self):
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        fired = []
        lanes[0].schedule_at(2.0, lambda: fired.append("at bound"))
        lanes[1].schedule_at(2.5, lambda: fired.append("past bound"))
        sim.schedule_at(1.0, lambda: fired.append("region"))
        sim.run(until_s=2.0)
        assert fired == ["region", "at bound"]
        assert sim.now_s == 2.0
        assert [lane.now_s for lane in lanes] == [2.0, 2.0]
        assert sim.pending_events() == 1

    def test_chains_reach_an_inclusive_bound(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        times = []

        def serve():
            while True:
                times.append(lane.now_s)
                if not lane.chain_in(1.0, serve):
                    return

        lane.schedule_at(0.0, serve)
        sim.run(until_s=2.0)
        assert times == [0.0, 1.0, 2.0]
        assert sim.processed_events == 3
        assert sim.pending_events() == 1

    def test_idle_lanes_advance_to_the_bound(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        sim.run(until_s=3.0)
        assert lane.now_s == sim.now_s == 3.0
        sim.run(until_s=1.0)  # the clock never moves backwards
        assert lane.now_s == sim.now_s == 3.0

    def test_unbounded_run_ends_every_clock_at_the_last_event(self):
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        lanes[0].schedule_at(4.0, lambda: None)
        lanes[1].schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.now_s == 4.0
        assert [lane.now_s for lane in lanes] == [4.0, 4.0]


class TestCountsAndStop:
    def test_counts_include_lanes(self):
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        for lane in lanes:
            lane.schedule_at(1.0, lambda: None)
            lane.schedule_at(5.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events() == 5
        sim.run(until_s=3.0)
        assert sim.processed_events == 3
        assert [lane.processed_events for lane in lanes] == [1, 1]
        assert sim.pending_events() == 2
        assert [lane.pending_events() for lane in lanes] == [1, 1]

    def test_stop_clears_every_lane(self):
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        for lane in lanes:
            lane.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        sim.stop()
        assert sim.pending_events() == 0
        assert [lane.pending_events() for lane in lanes] == [0, 0]


class TestContract:
    def test_a_lane_cannot_run_on_its_own(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        with pytest.raises(RuntimeError):
            lane.run()
        with pytest.raises(RuntimeError):
            lane.run(until_s=1.0)

    def test_no_lane_of_a_lane(self):
        lane = Simulator().lane(seed=1)
        with pytest.raises(RuntimeError):
            lane.lane(seed=2)

    def test_no_lane_once_the_kernel_has_run(self):
        sim = Simulator()
        sim.run(until_s=1.0)
        with pytest.raises(RuntimeError):
            sim.lane(seed=1)

    def test_no_lane_from_inside_a_run(self):
        sim = Simulator()
        sim.lane(seed=1)
        errors = []

        def add_lane():
            try:
                sim.lane(seed=2)
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule_at(0.0, add_lane)
        sim.run()
        assert len(errors) == 1

    def test_a_lane_event_cannot_jump_its_parent_calendar(self):
        # The other lane already ran past 0.5, so an event at 0.5 on the
        # parent cannot run where one calendar would run it.
        sim = Simulator()
        lanes = [sim.lane(seed=seed) for seed in (1, 2)]
        lanes[0].schedule_at(0.0, lambda: sim.schedule_at(0.5, lambda: None))
        lanes[1].schedule_at(0.75, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_a_lane_event_cannot_jump_the_bound_of_a_run(self):
        sim = Simulator()
        lane = sim.lane(seed=1)
        lane.schedule_at(0.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(RuntimeError):
            sim.run(until_s=1.0)

    def test_a_nan_bound_is_rejected(self):
        sim = Simulator()
        sim.lane(seed=1)
        with pytest.raises(ValueError):
            sim.run(until_s=float("nan"))

    def test_every_lane_has_its_own_generator(self):
        sim = Simulator(seed=7)
        lanes = [sim.lane(seed=seed) for seed in (1, 2, 2)]
        generators = [sim.rng] + [lane.rng for lane in lanes]
        assert len({id(g) for g in generators}) == 4
        draws = [lane.rng.random() for lane in lanes]
        assert draws[0] == Simulator(seed=1).rng.random()
        assert draws[1] == draws[2] == Simulator(seed=2).rng.random()
        assert sim.rng.random() == Simulator(seed=7).rng.random()


# -- lanes against one calendar ---------------------------------------------

GRID_S = 0.25

_lane_shape = st.fixed_dictionaries(
    {
        "chain_start": st.integers(0, 8),
        "chain_step": st.integers(1, 3),
        "chain_packets": st.integers(1, 12),
        "locals": st.lists(st.integers(0, 16), max_size=6),
    }
)


@st.composite
def _scenarios(draw):
    lanes = draw(st.lists(_lane_shape, min_size=1, max_size=4))
    actions = [("chain", i) for i in range(len(lanes))]
    for i, lane in enumerate(lanes):
        actions += [("local", i, t) for t in lane["locals"]]
    parents = draw(
        st.lists(
            st.tuples(
                st.integers(0, 16),
                st.one_of(st.none(), st.integers(0, len(lanes) - 1)),
                st.integers(0, 1),
            ),
            max_size=6,
        )
    )
    actions += [("parent",) + parent for parent in parents]
    # The setup order decides every tie at one instant.
    actions = draw(st.permutations(actions))
    until = draw(st.one_of(st.none(), st.integers(0, 20)))
    return lanes, actions, until


def _run_scenario(kernel_cls, scenario):
    shapes, actions, until = scenario
    sim = kernel_cls(seed=0)
    lanes = [sim.lane(seed=i + 1) for i in range(len(shapes))]
    logs = [[] for _ in shapes]
    served = [0] * len(shapes)
    observations = []

    def serve(i):
        lane = lanes[i]
        shape = shapes[i]
        while True:
            logs[i].append(("packet", lane.now_s))
            served[i] += 1
            if served[i] == shape["chain_packets"]:
                return
            if not lane.chain_in(
                shape["chain_step"] * GRID_S, functools.partial(serve, i)
            ):
                return

    def local(i, tag):
        logs[i].append((tag, lanes[i].now_s))

    def parent(poke, delay):
        observations.append(
            (
                sim.now_s,
                tuple(len(log) for log in logs),
                tuple(lane.now_s for lane in lanes),
            )
        )
        if poke is not None:
            lanes[poke].schedule_in(
                delay * GRID_S, functools.partial(local, poke, "poked")
            )

    for action in actions:
        if action[0] == "chain":
            i = action[1]
            lanes[i].schedule_at(
                shapes[i]["chain_start"] * GRID_S, functools.partial(serve, i)
            )
        elif action[0] == "local":
            _, i, t = action
            lanes[i].schedule_at(t * GRID_S, functools.partial(local, i, "local"))
        else:
            _, t, poke, delay = action
            sim.schedule_at(t * GRID_S, functools.partial(parent, poke, delay))
    sim.run(until_s=None if until is None else until * GRID_S)
    return (
        logs,
        observations,
        sim.processed_events,
        sim.pending_events(),
        sim.now_s,
        [lane.now_s for lane in lanes],
    )


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_lanes_run_as_one_calendar_would(scenario):
    reference = _run_scenario(ReferenceCalendar, scenario)
    assert _run_scenario(OneCalendar, scenario) == reference
    assert _run_scenario(Simulator, scenario) == reference
