"""The controller's plan memo against planning from scratch.

Controllers that plan against one :class:`LinkMap` share a memo of the
pure plan computation (the Eq 1 solution, its packet schedule and the
bitrates), keyed on the candidate points, both energies and the period.
Every plan must equal the one computed directly, memo hit or miss, and
each plan still counts as a re-plan.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import _PLAN_MEMO_MAX, DynamicOffloadController
from repro.core.modes import LinkMode
from repro.core.offload import solve_offload
from repro.core.regimes import LinkMap
from repro.mac.scheduler import ModeSchedule

#: One map for the whole module, so later examples hit entries that
#: earlier ones stored.
_SHARED_MAP = LinkMap()

_ENERGY = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 100.0]),
    st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False),
)


def _direct_plan(distance_m, e1_j, e2_j, period, excluded):
    link_map = LinkMap()
    candidates = [
        power for power in link_map.available_powers(distance_m) if power.mode not in excluded
    ]
    solution = solve_offload(candidates, e1_j, e2_j)
    schedule = ModeSchedule(dict(solution.mode_fractions()), period)
    bitrates = {p.mode: p.bitrate_bps for p in candidates}
    return solution, schedule, bitrates, link_map.classify(distance_m)


def _assert_plan_equals(plan, direct, period):
    solution, schedule, bitrates, regime = direct
    assert plan.solution == solution
    assert plan.bitrates == bitrates
    assert plan.regime is regime
    assert plan.schedule.period_packets == period
    assert plan.schedule.target_fractions == schedule.target_fractions
    indices = range(3 * period + 5)
    assert [plan.schedule.mode_for_packet(i) for i in indices] == [
        schedule.mode_for_packet(i) for i in indices
    ]


@settings(max_examples=200, deadline=None)
@given(
    distance_m=st.one_of(
        st.sampled_from([0.3, 1.0, 2.0, 3.0, 4.5]),
        st.floats(min_value=0.1, max_value=5.0).map(lambda d: round(d, 2)),
    ),
    e1_j=_ENERGY,
    e2_j=_ENERGY,
    period=st.sampled_from([16, 64]),
    excluded=st.sets(st.sampled_from([LinkMode.BACKSCATTER, LinkMode.PASSIVE])),
)
def test_memoized_plans_equal_direct_plans(distance_m, e1_j, e2_j, period, excluded):
    twins = [
        DynamicOffloadController(_SHARED_MAP, period_packets=period) for _ in range(2)
    ]
    for controller in twins:
        plan = controller.start(distance_m, e1_j, e2_j)
        assert controller.replans == 1
        _assert_plan_equals(plan, _direct_plan(distance_m, e1_j, e2_j, period, set()), period)
    for mode in sorted(excluded, key=lambda m: m.value):
        for controller in twins:
            controller._exclude(mode)
    if excluded:
        direct = _direct_plan(distance_m, e1_j, e2_j, period, excluded)
        for controller in twins:
            assert controller.replans == 1 + len(excluded)
            _assert_plan_equals(controller.plan, direct, period)


def test_equal_inputs_share_one_computation():
    link_map = LinkMap()
    first = DynamicOffloadController(link_map)
    second = DynamicOffloadController(link_map)
    plan_a = first.start(0.5, 1.0, 10.0)
    plan_b = second.start(0.5, 1.0, 10.0)
    assert plan_b.solution is plan_a.solution
    assert (first.replans, second.replans) == (1, 1)
    # A controller on another map plans on its own.
    other = DynamicOffloadController(LinkMap()).start(0.5, 1.0, 10.0)
    assert other.solution is not plan_a.solution
    assert other.solution == plan_a.solution


def test_memo_is_dropped_wholesale_at_its_bound():
    # Re-plans on drifting energies never hit; a long-lived map must not
    # keep every one of them.
    link_map = LinkMap()
    controller = DynamicOffloadController(link_map)
    for i in range(_PLAN_MEMO_MAX + 10):
        controller.start(0.5, 1.0 + i, 10.0)
    assert 0 < len(link_map.plan_memo) <= _PLAN_MEMO_MAX
    assert controller.replans == _PLAN_MEMO_MAX + 10
