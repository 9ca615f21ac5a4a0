"""The controller's one-call decision and outcome paths against their
definitions.

``next_packet_mode`` reads each packet's mode from the current round's
modes, loaded once per round and plan, and checks readmissions inline;
``record_outcome`` updates a mode's failure window in place.  The
reference controller below takes the mode from
``ModeSchedule.mode_for_packet`` on every call and keeps the window
through a separate record step.  Over random plans, exclusion histories
and outcome sequences both must give the same modes and bitrates, the
same re-plans, exclusions, back-offs and decays, and the same ``replans``
epochs.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import DynamicOffloadController
from repro.core.modes import LinkMode
from repro.core.offload import InfeasibleOffloadError


class ReferenceController(DynamicOffloadController):
    """Each packet's mode straight from the schedule's definition."""

    def next_packet_mode(self):
        if self._plan is None:
            raise RuntimeError("controller not started")
        mode = self._plan.schedule.mode_for_packet(self._packet_index)
        self._packet_index += 1
        if self._packet_index - self._last_plan_packet >= self._recompute_interval:
            self._replan()
        elif self._reference_clear_expired():
            self._replan()
        return mode, self._plan.bitrates[mode]

    def _reference_clear_expired(self):
        next_readmit = self._next_readmit_packet
        if next_readmit is None or self._packet_index < next_readmit:
            return False
        return self._clear_expired_exclusions()

    def record_outcome(self, mode, success):
        health = self._health[mode]
        window = self._failure_window
        health.outcomes.append(success)
        if len(health.outcomes) > window and health.outcomes.pop(0):
            health.window_ok -= 1
        if success:
            health.window_ok += 1
            health.successes += 1
        else:
            health.failures += 1
        if success:
            health.clean_streak += 1
            if health.strikes > 0 and health.clean_streak >= window:
                health.strikes -= 1
                health.clean_streak = 0
        else:
            health.clean_streak = 0
        rate = 1.0 - health.window_ok / len(health.outcomes) if health.outcomes else 0.0
        if (
            mode is not LinkMode.ACTIVE
            and len(health.outcomes) >= window
            and rate >= self._failure_threshold
        ):
            self._exclude(mode)


def _state(controller):
    plan = controller.plan
    return (
        controller.replans,
        controller.fallbacks,
        controller.forced_active,
        controller._packet_index,
        controller._last_plan_packet,
        controller._next_readmit_packet,
        None if plan is None else (plan.solution, plan.schedule.target_fractions, plan.bitrates),
        {mode: dataclasses.astuple(health) for mode, health in controller._health.items()},
    )


_SETTINGS = st.fixed_dictionaries(
    {
        "period_packets": st.sampled_from([1, 3, 16, 64]),
        "recompute_interval_packets": st.sampled_from([7, 64, 4096]),
        "failure_window": st.integers(1, 8),
        "failure_threshold": st.sampled_from([0.25, 0.5, 1.0]),
        "reprobe_packets": st.integers(1, 40),
        "max_backoff_doublings": st.integers(0, 3),
    }
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("packets"), st.integers(1, 90), st.floats(0.0, 1.0)),
        st.tuples(st.just("energy"), st.floats(0.05, 50.0), st.floats(0.05, 50.0)),
        st.tuples(st.just("distance"), st.sampled_from([0.2, 0.5, 0.9, 1.3, 2.5, 3.5])),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    settings_=_SETTINGS,
    distance=st.sampled_from([0.2, 0.5, 0.9, 1.3, 2.5]),
    e1=st.floats(0.01, 100.0),
    e2=st.floats(0.01, 100.0),
    ops=_OPS,
    seed=st.integers(0, 2**16),
)
def test_collapsed_paths_match_the_schedule_definition(settings_, distance, e1, e2, ops, seed):
    controllers = [DynamicOffloadController(**settings_), ReferenceController(**settings_)]
    try:
        for controller in controllers:
            controller.start(distance, e1, e2)
    except InfeasibleOffloadError:
        return
    outcome_rng = random.Random(seed)
    index = 0
    for op in ops:
        if op[0] == "packets":
            _, count, loss = op
            for _ in range(count):
                plan = controllers[0].plan
                decisions = [c.next_packet_mode() for c in controllers]
                assert decisions[0] == decisions[1]
                mode, bitrate = decisions[0]
                # The mode is the definition's, under the plan before the
                # call; the bitrate is the plan's after it.
                assert mode is plan.schedule.mode_for_packet(index)
                assert bitrate == controllers[0].plan.bitrates[mode]
                index += 1
                success = outcome_rng.random() >= loss
                for controller in controllers:
                    controller.record_outcome(mode, success)
        elif op[0] == "energy":
            for controller in controllers:
                controller.update_energy(op[1], op[2])
        else:
            for controller in controllers:
                controller.update_distance(op[1])
        assert _state(controllers[0]) == _state(controllers[1])
