"""Unit tests for the fault injector's seeding, hooks and arming rules."""

import pytest

from repro.core.modes import LinkMode
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    fault_rng,
    fault_seed_sequence,
)


def _outage_plan():
    return FaultPlan.of(
        FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.1, duration_s=0.1)
    )


class TestSeeding:
    def test_same_plan_same_seed_same_stream(self):
        plan = _outage_plan()
        draws_1 = fault_rng(plan, seed=7).random(8).tolist()
        draws_2 = fault_rng(plan, seed=7).random(8).tolist()
        assert draws_1 == draws_2

    def test_seed_changes_stream(self):
        plan = _outage_plan()
        assert fault_rng(plan, seed=1).random() != fault_rng(plan, seed=2).random()

    def test_plan_content_changes_stream(self):
        other = FaultPlan.of(
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.2, duration_s=0.1)
        )
        assert fault_rng(_outage_plan(), 0).random() != fault_rng(other, 0).random()

    def test_stream_is_a_child_of_the_root(self):
        # The fault stream must never be the session's own root stream.
        import numpy as np

        root = np.random.SeedSequence(entropy=0)
        child = fault_seed_sequence(_outage_plan(), seed=0)
        assert child.spawn_key != root.spawn_key


class TestHooks:
    def test_unarmed_hooks_are_inert(self):
        injector = FaultInjector(FaultPlan.empty())
        assert not any(injector.blocked(mode) for mode in LinkMode)
        assert not injector.corrupt_ack()
        assert not injector.switch_stuck()
        assert injector.energy_scales() == (1.0, 1.0)
        assert injector.timeline == []

    def test_corrupt_ack_draws_nothing_outside_windows(self):
        # The zero-probability fast path must not consume the private
        # stream (draw parity is part of the determinism contract).
        injector = FaultInjector(_outage_plan(), seed=3)
        before = injector._rng.bit_generator.state
        for _ in range(16):
            assert not injector.corrupt_ack()
        assert injector._rng.bit_generator.state == before

    def test_rejects_ambiguous_plans(self):
        specs = [
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.1, duration_s=0.2, magnitude=0.5
            ),
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.2, duration_s=0.2, magnitude=0.9
            ),
        ]
        with pytest.raises(ValueError, match="overlapping"):
            FaultInjector(FaultPlan(tuple(specs)))


class TestArming:
    def _pair_session(self, seed=0):
        from repro.core.braidio import BraidioRadio
        from repro.core.regimes import LinkMap
        from repro.hardware.battery import Battery
        from repro.sim.link import SimulatedLink
        from repro.sim.policies import BraidioPolicy
        from repro.sim.session import CommunicationSession
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=seed)
        a = BraidioRadio.for_device("Apple Watch")
        a.battery = Battery(1.0)
        b = BraidioRadio.for_device("iPhone 6S")
        b.battery = Battery(1.0)
        link = SimulatedLink(LinkMap(), 0.5, sim.rng)
        return CommunicationSession(
            sim, a, b, link, BraidioPolicy(), arq=True, max_packets=1000
        )

    def test_arm_twice_rejected(self):
        session = self._pair_session()
        injector = FaultInjector(FaultPlan.empty()).arm(session)
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm(session)

    def test_second_injector_on_same_session_rejected(self):
        session = self._pair_session()
        FaultInjector(FaultPlan.empty()).arm(session)
        with pytest.raises(RuntimeError, match="already has"):
            FaultInjector(FaultPlan.empty()).arm(session)

    def test_timeline_records_edges_in_fire_order(self):
        session = self._pair_session()
        injector = FaultInjector(_outage_plan()).arm(session)
        session.run()
        labels = [label for _, label in injector.timeline]
        assert labels == ["link_outage begin", "link_outage end"]
        times = [t for t, _ in injector.timeline]
        assert times == sorted(times)
        assert session.metrics.fault_events == 1
