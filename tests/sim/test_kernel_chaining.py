"""Kernel chaining against a kernel that never chains.

``Simulator.chain_in`` lets a self-rescheduling callback run its next
event inline when the calendar would pop that event next anyway.  The
reference here is a kernel whose ``chain_in`` always declines, which
gives the original one heap push and pop per hub or pair-session
packet.  Every case must produce the same metrics, ledgers, reports and
processed-event counts on both kernels.
"""

import functools
import math

import numpy as np
import pytest

from repro.core.braidio import BraidioRadio
from repro.core.controller import DynamicOffloadController
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.deploy import partition, simulate_region
from repro.deploy import region as region_module
from repro.deploy.scenarios import city_scenario
from repro.faults import FaultInjector, fault_plan_for, region_fault_plan_for
from repro.hardware.battery import Battery
from repro.hardware.harvesting import RfHarvester
from repro.net import TdmaSchedule
from repro.net.session import HubClient, HubSession
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.link import SimulatedLink
from repro.sim.mobility import LinearWalk, MobilityDriver
from repro.sim.policies import BluetoothPolicy, BraidioPolicy, FixedModePolicy
from repro.sim.session import FRAME_OVERHEAD_BITS, CommunicationSession
from repro.sim.simulator import Simulator


class DecliningSimulator(Simulator):
    """The reference kernel: every continuation goes through the heap."""

    def chain_in(self, delay_s, callback):
        self.schedule_in(delay_s, callback)
        return False


class CountingSimulator(Simulator):
    """The real kernel, counting the events ``chain_in`` ran inline."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.chained = 0

    def chain_in(self, delay_s, callback):
        chained = super().chain_in(delay_s, callback)
        self.chained += chained
        return chained


def _recording(kernel_cls, kernels, lanes):
    """A subclass of ``kernel_cls`` that appends each top-level instance
    to ``kernels`` and each lane to ``lanes``, so a test can read the
    event counts of kernels built deep inside the deploy layer.  A lane
    is built from its parent's class, so a declining kernel's lanes
    decline too."""

    class Recording(kernel_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kernels.append(self)

        def lane(self, seed):
            lane = super().lane(seed)
            kernels.remove(lane)
            lanes.append(lane)
            return lane

    return Recording


# -- the kernel primitive --------------------------------------------------


class TestChainIn:
    def test_declines_outside_run(self):
        sim = Simulator()
        fired = []
        assert sim.chain_in(1.0, lambda: fired.append(sim.now_s)) is False
        assert sim.now_s == 0.0
        assert sim.pending_events() == 1
        sim.run()
        assert fired == [1.0]

    def test_chains_while_nothing_is_pending(self):
        sim = Simulator()
        times = []

        def tick():
            while True:
                times.append(sim.now_s)
                if len(times) == 5 or not sim.chain_in(0.5, tick):
                    return

        sim.schedule_at(0.0, tick)
        sim.run()
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert sim.processed_events == 5
        assert sim.pending_events() == 0

    def test_declines_a_tie_with_a_pending_event(self):
        # The pending event was scheduled first, so it wins the tie.
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("other"))

        def packet():
            order.append(("packet", sim.now_s))
            if sim.now_s == 0.0:
                assert sim.chain_in(1.0, packet) is False

        sim.schedule_at(0.0, packet)
        sim.run()
        assert order == [("packet", 0.0), "other", ("packet", 1.0)]
        assert sim.processed_events == 3

    def test_declines_past_the_run_bound(self):
        sim = Simulator()
        chained = []

        def packet():
            chained.append(sim.chain_in(2.0, packet))

        sim.schedule_at(0.0, packet)
        sim.run(until_s=1.0)
        assert chained == [False]
        assert sim.now_s == 1.0
        assert sim.pending_events() == 1

    def test_chains_up_to_an_inclusive_bound(self):
        sim = Simulator()
        times = []

        def packet():
            while True:
                times.append(sim.now_s)
                if not sim.chain_in(1.0, packet):
                    return

        sim.schedule_at(0.0, packet)
        sim.run(until_s=2.0)
        # 0 and the inline 1 and 2; the event at 3 waits on the calendar.
        assert times == [0.0, 1.0, 2.0]
        assert sim.processed_events == 3
        assert sim.pending_events() == 1
        assert sim.now_s == 2.0

    def test_rejects_negative_and_nan_delays(self):
        sim = Simulator()
        errors = []

        def packet():
            for delay in (-1.0, math.nan):
                try:
                    sim.chain_in(delay, packet)
                except ValueError as exc:
                    errors.append(str(exc))

        sim.schedule_at(0.0, packet)
        sim.run()
        assert len(errors) == 2
        assert "nan" in errors[1]
        assert sim.now_s == 0.0


# -- hub sessions ------------------------------------------------------------


def _churned_interfered_hub(kernel_cls, clients_n=100, horizon_s=2.0):
    """The 100-client hub of the DES performance bench: a shared
    planning map, interfered links, a 200-packet TDMA round and
    staggered naps that land in bursts between packets."""
    sim = kernel_cls(seed=0)
    rng = np.random.default_rng(1)
    link_map = LinkMap()
    interferer = BurstyInterferer(
        np.random.default_rng(2),
        mean_on_s=0.05,
        mean_off_s=0.25,
        snr_penalty_db=10.0,
        horizon_s=horizon_s,
    )
    clients = []
    for i in range(clients_n):
        distance = round(float(rng.uniform(0.3, 2.0)), 2)
        link = InterferedLink(link_map, distance, np.random.default_rng(100 + i), interferer)
        policy = BraidioPolicy(DynamicOffloadController(link_map))
        radio = BraidioRadio.for_device("Apple Watch")
        clients.append(HubClient(name=f"d{i}", radio=radio, link=link, policy=policy))
    weights = {client.name: 1.0 + i % 3 for i, client in enumerate(clients)}
    tdma = TdmaSchedule(weights, round_packets=2 * clients_n)
    session = HubSession(
        sim, BraidioRadio.for_device("Nexus 6P"), clients, tdma, max_time_s=horizon_s
    )
    for i, client in enumerate(clients):
        start = 0.1 + 0.05 * (i // 10)
        nap = 0.05 + 0.01 * (i % 10)
        sim.schedule_at(start, functools.partial(session.suspend_client, client.name))
        sim.schedule_at(start + nap, functools.partial(session.resume_client, client.name))
    session.run()
    return sim, session, clients


def _assert_same_session(reference, chained):
    ref_sim, ref_session, ref_clients = reference
    sim, session, clients = chained
    assert session.hub_metrics == ref_session.hub_metrics
    assert (
        session.hub_metrics.ledger.comparable_state()
        == ref_session.hub_metrics.ledger.comparable_state()
    )
    for ref_client, client in zip(ref_clients, clients):
        assert client.metrics == ref_client.metrics, client.name
        assert client.radio.battery.remaining_j == ref_client.radio.battery.remaining_j
    assert sim.processed_events == ref_sim.processed_events
    assert sim.now_s == ref_sim.now_s


def test_churned_interfered_hub_matches_the_reference_kernel():
    reference = _churned_interfered_hub(DecliningSimulator)
    chained = _churned_interfered_hub(Simulator)
    assert reference[1].hub_metrics.packets_attempted > 3_000
    assert reference[1].churn_resumes == 100
    _assert_same_session(reference, chained)


def _two_client_hub(kernel_cls, observe_at_packets, packets=60):
    """Two fixed-rate clients; at the exact start time of chosen packets
    an earlier-scheduled event suspends or resumes client ``b``."""
    sim = kernel_cls(seed=0)
    link_map = LinkMap()
    clients = [
        HubClient(
            name=name,
            radio=BraidioRadio.for_device("Apple Watch"),
            link=SimulatedLink(link_map, 0.5, np.random.default_rng(seed)),
            policy=BluetoothPolicy(),
        )
        for seed, name in enumerate("ab")
    ]
    session = HubSession(
        sim,
        BraidioRadio.for_device("Nexus 6P"),
        clients,
        TdmaSchedule({"a": 1.0, "b": 1.0}, round_packets=2),
        max_packets=packets,
    )
    payload_bytes = 30
    air_bits = 8 * payload_bytes + FRAME_OVERHEAD_BITS
    duration_s = air_bits / BluetoothPolicy().next_packet().bitrate_bps
    # Packet k starts at the k-fold sum of its duration, accumulated the
    # way the kernel accumulates it.
    starts = [0.0]
    for _ in range(packets):
        starts.append(starts[-1] + duration_s)
    seen = []

    def observe(flip):
        seen.append((sim.now_s, session.hub_metrics.packets_attempted))
        if flip == "suspend":
            session.suspend_client("b")
        else:
            session.resume_client("b")

    for k, flip in observe_at_packets:
        sim.schedule_at(starts[k], functools.partial(observe, flip))
    session.run()
    return sim, session, clients, seen, starts


def test_event_due_at_exactly_a_packet_time_runs_first():
    flips = [(5, "suspend"), (9, "resume"), (17, "suspend"), (18, "resume")]
    ref_sim, ref_session, ref_clients, ref_seen, starts = _two_client_hub(
        DecliningSimulator, flips
    )
    sim, session, clients, seen, _ = _two_client_hub(Simulator, flips)
    # Each observer ran before the packet due at its instant.
    assert ref_seen == [(starts[k], k) for k, _ in flips]
    assert seen == ref_seen
    _assert_same_session((ref_sim, ref_session, ref_clients), (sim, session, clients))


# -- pair sessions -------------------------------------------------------------


def _pair(kernel_cls, link_distance_m, policy, seed, **session_kwargs):
    sim = kernel_cls(seed=seed)
    device_a = BraidioRadio.for_device("Apple Watch")
    device_a.battery = Battery(1.0)
    device_b = BraidioRadio.for_device("iPhone 6S")
    device_b.battery = Battery(1.0)
    link = SimulatedLink(LinkMap(), link_distance_m, sim.rng)
    session = CommunicationSession(sim, device_a, device_b, link, policy, **session_kwargs)
    return sim, session


def _mobile_faulted_pair(kernel_cls):
    """A hardened ARQ pair under the ``chaos`` fault plan whose separation
    walks between 0.3 and 2.2 m in 5 ms ticks, so mobility ticks and
    fault edges fall between packets all through the run and the tag
    harvests at whatever distance the last tick set."""
    policy = BraidioPolicy()
    sim, session = _pair(
        kernel_cls, 0.3, policy, seed=3,
        arq=True, max_packets=1500, watchdog_packets=24, max_resyncs=6,
        resync_backoff_s=0.02, tag_harvester=RfHarvester(),
    )
    injector = FaultInjector(fault_plan_for("chaos"), seed=0).arm(session)
    walk = LinearWalk(start_m=0.3, speed_m_s=4.0, min_m=0.3, max_m=2.2)
    driver = MobilityDriver(sim, session.link, [policy], walk, update_interval_s=0.005)
    driver.start()
    session.run()
    return sim, session, driver, injector


def _assert_same_pair(reference, chained):
    (ref_sim, ref_session), (sim, session) = reference[:2], chained[:2]
    assert session.metrics == ref_session.metrics
    assert session.ledger.comparable_state() == ref_session.ledger.comparable_state()
    assert sim.processed_events == ref_sim.processed_events
    assert sim.now_s == ref_sim.now_s


def test_mobile_faulted_pair_matches_the_reference_kernel():
    reference = _mobile_faulted_pair(DecliningSimulator)
    chained = _mobile_faulted_pair(CountingSimulator)
    _assert_same_pair(reference, chained)
    assert chained[2].updates == reference[2].updates
    assert chained[3].timeline == reference[3].timeline


def test_mobile_faulted_pair_keeps_its_pinned_results():
    # Values of the one-event-per-packet session loop, pinned.
    sim, session, driver, injector = _mobile_faulted_pair(CountingSimulator)
    metrics = session.metrics
    assert sim.processed_events == 2002
    assert driver.updates == 153
    assert len(injector.timeline) == 6
    assert (metrics.packets_attempted, metrics.packets_delivered) == (1842, 1458)
    assert (metrics.retransmissions, metrics.mode_switches) == (342, 9)
    assert metrics.duration_s == 0.7662719999999984
    assert metrics.terminated_by == "packets"
    assert (metrics.energy_a_j, metrics.energy_b_j) == (
        0.04137766797678077,
        0.042207875366552496,
    )
    assert session.ledger.snapshot().category_totals() == {
        "tx_air": 0.026304206682796226,
        "rx_air": 0.023478872474837983,
        "ack": 0.017681645603037005,
        "carrier": 0.003300336000000004,
        "mode_switch": 4.4604144e-05,
        "idle": 0.0,
        "harvest_credit": 4.1768920575359627e-07,
        "retransmit": 0.012820900271867153,
        "fault": 0.0,
    }


def test_pair_chains_end_only_where_another_event_falls():
    sim, session, driver, injector = _mobile_faulted_pair(CountingSimulator)
    assert sim.chained > 1_000
    # Events the calendar popped: mobility ticks, fault edges and the
    # packet that starts each chain.  A chain ends only because an
    # other event is due first, so there are at most that many more
    # chains than the one the session started with.
    others = driver.updates + len(injector.timeline)
    chains = sim.processed_events - sim.chained - others
    assert 1 <= chains <= others + 1


def test_arq_retransmissions_chain():
    # At 2.2 m backscatter loses a good share of its frames.  Nothing
    # else is scheduled, so the whole session, retransmissions included,
    # runs as one chain after the first packet.
    def lossy(kernel_cls):
        sim, session = _pair(
            kernel_cls, 2.2, FixedModePolicy(LinkMode.BACKSCATTER), seed=1,
            arq=True, max_packets=300,
        )
        session.run()
        return sim, session

    reference = lossy(DecliningSimulator)
    chained = lossy(CountingSimulator)
    _assert_same_pair(reference, chained)
    sim, session = chained
    assert session.metrics.retransmissions > 300
    assert session.metrics.arq_failures > 0
    assert sim.processed_events - sim.chained == 1


# -- deployment regions --------------------------------------------------------


def _region_reports(monkeypatch, kernel_cls, spec, fault_plan):
    kernels, lanes = [], []
    monkeypatch.setattr(
        region_module, "Simulator", _recording(kernel_cls, kernels, lanes)
    )
    reports = [simulate_region(spec, region, fault_plan) for region in partition(spec).regions]
    assert all(isinstance(kernel, kernel_cls) for kernel in kernels + lanes)
    # A kernel's processed events include its lanes'.
    return reports, sum(kernel.processed_events for kernel in kernels), len(kernels), len(lanes)


@pytest.mark.parametrize("armed", [True, False], ids=["metro-chaos", "unarmed"])
def test_city_regions_match_the_reference_kernel(monkeypatch, armed):
    spec = city_scenario(
        "chain-city",
        n_clusters=1,
        devices_per_hub=20,
        warmup_s=0.5,
        duration_s=1.5,
        lp_plan=False,
    )
    plan = region_fault_plan_for("metro-chaos", spec) if armed else None
    reference, ref_events, ref_kernels, ref_lanes = _region_reports(
        monkeypatch, DecliningSimulator, spec, plan
    )
    chained, events, kernels, lanes = _region_reports(monkeypatch, Simulator, spec, plan)
    if armed:
        # One region kernel per region with one lane per hub (declining
        # in the reference), and hub-to-hub handoffs.
        assert kernels == ref_kernels == len(reference)
        assert lanes == ref_lanes == spec.hub_count
        assert sum(r["resilience"]["handoffs"] for r in reference) > 0
    else:
        assert kernels == ref_kernels == spec.hub_count
        assert lanes == ref_lanes == 0
    assert chained == reference
    assert events == ref_events
