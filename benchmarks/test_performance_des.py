"""Performance bench: discrete-event simulator throughput.

Not a paper figure — this tracks the simulator's own speed (packets
simulated per wall-clock second) so regressions in the hot path show up
in the benchmark history.  The second bench runs the identical session
with link-outcome memoization disabled, so the cache's contribution is
visible in the same history (the two sessions produce bit-identical
metrics; ``tests/sim/test_link_cache.py`` enforces that).  The third
check guards the fault-injection hooks: with an empty plan armed they
must stay within 5% of the unarmed hot path.  The last bench times the
hub layer the deployment simulator spends its time in: one TDMA hub
serving 100 clients through churn, every link under co-channel bursts.
"""

import functools
import time

import numpy as np

from repro.core.braidio import BraidioRadio
from repro.core.controller import DynamicOffloadController
from repro.core.regimes import LinkMap
from repro.faults import FaultInjector, FaultPlan
from repro.hardware.battery import Battery
from repro.net import TdmaSchedule
from repro.net.session import HubClient, HubSession
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator

PACKETS = 5_000

#: Hub bench shape: clients per hub and simulated seconds.
HUB_CLIENTS = 100
HUB_HORIZON_S = 4.0


def _run_session(cache=True, arm_empty_plan=False):
    sim = Simulator(seed=0)
    a = BraidioRadio.for_device("Apple Watch")
    a.battery = Battery(1.0)
    b = BraidioRadio.for_device("iPhone 6S")
    b.battery = Battery(1.0)
    link = SimulatedLink(LinkMap(), 0.4, sim.rng, cache=cache)
    session = CommunicationSession(
        sim, a, b, link, BraidioPolicy(), max_packets=PACKETS
    )
    if arm_empty_plan:
        FaultInjector(FaultPlan.empty()).arm(session)
    return session.run()


def test_performance_des_throughput(benchmark):
    metrics = benchmark(_run_session)
    assert metrics.packets_attempted == PACKETS
    # Mean round time -> packets/second, printed for the record.
    mean_s = benchmark.stats.stats.mean
    print(f"\nDES throughput: {PACKETS / mean_s:,.0f} packets/s "
          f"({mean_s * 1e3:.1f} ms per {PACKETS}-packet session)")
    # Guard rail: with the memoized hot path the simulator should stay
    # above 60k packets/s on any reasonable machine (3x the pre-cache
    # rail of 20k; the reference machine measures ~200k).
    assert PACKETS / mean_s > 60_000


def test_performance_des_throughput_uncached(benchmark):
    metrics = benchmark(_run_session, cache=False)
    assert metrics.packets_attempted == PACKETS
    mean_s = benchmark.stats.stats.mean
    print(f"\nDES throughput (uncached): {PACKETS / mean_s:,.0f} packets/s "
          f"({mean_s * 1e3:.1f} ms per {PACKETS}-packet session)")
    # The pre-memoization rail still holds with the cache off.
    assert PACKETS / mean_s > 20_000


def test_fault_hooks_add_under_five_percent_when_idle():
    """ISSUE guard: arming an empty fault plan must cost <5% throughput.

    Baseline and armed runs are interleaved and the best-of-N times
    compared, so scheduler noise affects both sides equally.  A small
    absolute slack keeps sub-millisecond jitter from flaking the ratio
    on loaded CI machines.
    """
    reps = 7
    baseline_s = armed_s = float("inf")
    _run_session()  # warm import/JIT-ish caches outside the timed loop
    _run_session(arm_empty_plan=True)
    for _ in range(reps):
        start = time.perf_counter()
        plain = _run_session()
        baseline_s = min(baseline_s, time.perf_counter() - start)
        start = time.perf_counter()
        armed = _run_session(arm_empty_plan=True)
        armed_s = min(armed_s, time.perf_counter() - start)
    # The hooks must also not change the results at all.
    assert armed._comparable_state() == plain._comparable_state()
    overhead = armed_s / baseline_s - 1.0
    print(f"\nidle fault-hook overhead: {overhead * 100:+.2f}% "
          f"(baseline {baseline_s * 1e3:.1f} ms, armed {armed_s * 1e3:.1f} ms)")
    assert armed_s <= baseline_s * 1.05 + 2e-3


def _run_hub_session():
    """One hub as the region simulator builds it: a shared planning map,
    interfered links, a 200-packet TDMA round and staggered naps."""
    sim = Simulator(seed=0)
    rng = np.random.default_rng(1)
    link_map = LinkMap()
    interferer = BurstyInterferer(
        np.random.default_rng(2),
        mean_on_s=0.05,
        mean_off_s=0.25,
        snr_penalty_db=10.0,
        horizon_s=HUB_HORIZON_S,
    )
    clients = []
    for i in range(HUB_CLIENTS):
        distance = round(float(rng.uniform(0.3, 2.0)), 2)
        link = InterferedLink(link_map, distance, np.random.default_rng(100 + i), interferer)
        policy = BraidioPolicy(DynamicOffloadController(link_map))
        radio = BraidioRadio.for_device("Apple Watch")
        clients.append(HubClient(name=f"d{i}", radio=radio, link=link, policy=policy))
    weights = {client.name: 1.0 + i % 3 for i, client in enumerate(clients)}
    tdma = TdmaSchedule(weights, round_packets=2 * HUB_CLIENTS)
    session = HubSession(
        sim, BraidioRadio.for_device("Nexus 6P"), clients, tdma, max_time_s=HUB_HORIZON_S
    )
    # Every client naps once; naps start in bursts of ten, so several
    # membership changes land between two packets.
    for i, client in enumerate(clients):
        start = 0.1 + 0.05 * (i // 10)
        nap = 0.05 + 0.01 * (i % 10)
        sim.schedule_at(start, functools.partial(session.suspend_client, client.name))
        sim.schedule_at(start + nap, functools.partial(session.resume_client, client.name))
    return session.run()


def test_performance_hub_session_throughput(benchmark):
    metrics = benchmark(_run_hub_session)
    packets = metrics.packets_attempted
    assert metrics.terminated_by == "time"
    mean_s = benchmark.stats.stats.mean
    print(f"\nhub session throughput: {packets / mean_s:,.0f} packets/s "
          f"({packets} packets, {HUB_CLIENTS} clients, {mean_s * 1e3:.0f} ms)")
    # Guard rail at about half the rate measured on a 2-vCPU x86-64 VM:
    # 33k-44k packets/s with the bisect slot lookup, deferred schedule
    # rebuilds and burst-keyed link memo (21k-24k before them).
    assert packets / mean_s > 17_000
