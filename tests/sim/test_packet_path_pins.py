"""Pins of what the per-packet path computes, byte for byte.

Both serve loops (``CommunicationSession._send_packet`` and
``HubSession._serve_packet``) share the link draw, the policy's decision
and outcome calls and the ledger's attribution.  These pins cover the
cases no other pin reaches, each as the SHA-256 of the canonical JSON of
the session's full comparable state (every counter, every ledger
category and metered total per account, both pools) together with its
ledger snapshot (which adds each battery's remaining charge):

* an ARQ pair session that dies on an empty battery in the middle of a
  packet, once on each side, so the fatal packet's attribution, metering
  and partial drain are pinned;
* a fading pair session whose fading process draws from the kernel's
  generator, between the link's own draws;
* the ``braidio-arq`` energy profile and the ``chaos`` fault profile at
  seed 7;
* the per-packet (time, client, mode, success) log of a churned hub
  whose links all see co-channel bursts, built like the hub bench in
  ``benchmarks/test_performance_des.py``, with the hub's and every
  client's state.

The values are those of a link that drew one scalar uniform per packet,
a ledger that took separate attribution, metering and drain calls, and a
controller that derived each packet's mode from the schedule on every
call.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.analysis.energy_report import run_energy_session
from repro.core.braidio import BraidioRadio
from repro.core.controller import DynamicOffloadController
from repro.core.records import canonical_json
from repro.core.regimes import LinkMap
from repro.energy import conservation_residual_j
from repro.faults import run_fault_session
from repro.hardware.battery import Battery
from repro.net import TdmaSchedule
from repro.net.session import HubClient, HubSession
from repro.phy.fading import BlockFadingProcess, RayleighFading
from repro.sim.interference import BurstyInterferer, InterferedLink
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator


def session_state(metrics) -> str:
    """Canonical JSON of a session's full comparable state and ledger."""
    state = list(metrics._comparable_state())
    state[4] = sorted((mode.value, count) for mode, count in state[4].items())
    return canonical_json({"ledger": metrics.ledger_snapshot().to_dict(), "state": state})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pair(battery_a_wh=1.0, battery_b_wh=1.0, seed=0):
    sim = Simulator(seed=seed)
    a = BraidioRadio.for_device("Apple Watch")
    a.battery = Battery(battery_a_wh)
    b = BraidioRadio.for_device("iPhone 6S")
    b.battery = Battery(battery_b_wh)
    return sim, a, b


#: side -> (its battery in Wh, distance in m): A falls back from
#: backscatter to active at 0.9 m; B receives lossy passive at 2.8 m.
DYING = {"a": (2e-6, 0.9), "b": (2e-9, 2.8)}


def _dying_arq_session(side: str):
    """An ARQ session whose ``side`` battery holds a few hundred
    packets' worth of charge."""
    tiny_wh, distance_m = DYING[side]
    sim, a, b = _pair(
        battery_a_wh=tiny_wh if side == "a" else 1.0,
        battery_b_wh=tiny_wh if side == "b" else 1.0,
        seed=3,
    )
    initial_j = (a if side == "a" else b).battery.remaining_j
    link = SimulatedLink(LinkMap(), distance_m, sim.rng)
    session = CommunicationSession(
        sim, a, b, link, BraidioPolicy(), arq=True, max_packets=50_000
    )
    metrics = session.run()
    return metrics, initial_j


def _fading_session():
    sim, a, b = _pair(seed=4)
    fading = BlockFadingProcess(RayleighFading(), coherence_s=0.002, rng=sim.rng)
    link = SimulatedLink(LinkMap(), 0.8, sim.rng, fading=fading)
    session = CommunicationSession(
        sim, a, b, link, BraidioPolicy(), arq=True, max_packets=1500
    )
    return session.run()


class _LoggedPolicy:
    """A client policy that logs every reported outcome with its client
    and the simulated time."""

    def __init__(self, policy, sim, name, log):
        self._policy = policy
        self._sim = sim
        self._name = name
        self._log = log

    def start(self, distance_m, e1_j, e2_j):
        self._policy.start(distance_m, e1_j, e2_j)

    def next_packet(self):
        return self._policy.next_packet()

    def record_outcome(self, mode, success):
        self._log.append((self._sim.now_s, self._name, mode.value, success))
        self._policy.record_outcome(mode, success)

    def update_energy(self, e1_j, e2_j):
        self._policy.update_energy(e1_j, e2_j)

    def update_distance(self, distance_m):
        self._policy.update_distance(distance_m)


def _churned_interfered_hub(n_clients=40, horizon_s=4.0):
    """The hub bench's build at a smaller size: a shared planning map,
    interfered links, a two-slot-per-client TDMA round and staggered
    naps, every client's outcomes logged."""
    sim = Simulator(seed=0)
    rng = np.random.default_rng(1)
    link_map = LinkMap()
    interferer = BurstyInterferer(
        np.random.default_rng(2),
        mean_on_s=0.05,
        mean_off_s=0.25,
        snr_penalty_db=10.0,
        horizon_s=horizon_s,
    )
    log: list = []
    clients = []
    for i in range(n_clients):
        name = f"d{i}"
        distance = round(float(rng.uniform(0.3, 2.0)), 2)
        link = InterferedLink(link_map, distance, np.random.default_rng(100 + i), interferer)
        policy = _LoggedPolicy(
            BraidioPolicy(DynamicOffloadController(link_map)), sim, name, log
        )
        radio = BraidioRadio.for_device("Apple Watch")
        clients.append(HubClient(name=name, radio=radio, link=link, policy=policy))
    weights = {client.name: 1.0 + i % 3 for i, client in enumerate(clients)}
    tdma = TdmaSchedule(weights, round_packets=2 * n_clients)
    session = HubSession(
        sim, BraidioRadio.for_device("Nexus 6P"), clients, tdma, max_time_s=horizon_s
    )
    for i, client in enumerate(clients):
        start = 0.1 + 0.05 * (i // 10)
        nap = 0.05 + 0.01 * (i % 10)
        sim.schedule_at(start, functools.partial(session.suspend_client, client.name))
        sim.schedule_at(start + nap, functools.partial(session.resume_client, client.name))
    hub_metrics = session.run()
    return session, hub_metrics, log


class TestFatalPacket:
    #: side -> (packets attempted, retransmissions, state digest).
    PINS = {
        "a": (324, 15, "dff9d4932cf67abb31e822e409ebf1d42bd176cc2f4a6e3c8496770a810d5a44"),
        "b": (1083, 117, "4c9f8243072163f61f9ba9d0878ff7ec9090f3946ecc6cf131737e38c3cbed21"),
    }

    @pytest.mark.parametrize("side", sorted(PINS))
    def test_arq_session_dying_mid_packet(self, side):
        metrics, initial_j = _dying_arq_session(side)
        assert metrics.terminated_by == "battery"
        # The fatal packet was metered and attributed in full but only
        # partly drained, so the dead side attributes more than it lost
        # (a fatal mode switch, never attributed, would leave the
        # opposite sign).
        account = metrics.ledger.account(side)
        assert account.remaining_j == 0.0
        assert conservation_residual_j(account, initial_j) < 0.0
        packets, retransmissions, digest = self.PINS[side]
        assert (metrics.packets_attempted, metrics.retransmissions) == (
            packets,
            retransmissions,
        )
        assert _sha256(session_state(metrics)) == digest


class TestSharedGeneratorFading:
    PACKETS = 1518
    DIGEST = "30cfa56c084bf1e9b68f4e90f9fa0224acad1f0765f4d673c9b05f362143404f"

    def test_fading_process_on_the_kernel_generator(self):
        metrics = _fading_session()
        assert metrics.packets_attempted == self.PACKETS
        assert _sha256(session_state(metrics)) == self.DIGEST


class TestProfilesAtSeed7:
    def test_braidio_arq_energy_profile(self):
        metrics = run_energy_session("braidio-arq", seed=7)
        assert _sha256(session_state(metrics)) == (
            "020d22f4e3d7819f463b7248ca7ea7109f4bd8cc81047527139f17bf727b49b7"
        )

    def test_chaos_fault_profile(self):
        metrics, injector = run_fault_session("chaos", seed=7)
        assert metrics.packets_attempted == 2342
        assert _sha256(session_state(metrics)) == (
            "7f5c60524a1277a4b2adc876630e789f5677f953a01e543cbe2693a0e627fe33"
        )
        assert _sha256(canonical_json(injector.timeline)) == (
            "443c33f85f8b185a0295d41bf0654ba07d23ff919a63ee3308503d57d083a688"
        )


class TestChurnedInterferedHub:
    PACKETS = 3828
    LOG_DIGEST = "a3ba9cec19534fd24288b5e3e3c37a10f14f446ffa1ef9ce36c14bca68efd60f"
    STATE_DIGEST = "1046cd83e140d2feabb6fe2df17d8e4bb0001d81b46052695d9b22b7ce0e314e"

    def test_per_packet_log_and_states(self):
        session, hub_metrics, log = _churned_interfered_hub()
        assert hub_metrics.packets_attempted == self.PACKETS == len(log)
        assert _sha256(canonical_json(log)) == self.LOG_DIGEST
        states = [session_state(hub_metrics)] + [
            session_state(session.client(name).metrics)
            for name in sorted(session.client_names)
        ]
        assert _sha256(canonical_json(states)) == self.STATE_DIGEST
