"""Unit/integration tests for the packet-level hub session."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.braidio import BraidioRadio
from repro.core.modes import LinkMode
from repro.core.regimes import LinkMap
from repro.hardware.battery import Battery, JOULES_PER_WATT_HOUR as WH
from repro.net import TdmaSchedule
from repro.net.session import HubClient, HubSession
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy, FixedModePolicy
from repro.sim.session import FRAME_OVERHEAD_BITS
from repro.sim.simulator import Simulator

PAYLOAD_SHARE = 240 / (240 + FRAME_OVERHEAD_BITS)


def _build_session(
    hub_wh=2e-4,
    client_whs=(2e-6, 1e-5),
    distances=(0.4, 0.6),
    weights=None,
    seed=0,
    policy=BraidioPolicy,
    **kwargs,
):
    sim = Simulator(seed=seed)
    hub = BraidioRadio.for_device("iPhone 6S")
    hub.battery = Battery(hub_wh)
    clients = []
    link_map = LinkMap()
    for i, (wh, d) in enumerate(zip(client_whs, distances)):
        radio = BraidioRadio.for_device("Apple Watch")
        radio.battery = Battery(wh)
        clients.append(
            HubClient(
                name=f"c{i}",
                radio=radio,
                link=SimulatedLink(link_map, d, sim.rng),
                policy=policy(),
            )
        )
    weights = weights or {c.name: 1.0 for c in clients}
    tdma = TdmaSchedule(weights, round_packets=32)
    session = HubSession(sim, hub, clients, tdma, **kwargs)
    return sim, hub, clients, session


class TestHubSession:
    def test_runs_to_battery_death(self):
        _, hub, clients, session = _build_session(apply_switch_costs=False)
        metrics = session.run()
        assert metrics.terminated_by == "battery"
        assert metrics.packets_attempted > 0

    def test_all_clients_served(self):
        _, _, clients, session = _build_session(
            apply_switch_costs=False, max_packets=640
        )
        session.run()
        for client in clients:
            assert client.metrics.packets_attempted > 0

    def test_air_time_follows_weights(self):
        _, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4),
            weights={"c0": 3.0, "c1": 1.0},
            apply_switch_costs=False,
            max_packets=960,
        )
        session.run()
        ratio = (
            clients[0].metrics.packets_attempted
            / clients[1].metrics.packets_attempted
        )
        assert ratio == pytest.approx(3.0, rel=0.1)

    def test_hub_energy_is_sum_of_client_rx(self):
        _, hub, clients, session = _build_session(
            apply_switch_costs=False, max_packets=500
        )
        metrics = session.run()
        assert metrics.energy_b_j == pytest.approx(
            sum(c.metrics.energy_b_j for c in clients), rel=1e-9
        )

    def test_dead_client_retires_but_session_continues(self):
        _, _, clients, session = _build_session(
            client_whs=(1e-7, 1e-4),  # c0 dies almost immediately
            apply_switch_costs=False,
        )
        session.run()
        assert clients[1].metrics.packets_attempted > (
            clients[0].metrics.packets_attempted
        )

    def test_dead_client_is_retired_for_good(self):
        sim, _, clients, session = _build_session(
            client_whs=(1e-7, 1e-4),  # c0 dies within ~12 ms on ACTIVE
            policy=lambda: FixedModePolicy(LinkMode.ACTIVE),
            max_time_s=0.1,
        )
        sim.schedule_at(0.05, lambda: session.suspend_client("c0"))
        sim.schedule_at(0.06, lambda: session.resume_client("c0"))
        metrics = session.run()
        assert metrics.terminated_by == "time"
        assert session.exhausted_clients == {"c0"}
        # Churn neither suspends nor brings back a dead client.
        assert session.churn_suspensions == session.churn_resumes == 0
        assert clients[0].metrics.suspended_s == 0.0

    def test_rejects_mismatched_tdma(self):
        sim = Simulator()
        hub = BraidioRadio.for_device("iPhone 6S")
        client = HubClient(
            "x",
            BraidioRadio.for_device("Apple Watch"),
            SimulatedLink(LinkMap(), 0.5, sim.rng),
            BraidioPolicy(),
        )
        with pytest.raises(ValueError):
            HubSession(sim, hub, [client], TdmaSchedule({"y": 1.0}))

    def test_rejects_empty_clients(self):
        sim = Simulator()
        hub = BraidioRadio.for_device("iPhone 6S")
        with pytest.raises(ValueError):
            HubSession(sim, hub, [], TdmaSchedule({"x": 1.0}))


def _extra_client(sim, name="guest", distance=0.5, wh=1e-4):
    radio = BraidioRadio.for_device("Apple Watch")
    radio.battery = Battery(wh)
    return HubClient(
        name=name,
        radio=radio,
        link=SimulatedLink(LinkMap(), distance, sim.rng),
        policy=BraidioPolicy(),
    )


class TestPowerCycle:
    def test_blackout_halts_service_and_reboot_resumes_it(self):
        sim, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4),
            apply_switch_costs=False,
            max_time_s=0.4,
        )
        total = lambda: sum(c.metrics.packets_attempted for c in clients)
        marks = {}
        sim.schedule_at(0.10, session.power_down)
        sim.schedule_at(0.12, lambda: marks.setdefault("early", total()))
        sim.schedule_at(0.24, lambda: marks.setdefault("late", total()))
        sim.schedule_at(0.25, session.power_up)
        metrics = session.run()
        assert marks["early"] == marks["late"]  # nothing served while dark
        assert total() > marks["late"]  # serving resumed after reboot
        assert metrics.reboots == 1
        assert session.power_downs == 1
        assert session.powered_down_s == pytest.approx(0.15, abs=1e-9)
        assert not session.powered_down

    def test_power_edges_are_idempotent(self):
        _, _, _, session = _build_session(max_time_s=0.1)
        session.power_up()  # no-op when not dark
        session.power_down()
        session.power_down()  # no-op when already dark
        assert session.power_downs == 1
        assert session.powered_down
        session.power_up()
        session.power_up()
        assert session.hub_metrics.reboots == 1

    def test_terminating_while_dark_settles_down_time(self):
        sim, _, _, session = _build_session(max_time_s=0.2)
        sim.schedule_at(0.1, session.power_down)
        session.run()
        assert session.powered_down_s == pytest.approx(0.1, abs=1e-9)

    def test_resume_during_blackout_of_an_idle_hub_serves_after_reboot(self):
        # Everyone asleep idles the hub; a client that wakes while the hub
        # is dark is served once power_up() re-arms the serve chain.
        sim, _, clients, session = _build_session(max_time_s=1.0)
        served = lambda: clients[0].metrics.packets_attempted
        marks = {}
        for name in ("c0", "c1"):
            sim.schedule_at(0.1, lambda name=name: session.suspend_client(name))
        sim.schedule_at(0.2, session.power_down)
        sim.schedule_at(0.3, lambda: session.resume_client("c0"))
        sim.schedule_at(0.4, lambda: marks.setdefault("reboot", served()))
        sim.schedule_at(0.4, session.power_up)
        session.run()
        assert served() > marks["reboot"]

    def test_resume_after_reboot_of_an_idle_hub_serves(self):
        # The chain idled before the blackout, so power_up() owes nothing;
        # the first resume after it restarts serving.
        sim, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4), max_time_s=0.5
        )
        served = lambda: sum(c.metrics.packets_attempted for c in clients)
        marks = {}
        for name in ("c0", "c1"):
            sim.schedule_at(0.1, lambda name=name: session.suspend_client(name))
        sim.schedule_at(0.15, lambda: marks.setdefault("asleep", served()))
        sim.schedule_at(0.2, session.power_down)
        sim.schedule_at(0.3, session.power_up)
        sim.schedule_at(0.35, lambda: marks.setdefault("rebooted", served()))
        sim.schedule_at(0.4, lambda: session.resume_client("c1"))
        session.run()
        assert marks["asleep"] == marks["rebooted"]  # nobody awake to serve
        assert clients[1].metrics.packets_attempted > 0
        assert served() > marks["rebooted"]

    def test_resume_during_blackout_of_a_busy_hub_serves_both_after_reboot(self):
        # c1 keeps the chain alive until the blackout kills it; c0 wakes
        # while the hub is dark and joins the one chain power_up() re-arms.
        sim, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4), max_time_s=0.5
        )
        marks = {}
        sim.schedule_at(0.1, lambda: session.suspend_client("c0"))
        sim.schedule_at(0.2, session.power_down)
        sim.schedule_at(0.25, lambda: session.resume_client("c0"))
        sim.schedule_at(
            0.3,
            lambda: marks.setdefault(
                "reboot", [c.metrics.packets_attempted for c in clients]
            ),
        )
        sim.schedule_at(0.3, session.power_up)
        session.run()
        for client, at_reboot in zip(clients, marks["reboot"]):
            assert client.metrics.packets_attempted > at_reboot


class _StartLog(BraidioPolicy):
    """A Braidio policy that counts its (re-)negotiations."""

    def __init__(self):
        super().__init__()
        self.starts = 0

    def start(self, distance_m, e1_j, e2_j):
        self.starts += 1
        super().start(distance_m, e1_j, e2_j)


class TestDarkResume:
    def test_resume_on_a_dark_hub_replans_at_power_up(self):
        # On a region kernel the device battery of a client that wakes on
        # a dark hub may be draining through a twin on another hub's lane,
        # so its re-plan waits for power_up, which re-plans every live
        # client anyway.  A resume on a lit hub re-plans at once.
        sim, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4), max_time_s=0.5, policy=_StartLog
        )
        policy = clients[0].policy
        starts = {}
        sim.schedule_at(0.1, lambda: session.suspend_client("c0"))
        sim.schedule_at(0.2, session.power_down)
        sim.schedule_at(0.25, lambda: session.resume_client("c0"))
        sim.schedule_at(0.3, session.power_up)
        sim.schedule_at(0.35, lambda: session.suspend_client("c0"))
        sim.schedule_at(0.4, lambda: session.resume_client("c0"))
        for label, at_s in (("dark", 0.26), ("rebooted", 0.31), ("lit", 0.41)):
            sim.schedule_at(
                at_s, lambda label=label: starts.setdefault(label, policy.starts)
            )
        session.run()
        assert starts == {"dark": 1, "rebooted": 2, "lit": 3}
        assert session.churn_resumes == 2


class TestHubDeterminism:
    def test_faulted_hub_run_replays_bit_identically(self):
        # Churn, a blackout and a brownout overlapping on an adaptive hub.
        def run():
            sim, _, clients, session = _build_session(
                client_whs=(1e-4, 1e-4), max_time_s=0.12
            )
            sim.schedule_at(0.02, lambda: session.suspend_client("c1"))
            sim.schedule_at(0.03, session.begin_brownout)
            sim.schedule_at(0.04, session.power_down)
            sim.schedule_at(0.05, lambda: session.resume_client("c1"))
            sim.schedule_at(0.06, session.power_up)
            sim.schedule_at(0.08, session.end_brownout)
            metrics = session.run()
            return (
                metrics._comparable_state(),
                [c.metrics._comparable_state() for c in clients],
                session.powered_down_s,
                session.suspended_time_s,
                sim.rng.bit_generator.state,
            )

        first = run()
        assert first[0][3] > 0  # packets were attempted
        assert run() == first


class _OutcomeLog(FixedModePolicy):
    """Fixed-mode policy that logs (start time, success) for every packet."""

    def __init__(self, sim, mode, log):
        super().__init__(mode)
        self._sim, self._log = sim, log

    def record_outcome(self, mode, success):
        self._log.append((self._sim.now_s, success))
        super().record_outcome(mode, success)


def _outcomes(edges, mode=LinkMode.BACKSCATTER, max_time_s=0.1):
    """(start time, success) of every packet of a two-client fixed-mode
    hub, with ``edges`` ((time, session method name) pairs) scheduled."""
    sim, _, clients, session = _build_session(
        client_whs=(1e-4, 1e-4), max_time_s=max_time_s
    )
    log = []
    for client in clients:
        client.policy = _OutcomeLog(sim, mode, log)
    for when, edge in edges:
        sim.schedule_at(when, getattr(session, edge))
    session.run()
    return log


def _assert_failed_exactly_within(browned, plain, begin_s, end_s):
    """``browned`` sent ``plain``'s packets at the same times, and failed
    every one that started in [begin_s, end_s) and no other."""
    assert [t for t, _ in browned] == [t for t, _ in plain]
    assert any(ok for t, ok in plain if begin_s <= t < end_s)
    for (t, ok), (_, plain_ok) in zip(browned, plain):
        assert ok == (plain_ok and not begin_s <= t < end_s), t


def _browned_out_run(mode, brownout):
    sim, _, _, session = _build_session(
        client_whs=(1e-4, 1e-4),
        policy=lambda: FixedModePolicy(mode),
        max_time_s=0.1,
    )
    if brownout:
        sim.schedule_at(0.02, session.begin_brownout)
        sim.schedule_at(0.03, session.begin_brownout)  # windows nest
        sim.schedule_at(0.05, session.end_brownout)
        sim.schedule_at(0.07, session.end_brownout)
    metrics = session.run()
    return metrics, sim.rng.bit_generator.state


class TestBrownout:
    @pytest.mark.parametrize("mode", [LinkMode.BACKSCATTER, LinkMode.PASSIVE])
    def test_carrier_packets_fail_without_moving_the_link_stream(self, mode):
        plain, plain_rng = _browned_out_run(mode, brownout=False)
        browned, browned_rng = _browned_out_run(mode, brownout=True)
        assert browned.packets_attempted == plain.packets_attempted
        assert browned.packets_delivered < plain.packets_delivered
        # One link draw per packet, failed by the brownout or not.
        assert browned_rng == plain_rng

    def test_active_packets_are_untouched(self):
        plain, _ = _browned_out_run(LinkMode.ACTIVE, brownout=False)
        browned, _ = _browned_out_run(LinkMode.ACTIVE, brownout=True)
        assert browned._comparable_state() == plain._comparable_state()

    def test_packets_fail_exactly_inside_the_window(self):
        # Edges are kernel events between serve chains, so the packet
        # after an edge already sees the new state.
        browned = _outcomes(((0.02, "begin_brownout"), (0.05, "end_brownout")))
        _assert_failed_exactly_within(browned, _outcomes(()), 0.02, 0.05)

    def test_nested_windows_fail_until_the_outermost_end(self):
        browned = _outcomes(
            (
                (0.02, "begin_brownout"),
                (0.03, "begin_brownout"),
                (0.05, "end_brownout"),
                (0.07, "end_brownout"),
            )
        )
        _assert_failed_exactly_within(browned, _outcomes(()), 0.02, 0.07)

    def test_reboot_does_not_clear_a_brownout(self):
        blackout = ((0.03, "power_down"), (0.04, "power_up"))
        browned = _outcomes(
            ((0.02, "begin_brownout"), *blackout, (0.06, "end_brownout"))
        )
        _assert_failed_exactly_within(browned, _outcomes(blackout), 0.02, 0.06)

    def test_adopted_client_rides_the_browned_carrier(self):
        def guest_log(brownout):
            sim, _, _, session = _build_session(
                client_whs=(1e-4, 1e-4),
                policy=lambda: FixedModePolicy(LinkMode.ACTIVE),
                max_time_s=0.1,
            )
            log = []
            guest = _extra_client(sim)
            guest.policy = _OutcomeLog(sim, LinkMode.BACKSCATTER, log)
            if brownout:
                sim.schedule_at(0.01, session.begin_brownout)
            sim.schedule_at(0.02, lambda: session.adopt_client(guest))
            session.run()
            return [ok for _, ok in log]

        assert any(guest_log(brownout=False))
        browned = guest_log(brownout=True)
        assert browned and not any(browned)


class TestAdoptRelease:
    def test_adopted_client_gets_served(self):
        sim, _, clients, session = _build_session(
            client_whs=(1e-4, 1e-4),
            apply_switch_costs=False,
            max_time_s=0.3,
        )
        guest = _extra_client(sim)
        sim.schedule_at(0.1, lambda: session.adopt_client(guest, weight=2.0))
        session.run()
        assert "guest" in session.client_names
        assert guest.metrics.packets_attempted > 0
        assert session.adoptions == 1

    def test_release_returns_the_client_and_stops_serving_it(self):
        _, _, clients, session = _build_session(
            apply_switch_costs=False, max_time_s=0.2
        )
        released = session.release_client("c1")
        assert released is clients[1]
        assert session.client_names == {"c0"}
        assert session.releases == 1
        session.run()
        assert clients[1].metrics.packets_attempted == 0

    def test_release_unknown_and_last_client_rejected(self):
        _, _, _, session = _build_session(max_time_s=0.1)
        with pytest.raises(KeyError):
            session.release_client("nobody")
        session.release_client("c1")
        with pytest.raises(ValueError, match="last client"):
            session.release_client("c0")

    def test_adopt_rejects_duplicates_and_dead_states(self):
        sim, _, _, session = _build_session(max_time_s=0.05)
        duplicate = _extra_client(sim, name="c0")
        with pytest.raises(ValueError, match="already attached"):
            session.adopt_client(duplicate)
        session.power_down()
        with pytest.raises(RuntimeError, match="powered-down"):
            session.adopt_client(_extra_client(sim))
        session.power_up()
        session.run()
        with pytest.raises(RuntimeError, match="finished"):
            session.adopt_client(_extra_client(sim, name="late"))

    def test_finish_is_idempotent(self):
        sim, _, _, session = _build_session(max_time_s=None, max_packets=None)
        session.start()
        sim.run(until_s=0.05)
        first = session.finish("time")
        assert session.finished
        assert first.terminated_by == "time"
        assert session.finish("battery") is first
        assert first.terminated_by == "time"  # reason locked at first finish


class _EagerRebuildSession(HubSession):
    """Reference: the original rebuild, one ``base.without(inactive)``
    schedule built at every membership event."""

    def _rebuild_schedule(self):
        inactive = self._exhausted | set(self._suspended)
        if not inactive:
            self._tdma = self._base_tdma
        elif len(inactive) < len(self._clients):
            self._tdma = self._base_tdma.without(inactive)


class _ServeLog(FixedModePolicy):
    """Active-mode policy that logs (time, client) for every packet."""

    def __init__(self, sim, name, log):
        super().__init__(LinkMode.ACTIVE)
        self._sim, self._name, self._log = sim, name, log

    def next_packet(self):
        self._log.append((self._sim.now_s, self._name))
        return super().next_packet()


# Bursts of churn landing between two packets (one packet is ~0.33 ms).
_T1, _T2, _T3 = 0.0101, 0.0203, 0.0305
_CHURN = (
    (_T1, "suspend", "c0"),
    (_T1, "suspend", "c1"),
    (_T1, "resume", "c0"),
    (_T1, "suspend", "c3"),
    (_T1, "resume", "c1"),
    # Every client asleep, then one wakes, all at the same instant.
    (_T2, "suspend", "c0"),
    (_T2, "suspend", "c1"),
    (_T2, "suspend", "c2"),
    (_T2, "resume", "c2"),
    (_T3, "resume", "c0"),
    (_T3, "suspend", "c2"),
    (_T3, "resume", "c3"),
    (_T3, "resume", "c1"),
)


def _logged_session(sim, weights, log, max_time_s, session_cls=HubSession):
    """ACTIVE clients at 0.5 m, one per ``weights`` entry, whose packets
    append (time, client) to ``log``."""
    hub = BraidioRadio.for_device("iPhone 6S")
    clients = []
    for name in weights:
        radio = BraidioRadio.for_device("Apple Watch")
        radio.battery = Battery(1e-3)
        clients.append(
            HubClient(
                name=name,
                radio=radio,
                link=SimulatedLink(LinkMap(), 0.5, sim.rng),
                policy=_ServeLog(sim, name, log),
            )
        )
    tdma = TdmaSchedule(weights, round_packets=16)
    return session_cls(sim, hub, clients, tdma, max_time_s=max_time_s)


def _churned_serve_log(session_cls, monkeypatch):
    builds = []
    original_init = TdmaSchedule.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(None)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(TdmaSchedule, "__init__", counting_init)
    sim = Simulator(seed=3)
    log = []
    weights = {"c0": 1.0, "c1": 2.0, "c2": 3.0, "c3": 1.0}
    session = _logged_session(sim, weights, log, 0.04, session_cls)
    for when, kind, name in _CHURN:
        action = session.suspend_client if kind == "suspend" else session.resume_client
        sim.schedule_at(when, lambda action=action, name=name: action(name))
    session.run()
    monkeypatch.undo()
    return log, len(builds)


class TestDeferredRebuild:
    def test_churn_bursts_serve_what_eager_rebuilds_served(self, monkeypatch):
        eager_log, eager_builds = _churned_serve_log(_EagerRebuildSession, monkeypatch)
        deferred_log, deferred_builds = _churned_serve_log(HubSession, monkeypatch)
        assert deferred_log == eager_log
        assert {name for t, name in deferred_log if _T2 < t < _T3} == {"c2"}
        assert {name for t, name in deferred_log if _T1 < t < _T2} == {"c0", "c1", "c2"}
        assert {name for t, name in deferred_log if t > _T3} == {"c0", "c1", "c3"}
        # One build per burst instead of one per event: the initial
        # schedule, then one per burst (T1, T2, T3).
        assert deferred_builds == 4
        assert eager_builds > deferred_builds


# Serve-chain property: membership and power events land on a grid of
# _HORIZON_S / _GRID (15.6 ms) cells, so a cell in which the hub is up
# and some client is awake spans more than 10 ms and must carry a packet.
_HORIZON_S = 0.25
_GRID = 16
_CELL_S = _HORIZON_S / _GRID
_AIR_S = (240 + FRAME_OVERHEAD_BITS) / 1e6  # one ACTIVE packet at 1 Mbps


def _serve_times(events):
    """Serve two ACTIVE clients under ``events`` ((cell, kind, client)
    triples, fired in list order within a cell); returns the packet start
    times and, per cell, whether the hub was up with some client awake
    once that cell's events had fired."""
    sim = Simulator(seed=0)
    log = []
    session = _logged_session(sim, {"c0": 1.0, "c1": 1.0}, log, _HORIZON_S)
    actions = {
        "suspend": session.suspend_client,
        "resume": session.resume_client,
        "power_down": lambda _: session.power_down(),
        "power_up": lambda _: session.power_up(),
    }
    for cell, kind, name in events:
        action = actions[kind]
        sim.schedule_at(cell * _CELL_S, lambda action=action, name=name: action(name))
    session.run()

    up, asleep, serving = True, set(), []
    fired = sorted(events, key=lambda event: event[0])  # stable: list order
    for cell in range(_GRID):
        for _, kind, name in (e for e in fired if e[0] == cell):
            if kind == "suspend":
                asleep.add(name)
            elif kind == "resume":
                asleep.discard(name)
            else:
                up = kind == "power_up"
        serving.append(up and len(asleep) < 2)
    return [t for t, _ in log], serving


# Sleep windows per client and blackout windows for the hub, as
# (start cell, length in cells); a window still open at the horizon has
# no closing event.
_WINDOWS = st.lists(
    st.tuples(st.integers(0, _GRID - 1), st.integers(0, _GRID)), max_size=2
)


@st.composite
def _churn_and_blackouts(draw):
    events = []
    for name, (begin, end) in (
        ("c0", ("suspend", "resume")),
        ("c1", ("suspend", "resume")),
        ("c0", ("power_down", "power_up")),
    ):
        for start, length in draw(_WINDOWS):
            events.append((start, begin, name))
            if start + length < _GRID:
                events.append((start + length, end, name))
    # The list order decides the firing order of events in one cell.
    return draw(st.permutations(events))


class TestServeChain:
    @settings(max_examples=200, deadline=None)
    @given(_churn_and_blackouts())
    @example(
        [
            (0, "suspend", "c0"),
            (0, "suspend", "c1"),
            (8, "power_down", "c0"),
            (8, "resume", "c0"),
            (10, "power_up", "c0"),
        ]
    )
    def test_one_chain_never_lost(self, events):
        times, serving = _serve_times(events)
        # At most one chain: packets never overlap on the air.
        assert all(b - a >= _AIR_S * (1 - 1e-9) for a, b in zip(times, times[1:]))
        # No lost chain: every cell the hub could serve carries a packet.
        for cell, should_serve in enumerate(serving):
            if should_serve:
                start = cell * _CELL_S
                assert any(start <= t < start + _CELL_S for t in times), cell


class TestLpUpperBound:
    def test_des_fleet_bits_bounded_by_lp(self):
        # The fleet LP is the offline optimum; the online TDMA session
        # cannot beat it, and with proportional controllers it should land
        # within ~25% of it.
        hub_wh, client_whs, distances = 2e-4, (2e-6, 1e-5), (0.4, 0.6)
        _, _, clients, session = _build_session(
            hub_wh=hub_wh,
            client_whs=client_whs,
            distances=distances,
            apply_switch_costs=False,
        )
        metrics = session.run()
        des_air_bits = metrics.bits_attempted / PAYLOAD_SHARE

        # Solve the fleet LP on the same raw joule budgets (HubNetwork
        # takes catalog devices, so use the flattened-cost helper
        # directly).
        from repro.net.hub import _flatten_costs
        from scipy.optimize import linprog
        import numpy as np

        points = [
            LinkMap().available_powers(d) for d in distances
        ]
        offsets, t_cost, r_cost = _flatten_costs(points)
        energies = [wh * WH for wh in client_whs]
        hub_energy = hub_wh * WH
        n = len(t_cost)
        a_rows = []
        b_vals = []
        for i, (start, end) in enumerate(offsets):
            row = np.zeros(n)
            row[start:end] = t_cost[start:end]
            a_rows.append(row)
            b_vals.append(energies[i])
        a_rows.append(np.asarray(r_cost))
        b_vals.append(hub_energy)
        bit_unit = min(energies + [hub_energy]) / min(t_cost)
        result = linprog(
            -np.ones(n),
            A_ub=np.vstack(a_rows) * bit_unit,
            b_ub=np.asarray(b_vals),
            bounds=[(0.0, None)] * n,
            method="highs",
        )
        lp_bits = float(-result.fun) * bit_unit

        assert des_air_bits <= lp_bits * 1.01
        assert des_air_bits >= lp_bits * 0.7
