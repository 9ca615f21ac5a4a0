"""Packet-level simulation of a hub serving multiple clients.

The fleet LP (:mod:`repro.net.hub`) is the analytic upper bound; this
session runs the real dynamics: TDMA slots rotate the hub's radio across
clients, every client pair runs its own carrier-offload controller against
the *shared, shrinking* hub battery, and per-packet losses/switching costs
apply.  As the hub drains, each controller's energy updates see the new
hub level and re-plan — the emergent behaviour the LP idealizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.braidio import BraidioRadio
from ..energy import ChargeCategory
from ..hardware.battery import BatteryEmptyError
from ..hardware.switching import switch_cost
from ..modes import LinkMode
from ..sim.link import SimulatedLink
from ..sim.results import SessionMetrics
from ..sim.session import FRAME_OVERHEAD_BITS
from ..sim.simulator import Simulator
from .tdma import TdmaSchedule

# Category indices and modes hoisted for the per-packet path (see
# DESIGN.md §8; an enum member lookup costs about 0.1 us).
_TX_AIR = int(ChargeCategory.TX_AIR)
_RX_AIR = int(ChargeCategory.RX_AIR)
_CARRIER = int(ChargeCategory.CARRIER)
_MODE_SWITCH = int(ChargeCategory.MODE_SWITCH)
_ACTIVE = LinkMode.ACTIVE
_BACKSCATTER = LinkMode.BACKSCATTER


@dataclass
class HubClient:
    """One uplink client of a hub session.

    Attributes:
        name: unique identifier (must match the TDMA schedule).
        radio: the client end point.
        link: the channel between the client and the hub.
        policy: mode policy for this client's uplink.
        metrics: per-client statistics.
    """

    name: str
    radio: BraidioRadio
    link: SimulatedLink
    policy: object
    metrics: SessionMetrics = field(default_factory=SessionMetrics)


class HubSession:
    """A TDMA uplink session: N clients -> one hub.

    Args:
        simulator: event kernel.
        hub: the hub end point (its battery is shared by every client).
        clients: participating clients.
        tdma: slot schedule (client names must match).
        payload_bytes: data payload per packet.
        apply_switch_costs: charge Table 5 costs on per-client mode
            changes.
        max_packets / max_time_s: stop conditions.
        energy_update_interval: packets between battery refreshes pushed
            to each policy.
    """

    def __init__(
        self,
        simulator: Simulator,
        hub: BraidioRadio,
        clients: list[HubClient],
        tdma: TdmaSchedule,
        payload_bytes: int = 30,
        apply_switch_costs: bool = True,
        max_packets: int | None = None,
        max_time_s: float | None = None,
        energy_update_interval: int = 64,
    ) -> None:
        if not clients:
            raise ValueError("at least one client required")
        names = {c.name for c in clients}
        schedule_names = set(tdma.air_time_shares())
        if names != schedule_names:
            raise ValueError(
                f"TDMA clients {schedule_names} do not match session clients {names}"
            )
        if payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if energy_update_interval <= 0:
            raise ValueError("energy update interval must be positive")

        self._sim = simulator
        self._hub = hub
        self._clients = {c.name: c for c in clients}
        self._tdma = tdma
        # Pending (base schedule, inactive names) rebuild; see
        # _rebuild_schedule.
        self._tdma_recipe: tuple[TdmaSchedule, set[str]] | None = None
        self._payload_bits = 8 * payload_bytes
        self._air_bits = self._payload_bits + FRAME_OVERHEAD_BITS
        self._apply_switch_costs = apply_switch_costs
        self._max_packets = max_packets
        self._max_time_s = max_time_s
        self._energy_update_interval = energy_update_interval

        self._packet_index = 0
        self._last_mode: dict[str, LinkMode | None] = {c.name: None for c in clients}
        self._exhausted: set[str] = set()
        self._finished = False
        self._base_tdma = tdma
        # Churn state (deployment simulator): suspended clients keep their
        # batteries and policies but are skipped by the serve loop until
        # resumed.  Unused -> bit-identical to the pre-churn behavior.
        self._suspended: dict[str, float] = {}
        self._idle = False
        self.churn_suspensions = 0
        self.churn_resumes = 0
        self.suspended_time_s = 0.0
        # Power state (deploy-layer blackouts): a dark hub serves nothing
        # until power_up(); neighbor hubs may adopt its clients meanwhile.
        # Unused -> bit-identical to the pre-failover behavior.
        self._powered_down = False
        self._down_since = 0.0
        # Set when the serve chain died, or was woken from idle, while the
        # hub was dark: power_up() owes the hub one chain.
        self._rearm_on_power_up = False
        # Carrier brownout depth (deploy-layer faults): while positive,
        # carrier-dependent packets fail.
        self._brownout_depth = 0
        self.power_downs = 0
        self.powered_down_s = 0.0
        self.adoptions = 0
        self.releases = 0
        self.hub_metrics = SessionMetrics()
        # Each client's ledger binds its own battery as account "a" and
        # the *shared* hub battery as account "b"; the serve loop drains
        # those two batteries and books the packet on both accounts.  The
        # hub-side metrics ledger stays metering-only (unbound) so the
        # shared battery is never drained twice for the same packet.
        self._accounts: dict[str, tuple[object, object, object]] = {}
        for c in clients:
            self._bind_accounts(c)
        self._hub_account = self.hub_metrics.ledger.account("b")

    def _bind_accounts(self, client: HubClient) -> None:
        account_a = client.metrics.ledger.account("a")
        account_b = client.metrics.ledger.account("b")
        account_a.bind_battery(client.radio.battery)
        account_b.bind_battery(self._hub.battery)
        self._accounts[client.name] = (account_a, account_b, client.radio.battery)

    @property
    def finished(self) -> bool:
        """Whether the session has stopped."""
        return self._finished

    @property
    def suspended_clients(self) -> frozenset[str]:
        """Clients currently suspended by churn (asleep or departed)."""
        return frozenset(self._suspended)

    @property
    def powered_down(self) -> bool:
        """Whether the hub is currently dark (deploy-layer blackout)."""
        return self._powered_down

    @property
    def exhausted_clients(self) -> frozenset[str]:
        """Clients retired for good (dead battery)."""
        return frozenset(self._exhausted)

    @property
    def client_names(self) -> frozenset[str]:
        """Every client currently attached (including adopted ones)."""
        return frozenset(self._clients)

    def suspend_client(self, name: str) -> None:
        """Churn: take a client off the air (sleep or departure).

        Its TDMA slots are redistributed to the survivors; the client's
        battery and policy state are preserved for :meth:`resume_client`.
        Suspending an already-suspended, exhausted or finished client is
        a no-op.

        Raises:
            KeyError: for unknown client names.
        """
        client = self._clients[name]  # KeyError for unknown names
        if self._finished or name in self._suspended or name in self._exhausted:
            return
        self._suspended[name] = self._sim.now_s
        self.churn_suspensions += 1
        client.metrics.churn_suspensions += 1
        self._rebuild_schedule()

    def resume_client(self, name: str) -> None:
        """Churn: bring a suspended client back on the air.

        The client rejoins the TDMA rotation and its policy re-plans from
        the *current* batteries and link distance (it kept moving while
        asleep — mobility models are functions of time).  If the whole
        session idled because everyone was suspended, serving restarts,
        at once or, on a dark hub, at :meth:`power_up`.

        On a dark hub the re-plan waits for :meth:`power_up`, which
        re-plans every live client before the hub serves again; no
        packet and no report would read a plan made before.  The device
        battery may meanwhile be draining through a twin another hub
        adopted, on that hub's lane of the region kernel, so reading it
        here would make this hub's events depend on another hub's.

        Raises:
            KeyError: for unknown client names.
        """
        client = self._clients[name]
        went_dark = self._suspended.pop(name, None)
        if went_dark is None or self._finished or name in self._exhausted:
            return
        asleep_s = self._sim.now_s - went_dark
        self.suspended_time_s += asleep_s
        client.metrics.suspended_s += asleep_s
        self.churn_resumes += 1
        if not self._powered_down:
            client.policy.start(
                client.link.distance_m,
                max(client.radio.battery.remaining_j, 1e-12),
                max(self._hub.battery.remaining_j, 1e-12),
            )
        self._last_mode[name] = None
        self._rebuild_schedule()
        self._wake()

    def power_down(self) -> None:
        """Blackout: the hub stops serving entirely until :meth:`power_up`.

        Clients stay attached (batteries idle, churn timers keep
        running); the in-flight serve chain dies at its next event and
        :meth:`power_up` re-arms it, as it does a chain that a resume
        woke from idle during the blackout.  No-op on a finished or
        already-dark session.
        """
        if self._finished or self._powered_down:
            return
        self._powered_down = True
        self._down_since = self._sim.now_s
        self.power_downs += 1

    def power_up(self) -> None:
        """Reboot after a blackout: every live client's policy re-plans
        from the *current* batteries and link distance, committed modes
        are forgotten, and serving resumes.  No-op unless dark."""
        if self._finished or not self._powered_down:
            return
        self._powered_down = False
        self.powered_down_s += self._sim.now_s - self._down_since
        self.hub_metrics.reboots += 1
        for name, client in self._clients.items():
            if name in self._exhausted or name in self._suspended:
                continue
            client.policy.start(
                client.link.distance_m,
                max(client.radio.battery.remaining_j, 1e-12),
                max(self._hub.battery.remaining_j, 1e-12),
            )
            self._last_mode[name] = None
        if self._rearm_on_power_up:
            self._rearm_on_power_up = False
            self._sim.schedule_in(0.0, self._serve_packet)

    def begin_brownout(self) -> None:
        """Carrier brownout onset: backscatter and passive packets fail
        until the matching :meth:`end_brownout` (windows nest).  The
        failure is applied after the link draw, so the link stream
        advances once per packet either way."""
        self._brownout_depth += 1

    def end_brownout(self) -> None:
        """Carrier brownout cleared (one level of nesting)."""
        self._brownout_depth -= 1

    def adopt_client(self, client: HubClient, weight: float = 1.0) -> None:
        """Hub-to-hub handoff: admit a dark neighbor's device mid-run.

        The client gets TDMA slots at ``weight`` (existing clients'
        air time shrinks proportionally), its ledger accounts bind its
        own battery and *this* hub's shared battery, and its policy
        negotiates from the current energy state — exactly what a
        re-association exchange would establish.

        Raises:
            RuntimeError: on a finished or powered-down session.
            ValueError: if the name is already attached.
        """
        if self._finished:
            raise RuntimeError("cannot adopt into a finished session")
        if self._powered_down:
            raise RuntimeError("cannot adopt into a powered-down hub")
        name = client.name
        if name in self._clients:
            raise ValueError(f"client {name!r} is already attached")
        self._base_tdma = self._base_tdma.with_client(name, weight)
        self._clients[name] = client
        self._last_mode[name] = None
        self._bind_accounts(client)
        client.policy.start(
            client.link.distance_m,
            max(client.radio.battery.remaining_j, 1e-12),
            max(self._hub.battery.remaining_j, 1e-12),
        )
        self.adoptions += 1
        self._rebuild_schedule()
        self._wake()

    def release_client(self, name: str) -> HubClient:
        """Undo an adoption: detach a client and return it.

        Its TDMA slots are redistributed to the survivors; outage and
        suspension accrual is settled at the current simulation time.
        The home hub (rebooting after its blackout) re-admits the
        device through its own still-registered record.

        Raises:
            KeyError: for unknown client names.
            ValueError: when it would leave the session clientless.
        """
        client = self._clients[name]
        if len(self._clients) == 1:
            raise ValueError("cannot release the last client")
        del self._clients[name]
        self._accounts.pop(name, None)
        self._last_mode.pop(name, None)
        self._exhausted.discard(name)
        suspended_at = self._suspended.pop(name, None)
        if suspended_at is not None:
            asleep_s = self._sim.now_s - suspended_at
            self.suspended_time_s += asleep_s
            client.metrics.suspended_s += asleep_s
        self._base_tdma = self._base_tdma.without([name])
        self.releases += 1
        self._rebuild_schedule()
        return client

    def client(self, name: str) -> HubClient:
        """Look up a client.

        Raises:
            KeyError: for unknown names.
        """
        return self._clients[name]

    def start(self) -> None:
        """Negotiate every client's initial plan and schedule the loop."""
        for client in self._clients.values():
            client.policy.start(
                client.link.distance_m,
                client.radio.battery.remaining_j,
                self._hub.battery.remaining_j,
            )
        self._sim.schedule_in(0.0, self._serve_packet)

    def run(self) -> SessionMetrics:
        """Run to a stop condition; returns the hub-side metrics."""
        if self._packet_index == 0 and not self._finished:
            self.start()
        self._sim.run(until_s=self._max_time_s)
        if not self._finished:
            self._terminate("time" if self._max_time_s is not None else "packets")
        return self.hub_metrics

    def finish(self, reason: str = "time") -> SessionMetrics:
        """Stop the session at the current simulation time.

        For a session whose kernel someone else runs, such as a hub on
        a lane of a region kernel, whose run belongs to the region and
        not to :meth:`run`.  Idempotent; returns the hub-side metrics.
        """
        if not self._finished:
            self._terminate(reason)
        return self.hub_metrics

    def _terminate(self, reason: str) -> None:
        self._finished = True
        now = self._sim.now_s
        if self._powered_down:
            self._powered_down = False
            self.powered_down_s += now - self._down_since
        for name, suspended_at in self._suspended.items():
            asleep_s = now - suspended_at
            self.suspended_time_s += asleep_s
            self._clients[name].metrics.suspended_s += asleep_s
        self._suspended.clear()
        self.hub_metrics.terminated_by = reason
        self.hub_metrics.duration_s = now
        for client in self._clients.values():
            client.metrics.terminated_by = reason
            client.metrics.duration_s = now

    def _wake(self) -> None:
        # A client came on the air: an idle session serves again, at once
        # or, on a dark hub, from power_up().
        if self._idle:
            self._idle = False
            if self._powered_down:
                self._rearm_on_power_up = True
            else:
                self._sim.schedule_in(0.0, self._serve_packet)

    def _pick_client(self) -> HubClient | None:
        """The next scheduled live client, once a pending schedule
        rebuild is built.  With none, idles the session while some
        client is suspended (a resume restarts serving) and terminates
        it otherwise; returns ``None`` in both cases."""
        if self._tdma_recipe is not None:
            base, inactive = self._tdma_recipe
            self._tdma_recipe = None
            self._tdma = base.without(inactive)
        # Skip the slots of exhausted clients (their battery died) and
        # suspended ones (churn) that a stale schedule may still name;
        # the schedule rotates among the survivors.
        client_for_packet = self._tdma.client_for_packet
        for _ in range(self._tdma.round_packets):
            name = client_for_packet(self._packet_index)
            if name not in self._exhausted and name not in self._suspended:
                return self._clients[name]
            self._packet_index += 1
        if self._suspended:
            self._idle = True
        else:
            self._terminate("battery")
        return None

    def _rebuild_schedule(self) -> None:
        # Only record the recipe, with the inactive set as of this event;
        # _pick_client builds it when the next packet needs it.  A
        # burst of churn between two packets then costs one build instead
        # of one per event, and every packet sees exactly the schedule an
        # eager rebuild would have produced.
        inactive = self._exhausted | set(self._suspended)
        if not inactive:
            self._tdma = self._base_tdma
            self._tdma_recipe = None
        elif len(inactive) < len(self._clients):
            # Reclaim the inactive clients' slots for the survivors.
            self._tdma_recipe = (self._base_tdma, inactive)
        # else: everyone is inactive — keep the last recipe; the session
        # idles or ends at its next packet.

    def _serve_packet(self) -> None:
        # One call serves a chained run of packets.  After each packet
        # the kernel either runs the next one inline (it is due before
        # every other pending event, so the calendar would pop it next
        # anyway) or schedules it, which ends the run.  Nothing else
        # runs inside a chain, so per-session state that only other
        # events change (the brownout depth among it) is read once per
        # run.
        sim = self._sim
        hub_battery = self._hub.battery
        hub_metrics = self.hub_metrics
        hub_account = self._hub_account
        accounts = self._accounts
        last_modes = self._last_mode
        clients = self._clients
        exhausted = self._exhausted
        browned_out = self._brownout_depth > 0
        max_packets = self._max_packets
        update_interval = self._energy_update_interval
        apply_switch_costs = self._apply_switch_costs
        air_bits = self._air_bits
        payload_bits = self._payload_bits
        serve = self._serve_packet
        while True:
            if self._finished:
                return
            if self._powered_down:
                # The serve chain dies here; power_up() re-arms exactly one.
                self._rearm_on_power_up = True
                return
            if max_packets is not None and self._packet_index >= max_packets:
                self._terminate("packets")
                return
            if hub_battery.is_empty:
                self._terminate("battery")
                return
            client = self._pick_client()
            if client is None:
                return

            name = client.name
            metrics = client.metrics
            decision = client.policy.next_packet()
            mode = decision.mode
            bitrate_bps = decision.bitrate_bps
            duration_s = air_bits / bitrate_bps
            client_account, shared_account, client_battery = accounts[name]

            last_mode = last_modes[name]
            if apply_switch_costs and last_mode is not None and mode is not last_mode:
                cost = switch_cost(mode, bitrate_bps=bitrate_bps)
                try:
                    client_battery.drain_energy(cost.tx_j)
                    hub_battery.drain_energy(cost.rx_j)
                except BatteryEmptyError:
                    self._retire_or_finish(client)
                    return
                client_account.book(_MODE_SWITCH, cost.tx_j, 0.0)
                shared_account.book(_MODE_SWITCH, cost.rx_j, 0.0)
                hub_account.book(_MODE_SWITCH, cost.rx_j, 0.0)
                metrics.ledger.pool_switch(cost.total_j)
                metrics.mode_switches += 1
            last_modes[name] = mode

            success = client.link.packet_success(
                mode, bitrate_bps, air_bits, sim.now_s
            )
            # Brownout override AFTER the draw: the link stream consumes
            # exactly one value per packet with or without a brownout.
            if success and browned_out and mode is not _ACTIVE:
                success = False
            tx_energy = decision.tx_power_w * duration_s
            rx_energy = decision.rx_power_w * duration_s
            try:
                client_battery.drain_energy(tx_energy)
                hub_battery.drain_energy(rx_energy)
            except BatteryEmptyError:
                metrics.record_packet(mode, payload_bits, False)
                self._retire_or_finish(client)
                return

            rx_category = _CARRIER if mode is _BACKSCATTER else _RX_AIR
            client_account.book(_TX_AIR, tx_energy, tx_energy)
            shared_account.book(rx_category, rx_energy, rx_energy)
            hub_account.book(rx_category, rx_energy, rx_energy)
            metrics.record_packet(mode, payload_bits, success)
            hub_metrics.record_packet(mode, payload_bits, success)
            client.policy.record_outcome(mode, success)

            self._packet_index += 1
            if self._packet_index % update_interval == 0:
                # Policies never drain a battery, so the hub level is the
                # same for every client of the sweep; each client battery
                # is read once (empty means remaining_j <= 0, as
                # Battery.is_empty defines it).
                hub_j = max(hub_battery.remaining_j, 1e-12)
                for other in clients.values():
                    other_name = other.name
                    if other_name in exhausted:
                        continue
                    remaining_j = other.radio.battery.remaining_j
                    if remaining_j <= 0.0:
                        exhausted.add(other_name)
                        continue
                    other.policy.update_energy(remaining_j, hub_j)

            if not sim.chain_in(duration_s, serve):
                return

    def _retire_or_finish(self, client: HubClient) -> None:
        # A dead client battery retires that client; a dead hub battery
        # (or the last client dying) ends the session.
        if self._hub.battery.is_empty:
            self._terminate("battery")
            return
        self._exhausted.add(client.name)
        if len(self._exhausted) == len(self._clients):
            self._terminate("battery")
            return
        self._sim.schedule_in(0.0, self._serve_packet)
