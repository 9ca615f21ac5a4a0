"""A simulated communication session between two Braidio end points.

Packets are discrete events, sent in chained runs that the kernel runs
inline while nothing else is due (DESIGN.md §7); every packet charges
both sides' ledger accounts according to the policy's per-side power,
pays Table 5 switching costs on mode transitions, and feeds its outcome
back to the policy (which is how the dynamic fallback of §4.2 engages).

Energy flows through the :class:`~repro.energy.EnergyLedger` (DESIGN.md
§8): batteries are the capacity stores behind the session's two ledger
accounts, every drain is paired with category attribution (tx_air,
rx_air/carrier, ack, mode_switch, idle, harvest_credit), and the legacy
``SessionMetrics`` totals are metered with the exact same combined
floating-point amounts — in the same order — as the pre-ledger code, so
end-of-session numbers stay bit-identical.

Bidirectional traffic uses one policy per direction, because the offload
optimization is direction-specific (T_i applies to whoever holds the data).
"""

from __future__ import annotations

from ..core.braidio import BraidioRadio
from ..core.modes import LinkMode
from ..energy import ChargeCategory, EnergyLedger
from ..hardware.battery import BatteryEmptyError
from ..hardware.switching import switch_cost
from ..mac.frames import Frame, FrameType
from ..mac.preamble import PREAMBLE_BITS
from .link import SimulatedLink
from .results import SessionMetrics
from .simulator import Simulator
from .traffic import SaturatedTraffic

#: Per-frame overhead on air: preamble + header (6 bytes) + CRC (2 bytes).
FRAME_OVERHEAD_BITS = len(PREAMBLE_BITS) + 8 * (
    len(Frame(FrameType.DATA, 0).encode())
)

# Category indices hoisted to module level so the per-packet path indexes
# pre-allocated lists without enum attribute lookups.
_TX_AIR = int(ChargeCategory.TX_AIR)
_RX_AIR = int(ChargeCategory.RX_AIR)
_CARRIER = int(ChargeCategory.CARRIER)
_MODE_SWITCH = int(ChargeCategory.MODE_SWITCH)
_IDLE = int(ChargeCategory.IDLE)
_RETRANSMIT = int(ChargeCategory.RETRANSMIT)
_FAULT = int(ChargeCategory.FAULT)


class CommunicationSession:
    """One (possibly bidirectional) transfer between two radios.

    Args:
        simulator: the event kernel.
        device_a / device_b: end points; "direction 0" means A transmits.
        link: the stochastic link between them.
        policy_ab: mode policy for A -> B packets.
        policy_ba: mode policy for B -> A packets (defaults to ``policy_ab``
            for unidirectional traffic, where it is never consulted).
        traffic: traffic pattern (defaults to saturated one-way).
        apply_switch_costs: whether Table 5 switch energy is charged.
        max_packets / max_time_s: optional stop conditions.
        energy_update_interval: packets between battery-state refreshes
            pushed to the policies.
        arq: run stop-and-wait ARQ — every data frame is acknowledged on
            the reverse path of the same mode, lost frames are
            retransmitted, and the ACK air time/energy is charged.
        max_retries: ARQ retransmission budget per frame.
        idle_power_w: (device A, device B) draw during traffic gaps
            (sleep-state MCU levels by default).
        tag_harvester: optional :class:`~repro.hardware.harvesting.RfHarvester`;
            when set, backscatter packets credit the transmitting tag with
            the carrier energy it rectifies (net draw floored at zero).
        watchdog_packets: consecutive unconfirmed packets before the
            session attempts a re-sync back-off instead of hammering a
            dead link; ``None`` (the default) disables the watchdog and
            preserves the historical semantics exactly.
        max_resyncs: bounded re-sync attempts before the session gives up
            and terminates with ``terminated_by == "link_lost"``.
        resync_backoff_s: base back-off before the first re-sync; doubles
            on each further attempt.
    """

    def __init__(
        self,
        simulator: Simulator,
        device_a: BraidioRadio,
        device_b: BraidioRadio,
        link: SimulatedLink,
        policy_ab,
        policy_ba=None,
        traffic=None,
        apply_switch_costs: bool = True,
        max_packets: int | None = None,
        max_time_s: float | None = None,
        energy_update_interval: int = 256,
        arq: bool = False,
        max_retries: int = 8,
        idle_power_w: tuple[float, float] = (4e-6, 4e-6),
        tag_harvester=None,
        watchdog_packets: int | None = None,
        max_resyncs: int = 4,
        resync_backoff_s: float = 0.05,
    ) -> None:
        if energy_update_interval <= 0:
            raise ValueError("energy update interval must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if any(p < 0.0 for p in idle_power_w):
            raise ValueError("idle power must be non-negative")
        if watchdog_packets is not None and watchdog_packets <= 0:
            raise ValueError("watchdog_packets must be positive when set")
        if max_resyncs < 0:
            raise ValueError("max_resyncs must be non-negative")
        if resync_backoff_s < 0.0:
            raise ValueError("resync back-off must be non-negative")
        self._sim = simulator
        self._a = device_a
        self._b = device_b
        self._link = link
        policy_ba = policy_ba if policy_ba is not None else policy_ab
        # Each distinct policy once, with the first direction it serves:
        # start, reboots and energy updates visit these in this order.
        if policy_ba is policy_ab:
            self._distinct_policies = ((0, policy_ab),)
        else:
            self._distinct_policies = ((0, policy_ab), (1, policy_ba))
        self._traffic = traffic if traffic is not None else SaturatedTraffic()
        self._apply_switch_costs = apply_switch_costs
        self._max_packets = max_packets
        self._max_time_s = max_time_s
        self._energy_update_interval = energy_update_interval

        self._arq = arq
        self._max_retries = max_retries
        self._idle_power_w = idle_power_w
        self._tag_harvester = tag_harvester

        # Resilience state.  ``_fault_aware`` gates every recovery-path
        # branch with one boolean so unarmed, watchdog-less sessions run
        # the historical hot path untouched.
        self._watchdog_packets = watchdog_packets
        self._max_resyncs = max_resyncs
        self._resync_backoff_s = resync_backoff_s
        self._injector = None
        self._track_retransmit = False
        self._fault_aware = watchdog_packets is not None
        self._failure_streak = 0
        self._outage_start_s: float | None = None
        self._resyncs_used = 0

        self.ledger = EnergyLedger.for_pair(
            device_a.battery,
            device_b.battery,
            label_a=device_a.name,
            label_b=device_b.name,
        )
        self.metrics = SessionMetrics(self.ledger)
        self._packet_index = 0
        self._retries_used = 0
        self._last_mode: LinkMode | None = None
        self._finished = False

        # Steady-state hot-path invariants, hoisted out of _send_packet:
        # every traffic pattern has a per-session-constant payload size,
        # and endpoint pairs per direction never change.
        self._payload_bits = 8 * self._traffic.payload_bytes
        self._air_bits = self._payload_bits + FRAME_OVERHEAD_BITS
        self._endpoint_pairs = ((device_a, device_b), (device_b, device_a))
        # Per direction: (tx account, rx account, tx battery, rx battery,
        # policy).  The batteries are the ones behind the accounts, which
        # the packet loop drains directly once both sides are booked.
        account_a = self.ledger.account("a")
        account_b = self.ledger.account("b")
        battery_a = account_a.battery
        battery_b = account_b.battery
        self._sides = (
            (account_a, account_b, battery_a, battery_b, policy_ab),
            (account_b, account_a, battery_b, battery_a, policy_ba),
        )

    @property
    def finished(self) -> bool:
        """Whether the session hit a stop condition."""
        return self._finished

    @property
    def link(self) -> SimulatedLink:
        """The link under this session (fault injection adjusts it)."""
        return self._link

    @property
    def simulator(self) -> Simulator:
        """The event kernel the session schedules against."""
        return self._sim

    def attach_injector(self, injector) -> None:
        """Arm fault hooks (called by
        :meth:`~repro.faults.injector.FaultInjector.arm`).

        With an empty plan the hooks are inert no-ops and the session's
        results stay bit-identical to an unarmed run; a non-empty plan
        additionally re-attributes retry air time to the ``RETRANSMIT``
        ledger category so recovery cost is separable.

        Raises:
            RuntimeError: if a different injector is already attached.
        """
        if self._injector is not None and self._injector is not injector:
            raise RuntimeError("session already has a fault injector")
        self._injector = injector
        self._track_retransmit = not injector.plan.is_empty
        self._fault_aware = True

    def on_peer_reboot(self) -> None:
        """Re-negotiate after a peer crash+reboot.

        The radio's committed mode is forgotten (no Table 5 charge on the
        next packet: the switch hardware reset with the node) and every
        policy renegotiates from current batteries, exactly as
        :meth:`start` did.
        """
        if self._finished:
            return
        self._start_policies()
        self._last_mode = None
        self.metrics.reboots += 1

    def apply_step_drain(self, account: str, joules: float) -> None:
        """Remove ``joules`` from one side's battery as an injected fault.

        The amount is attributed to the ``FAULT`` ledger category (never
        metered — it is not radio energy) so conservation still
        reconciles.  Draining past empty terminates the session exactly
        like a fatal packet would.
        """
        if self._finished:
            return
        target = self.ledger.account(account)
        target.book(_FAULT, joules, 0.0)
        try:
            target.battery.drain_energy(joules)
        except BatteryEmptyError:
            self._terminate("battery")

    def start(self) -> None:
        """Negotiate policies and schedule the first packet.

        Each distinct policy object is started once, with the end points of
        the first direction it serves — so a single shared (stateless)
        policy is not re-negotiated with swapped roles.  Stateful policies
        (``BraidioPolicy``) are direction-specific: bidirectional sessions
        must pass a separate ``policy_ba``.
        """
        self._start_policies()
        self._sim.schedule_in(0.0, self._send_packet)

    def _start_policies(self) -> None:
        distance_m = self._link.distance_m
        for direction, policy in self._distinct_policies:
            tx, rx = self._endpoint_pairs[direction]
            policy.start(distance_m, tx.battery.remaining_j, rx.battery.remaining_j)

    def run(self) -> SessionMetrics:
        """Start (if needed) and run the kernel until the session stops."""
        if self._packet_index == 0 and not self._finished:
            self.start()
        self._sim.run(until_s=self._max_time_s)
        if not self._finished and self._max_time_s is not None:
            self._terminate("time")
        return self.metrics

    def _terminate(self, reason: str) -> None:
        if self._outage_start_s is not None:
            # Close the open outage window so outage_s covers sessions
            # that die (battery, time, link_lost) mid-blackout.
            self.metrics.outage_s += self._sim.now_s - self._outage_start_s
            self._outage_start_s = None
        self._finished = True
        self.metrics.terminated_by = reason
        self.metrics.duration_s = self._sim.now_s
        # A pair session owns its kernel: once it ends, whatever is still
        # scheduled (a mobility driver's next tick, fault edges) is
        # dropped, so an unbounded ``run`` returns.
        self._sim.stop()

    def _send_packet(self) -> None:
        # One call sends a chained run of packets, the way
        # HubSession._serve_packet serves one.  After each packet (a
        # retransmission included) the kernel either runs the next one
        # inline (it is due before every other pending event, so the
        # calendar would pop it next anyway) or schedules it, which ends
        # the run.  Nothing else runs inside a chain: fault edges and
        # mobility ticks are events, so they fall between chains, and
        # what only they change is read once per run: a stuck switch,
        # the modes an outage blocks, whether an ACK-corruption window
        # is open, and the harvester's power at the link distance (read
        # on the run's first backscatter packet).  Inside an open
        # corruption window each ACK still draws.
        sim = self._sim
        link = self._link
        packet_success = link.packet_success
        # A pattern's gap and burst length are constants; one-way traffic
        # (no bursts) always sends from device A.
        gap_s = self._traffic.gap_s
        burst_packets = self._traffic.burst_packets
        sides = self._sides
        backscatter = LinkMode.BACKSCATTER  # an enum lookup costs ~0.1 us
        metrics = self.metrics
        ledger = self.ledger
        injector = self._injector
        if injector is None:
            stuck, blocked, acks_at_risk = False, (), False
        else:
            stuck = injector.switch_stuck()
            blocked = tuple(mode for mode in LinkMode if injector.blocked(mode))
            acks_at_risk = injector.acks_at_risk()
        harvester = self._tag_harvester
        harvested_w = None
        max_packets = self._max_packets
        apply_switch_costs = self._apply_switch_costs
        arq = self._arq
        max_retries = self._max_retries
        track_retransmit = self._track_retransmit
        fault_aware = self._fault_aware
        update_interval = self._energy_update_interval
        payload_bits = self._payload_bits
        air_bits = self._air_bits
        send = self._send_packet
        while True:
            if self._finished:
                return
            if max_packets is not None and self._packet_index >= max_packets:
                self._terminate("packets")
                return

            if burst_packets is None:
                direction = 0
            else:
                direction = (self._packet_index // burst_packets) % 2
            tx_account, rx_account, tx_battery, rx_battery, policy = sides[direction]
            decision = policy.next_packet()
            bitrate_bps = decision.bitrate_bps
            duration_s = air_bits / bitrate_bps

            # A stuck RF switch silently keeps the last committed path:
            # the packet goes out (and is billed) in the stale mode, and
            # no Table 5 cost is charged because the switch never flips.
            mode = decision.mode
            last_mode = self._last_mode
            if stuck and last_mode is not None and last_mode is not mode:
                mode = last_mode
                metrics.stuck_switch_packets += 1

            # Table 5 switching overhead on mode transitions.  Switch
            # energy drains both batteries and is attributed per device,
            # but has never counted toward the metered energy_a_j /
            # energy_b_j totals, only the pooled switch counter.
            if last_mode is not None and mode is not last_mode:
                if apply_switch_costs:
                    cost = switch_cost(mode, bitrate_bps=bitrate_bps)
                    try:
                        tx_battery.drain_energy(cost.tx_j)
                        rx_battery.drain_energy(cost.rx_j)
                    except BatteryEmptyError:
                        self._terminate("battery")
                        return
                    tx_account.book(_MODE_SWITCH, cost.tx_j, 0.0)
                    rx_account.book(_MODE_SWITCH, cost.rx_j, 0.0)
                    ledger.pool_switch(cost.total_j)
                metrics.mode_switches += 1
            self._last_mode = mode

            now_s = sim.now_s
            success = packet_success(mode, bitrate_bps, air_bits, now_s)
            # Outage faults override *after* the draw so the link RNG
            # stream consumes exactly one value per packet, faulted or not.
            if blocked and success and mode in blocked:
                success = False

            # Attribution uses the component values (air / ack / harvest)
            # while metering uses the exact combined tx_energy/rx_energy
            # floats the pre-ledger code accumulated, keeping energy_a_j
            # and energy_b_j bit-identical.  On a backscatter packet the
            # receiving side's air time is carrier generation (the reader
            # powers the carrier the tag reflects).  Fault-armed sessions
            # book ARQ retry air time as RETRANSMIT (both sides) instead,
            # so recovery cost is separable without double counting.
            tx_air_j = tx_energy = decision.tx_power_w * duration_s
            rx_air_j = rx_energy = decision.rx_power_w * duration_s
            if track_retransmit and self._retries_used > 0:
                tx_category = rx_category = _RETRANSMIT
            else:
                tx_category = _TX_AIR
                rx_category = _CARRIER if mode is backscatter else _RX_AIR

            # Harvesting extension: while backscattering, the tag sits in
            # the reader's carrier field and banks energy against its own
            # draw.
            harvest_credit_j = 0.0
            if harvester is not None and mode is backscatter:
                if harvested_w is None:
                    harvested_w = harvester.harvested_power_w(link.distance_m)
                tx_energy = max(tx_energy - harvested_w * duration_s, 0.0)
                harvest_credit_j = tx_air_j - tx_energy

            confirmed = success
            tx_ack_j = rx_ack_j = 0.0
            if arq:
                # The ACK rides the reverse path of the same mode: the
                # carrier stays up and both sides keep their per-mode draw
                # for the ACK air time.
                ack_duration_s = FRAME_OVERHEAD_BITS / bitrate_bps
                duration_s += ack_duration_s
                tx_ack_j = decision.tx_power_w * ack_duration_s
                rx_ack_j = decision.rx_power_w * ack_duration_s
                tx_energy += tx_ack_j
                rx_energy += rx_ack_j
                metrics.ack_bits += FRAME_OVERHEAD_BITS
                if success:
                    ack_success = packet_success(
                        mode, bitrate_bps, FRAME_OVERHEAD_BITS, now_s
                    )
                    if ack_success and acks_at_risk and injector.corrupt_ack():
                        ack_success = False
                        metrics.corrupted_acks += 1
                    confirmed = ack_success

            # Both sides are booked before either battery drains, tx side
            # first.
            tx_account.book(tx_category, tx_air_j, tx_energy, tx_ack_j, harvest_credit_j)
            rx_account.book(rx_category, rx_air_j, rx_energy, rx_ack_j)
            try:
                tx_battery.drain_energy(tx_energy)
                rx_battery.drain_energy(rx_energy)
            except BatteryEmptyError:
                # The fatal packet is still metered/attributed even though
                # the drain was only partial (historical semantics; shows
                # up as a conservation residual on battery-death sessions).
                metrics.record_packet(mode, payload_bits, False)
                self._terminate("battery")
                return
            metrics.record_packet(mode, payload_bits, confirmed)
            policy.record_outcome(mode, success)

            if arq and not confirmed:
                if self._retries_used < max_retries:
                    # Retransmit: the traffic index stays put so the same
                    # payload goes again (possibly in a different mode
                    # slot).
                    self._retries_used += 1
                    metrics.retransmissions += 1
                    if not sim.chain_in(duration_s, send):
                        return
                    continue
                metrics.arq_failures += 1
            self._retries_used = 0

            # Watchdog + outage accounting; inert (single boolean test)
            # for sessions that never armed an injector or a watchdog.  A
            # confirmed packet outside an outage only resets the streaks,
            # which _after_outcome would do.
            resync_delay_s = 0.0
            if fault_aware:
                if confirmed and self._outage_start_s is None:
                    self._failure_streak = 0
                    self._resyncs_used = 0
                else:
                    resync_delay_s = self._after_outcome(confirmed, now_s)
                    if resync_delay_s is None:
                        return

            self._packet_index += 1
            if self._packet_index % update_interval == 0 and not self._update_energy():
                return

            if gap_s > 0.0 and not self._idle(gap_s):
                return
            if resync_delay_s != 0.0:
                delay_s = duration_s + gap_s + resync_delay_s
            else:
                delay_s = duration_s + gap_s
            if not sim.chain_in(delay_s, send):
                return

    def _update_energy(self) -> bool:
        """Push fresh battery levels to every policy; ``False`` after
        terminating the session on an empty battery."""
        injector = self._injector
        for d, p in self._distinct_policies:
            d_tx, d_rx = self._endpoint_pairs[d]
            if d_tx.battery.is_empty or d_rx.battery.is_empty:
                self._terminate("battery")
                return False
            if injector is None:
                p.update_energy(d_tx.battery.remaining_j, d_rx.battery.remaining_j)
            else:
                # Battery-misreport faults lie to the policies, never to
                # the batteries themselves.
                scale_a, scale_b = injector.energy_scales()
                if d:
                    scale_a, scale_b = scale_b, scale_a
                p.update_energy(
                    d_tx.battery.remaining_j * scale_a,
                    d_rx.battery.remaining_j * scale_b,
                )
        return True

    def _idle(self, gap_s: float) -> bool:
        """Both radios drop to their sleep draw for a traffic gap;
        ``False`` after terminating the session on an empty battery."""
        idle_a = self._idle_power_w[0] * gap_s
        idle_b = self._idle_power_w[1] * gap_s
        account_a, account_b, battery_a, battery_b, _ = self._sides[0]
        try:
            battery_a.drain_energy(idle_a)
            battery_b.drain_energy(idle_b)
        except BatteryEmptyError:
            self._terminate("battery")
            return False
        account_a.book(_IDLE, idle_a, idle_a)
        account_b.book(_IDLE, idle_b, idle_b)
        self.ledger.pool_idle(idle_a + idle_b)
        return True

    def _after_outcome(self, confirmed: bool, now: float) -> float | None:
        """Track loss streaks, close/open outage windows, and run the
        bounded re-sync watchdog.

        Returns:
            Extra delay (seconds) before the next packet — non-zero when
            a re-sync back-off engaged — or ``None`` when the session
            terminated (``link_lost``).
        """
        if confirmed:
            if self._outage_start_s is not None:
                latency = now - self._outage_start_s
                self._outage_start_s = None
                self.metrics.outage_s += latency
                if latency > self.metrics.recovery_latency_s:
                    self.metrics.recovery_latency_s = latency
                self.metrics.recoveries += 1
            self._failure_streak = 0
            self._resyncs_used = 0
            return 0.0
        if self._outage_start_s is None:
            self._outage_start_s = now
        self._failure_streak += 1
        if self._watchdog_packets is None or self._failure_streak < self._watchdog_packets:
            return 0.0
        if self._resyncs_used >= self._max_resyncs:
            self._terminate("link_lost")
            return None
        self._resyncs_used += 1
        self._failure_streak = 0
        self.metrics.resyncs += 1
        return self._resync_backoff_s * (2.0 ** (self._resyncs_used - 1))
