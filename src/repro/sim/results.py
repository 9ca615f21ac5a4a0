"""Metric collection for simulated sessions, backed by the energy ledger."""

from __future__ import annotations

from typing import Dict, Optional

from ..core.modes import LinkMode
from ..energy import ChargeCategory, EnergyLedger, LedgerSnapshot


class SessionMetrics:
    """Accumulated statistics of one simulated session.

    Counters (packets, bits, switches, …) are plain attributes.  The
    energy totals are *views over an* :class:`~repro.energy.EnergyLedger`:
    ``energy_a_j`` / ``energy_b_j`` read the metered totals of ledger
    accounts ``"a"`` / ``"b"``, while ``switch_energy_j`` /
    ``idle_energy_j`` read the ledger's pooled accumulators.  Totals are
    bit-identical to the pre-ledger scalar accumulation; the ledger adds
    the per-category attribution exposed by :meth:`energy_breakdown`.
    The views are read-only: energy enters only through the ledger.

    Attributes:
        bits_delivered: payload bits successfully received.
        bits_attempted: payload bits put on air.
        packets_delivered / packets_attempted: packet counts.
        energy_a_j / energy_b_j: energy drained from device A / B.
        switch_energy_j: portion of the above spent on mode switches.
        mode_packets: packets attempted per mode.
        mode_switches: number of mode transitions.
        duration_s: simulated time covered.
        terminated_by: "battery", "time", "packets" or "" while running.
        retransmissions: ARQ retransmissions (0 without ARQ).
        arq_failures: frames abandoned after the retry budget.
        ack_bits: bits spent on acknowledgements.
        idle_energy_j: energy burned at idle/sleep draw between packets.
        ledger: the backing :class:`~repro.energy.EnergyLedger`.
        outage_s: simulated seconds spent inside confirmed-loss streaks
            (fault-aware sessions only; 0 otherwise).
        recovery_latency_s: longest outage the session recovered from.
        recoveries: outage episodes that ended in a delivered packet.
        resyncs: watchdog-triggered re-sync back-offs.
        reboots: peer crash+reboot renegotiations.
        fault_events: injected fault activations observed.
        corrupted_acks: ACKs destroyed by fault injection.
        stuck_switch_packets: packets forced onto the stale RF path by a
            stuck-switch fault.
        churn_suspensions: times this endpoint was taken off the air by
            churn (deployment simulator; 0 otherwise).
        suspended_s: simulated seconds spent suspended by churn.
    """

    __slots__ = (
        "bits_delivered",
        "bits_attempted",
        "packets_delivered",
        "packets_attempted",
        "mode_packets",
        "mode_switches",
        "duration_s",
        "terminated_by",
        "retransmissions",
        "arq_failures",
        "ack_bits",
        "outage_s",
        "recovery_latency_s",
        "recoveries",
        "resyncs",
        "reboots",
        "fault_events",
        "corrupted_acks",
        "stuck_switch_packets",
        "churn_suspensions",
        "suspended_s",
        "ledger",
        "_account_a",
        "_account_b",
    )

    def __init__(self, ledger: Optional[EnergyLedger] = None) -> None:
        self.bits_delivered = 0
        self.bits_attempted = 0
        self.packets_delivered = 0
        self.packets_attempted = 0
        self.mode_packets: Dict[LinkMode, int] = {}
        self.mode_switches = 0
        self.duration_s = 0.0
        self.terminated_by = ""
        self.retransmissions = 0
        self.arq_failures = 0
        self.ack_bits = 0
        self.outage_s = 0.0
        self.recovery_latency_s = 0.0
        self.recoveries = 0
        self.resyncs = 0
        self.reboots = 0
        self.fault_events = 0
        self.corrupted_acks = 0
        self.stuck_switch_packets = 0
        self.churn_suspensions = 0
        self.suspended_s = 0.0
        if ledger is None:
            ledger = EnergyLedger.for_pair()
        self.ledger = ledger
        self._account_a = ledger.account("a")
        self._account_b = ledger.account("b")

    # -- energy views over the ledger -----------------------------------

    @property
    def energy_a_j(self) -> float:
        """Energy drained from device A (metered total of account "a")."""
        return self._account_a.metered_j

    @property
    def energy_b_j(self) -> float:
        """Energy drained from device B (metered total of account "b")."""
        return self._account_b.metered_j

    @property
    def switch_energy_j(self) -> float:
        """Pooled two-sided mode-switch energy."""
        return self.ledger.switch_energy_j

    @property
    def idle_energy_j(self) -> float:
        """Pooled two-sided idle energy."""
        return self.ledger.idle_energy_j

    def energy_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Account name -> category label -> attributed joules."""
        return {
            account.name: {c.label: account.category_j(c) for c in ChargeCategory}
            for account in self.ledger
        }

    def ledger_snapshot(self) -> LedgerSnapshot:
        """Freeze the backing ledger (accounts, categories, pools)."""
        return self.ledger.snapshot()

    def switch_energy_a_j(self) -> float:
        """Device A's attributed share of the mode-switch energy."""
        return self._account_a.category_j(ChargeCategory.MODE_SWITCH)

    def switch_energy_b_j(self) -> float:
        """Device B's attributed share of the mode-switch energy."""
        return self._account_b.category_j(ChargeCategory.MODE_SWITCH)

    @property
    def retransmit_energy_j(self) -> float:
        """Air-time joules attributed to fault-recovery retransmissions
        (both sides; only fault-armed sessions book this category)."""
        return self.ledger.category_total_j(ChargeCategory.RETRANSMIT)

    @property
    def fault_energy_j(self) -> float:
        """Joules removed by injected faults (battery step-drains)."""
        return self.ledger.category_total_j(ChargeCategory.FAULT)

    # -- derived metrics -------------------------------------------------

    @property
    def packet_delivery_ratio(self) -> float:
        """Delivered / attempted packets (1.0 for an idle session)."""
        if self.packets_attempted == 0:
            return 1.0
        return self.packets_delivered / self.packets_attempted

    @property
    def total_energy_j(self) -> float:
        """Energy drained across both devices."""
        return self.energy_a_j + self.energy_b_j

    @property
    def energy_per_delivered_bit_j(self) -> float:
        """Total joules per delivered payload bit (inf before delivery)."""
        if self.bits_delivered == 0:
            return float("inf")
        return self.total_energy_j / self.bits_delivered

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits per second of simulated time."""
        if self.duration_s == 0.0:
            return 0.0
        return self.bits_delivered / self.duration_s

    def mode_fractions(self) -> dict[LinkMode, float]:
        """Share of attempted packets per mode."""
        total = sum(self.mode_packets.values())
        if total == 0:
            return {}
        return {mode: count / total for mode, count in self.mode_packets.items()}

    def record_packet(self, mode: LinkMode, bits: int, delivered: bool) -> None:
        """Account one packet attempt."""
        self.packets_attempted += 1
        self.bits_attempted += bits
        self.mode_packets[mode] = self.mode_packets.get(mode, 0) + 1
        if delivered:
            self.packets_delivered += 1
            self.bits_delivered += bits

    # -- value semantics (matches the former dataclass) ------------------

    def _comparable_state(self) -> tuple:
        return (
            self.bits_delivered,
            self.bits_attempted,
            self.packets_delivered,
            self.packets_attempted,
            self.mode_packets,
            self.mode_switches,
            self.duration_s,
            self.terminated_by,
            self.retransmissions,
            self.arq_failures,
            self.ack_bits,
            self.outage_s,
            self.recovery_latency_s,
            self.recoveries,
            self.resyncs,
            self.reboots,
            self.fault_events,
            self.corrupted_acks,
            self.stuck_switch_packets,
            self.churn_suspensions,
            self.suspended_s,
            self.ledger.comparable_state(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionMetrics):
            return NotImplemented
        return self._comparable_state() == other._comparable_state()

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass

    def __repr__(self) -> str:
        return (
            "SessionMetrics("
            f"bits_delivered={self.bits_delivered}, "
            f"bits_attempted={self.bits_attempted}, "
            f"packets_delivered={self.packets_delivered}, "
            f"packets_attempted={self.packets_attempted}, "
            f"energy_a_j={self.energy_a_j}, "
            f"energy_b_j={self.energy_b_j}, "
            f"switch_energy_j={self.switch_energy_j}, "
            f"mode_packets={self.mode_packets}, "
            f"mode_switches={self.mode_switches}, "
            f"duration_s={self.duration_s}, "
            f"terminated_by={self.terminated_by!r}, "
            f"retransmissions={self.retransmissions}, "
            f"arq_failures={self.arq_failures}, "
            f"ack_bits={self.ack_bits}, "
            f"idle_energy_j={self.idle_energy_j})"
        )
