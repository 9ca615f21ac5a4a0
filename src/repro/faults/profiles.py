"""Named chaos scenarios and the sessions that survive them.

Each profile is a :class:`~repro.faults.plan.FaultPlan` sized for the
standard 2000-packet profiled session (~0.74 simulated seconds at 0.5 m),
paired with a hardened session: ARQ plus a watchdog with bounded
re-sync, so dead links terminate instead of hanging.  Everything is
deterministic in (profile, distance, packets, seed) — the same
reproducibility contract as :mod:`repro.analysis.energy_report`, which
this module deliberately mirrors (text table for ``python -m repro
faults``, CSV rows for the ``faults`` exporter, plain dicts for the
``faults.session`` campaign runner).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.braidio import BraidioRadio
from ..core.regimes import LinkMap
from ..hardware.battery import Battery
from ..sim.link import SimulatedLink
from ..sim.policies import BraidioPolicy
from ..sim.results import SessionMetrics
from ..sim.session import CommunicationSession
from ..sim.simulator import Simulator
from .injector import FaultInjector
from .plan import FaultKind, FaultPlan, FaultSpec

#: Default end points (paper's watch -> phone, as in the energy report).
DEFAULT_DEVICES = ("Apple Watch", "iPhone 6S")

#: Named fault profiles the tooling can run.
FAULT_PROFILES: tuple[str, ...] = (
    "none",
    "outage",
    "deep-fade",
    "carrier-loss",
    "crash",
    "brownout",
    "ack-storm",
    "stuck-switch",
    "chaos",
)


def fault_plan_for(profile: str) -> FaultPlan:
    """The declarative schedule behind one named profile.

    Raises:
        ValueError: for unknown profile names.
    """
    if profile == "none":
        return FaultPlan.empty()
    if profile == "outage":
        return FaultPlan.of(
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.20, duration_s=0.10)
        )
    if profile == "deep-fade":
        return FaultPlan.of(
            FaultSpec(
                FaultKind.DEEP_FADE, start_s=0.15, duration_s=0.20, magnitude=25.0
            )
        )
    if profile == "carrier-loss":
        return FaultPlan.of(
            FaultSpec(FaultKind.CARRIER_DROPOUT, start_s=0.15, duration_s=0.30)
        )
    if profile == "crash":
        return FaultPlan.of(
            FaultSpec(
                FaultKind.NODE_CRASH, start_s=0.30, duration_s=0.08, target="b"
            )
        )
    if profile == "brownout":
        return FaultPlan.of(
            FaultSpec(
                FaultKind.BATTERY_MISREPORT,
                start_s=0.10,
                duration_s=0.40,
                magnitude=0.25,
                target="a",
            ),
            FaultSpec(
                FaultKind.BATTERY_STEP_DRAIN,
                start_s=0.35,
                magnitude=40.0,
                target="a",
            ),
        )
    if profile == "ack-storm":
        return FaultPlan.of(
            FaultSpec(
                FaultKind.ACK_CORRUPTION, start_s=0.20, duration_s=0.15, magnitude=0.8
            )
        )
    if profile == "stuck-switch":
        return FaultPlan.of(
            FaultSpec(FaultKind.STUCK_SWITCH, start_s=0.10, duration_s=0.20)
        )
    if profile == "chaos":
        # The acceptance scenario: a blanket outage, a peer crash+reboot
        # and a carrier dropout inside one run.
        return FaultPlan.of(
            FaultSpec(FaultKind.LINK_OUTAGE, start_s=0.12, duration_s=0.08),
            FaultSpec(
                FaultKind.NODE_CRASH, start_s=0.30, duration_s=0.08, target="b"
            ),
            FaultSpec(FaultKind.CARRIER_DROPOUT, start_s=0.45, duration_s=0.15),
        )
    raise ValueError(
        f"unknown fault profile {profile!r} (known: {', '.join(FAULT_PROFILES)})"
    )


def run_fault_session(
    profile: str,
    distance_m: float = 0.5,
    packets: int = 2000,
    seed: int = 0,
    battery_wh: float = 1.0,
    devices: Sequence[str] = DEFAULT_DEVICES,
) -> tuple[SessionMetrics, FaultInjector]:
    """Run one hardened session under a named fault profile.

    Returns:
        (metrics, injector) — the injector carries the fired timeline.

    Raises:
        ValueError: for unknown profile names.
    """
    plan = fault_plan_for(profile)
    simulator = Simulator(seed=seed)
    device_a = BraidioRadio.for_device(devices[0])
    device_a.battery = Battery(battery_wh)
    device_b = BraidioRadio.for_device(devices[1])
    device_b.battery = Battery(battery_wh)
    link = SimulatedLink(LinkMap(), distance_m, simulator.rng)
    session = CommunicationSession(
        simulator,
        device_a,
        device_b,
        link,
        policy_ab=BraidioPolicy(),
        arq=True,
        max_packets=packets,
        watchdog_packets=24,
        max_resyncs=6,
        resync_backoff_s=0.02,
    )
    injector = FaultInjector(plan, seed=seed).arm(session)
    return session.run(), injector


#: Column order of the ``faults`` CSV exporter (recovery metrics first,
#: then the energy attribution the fault categories add).
RECOVERY_FIELDS: tuple[str, ...] = (
    "packets_attempted",
    "packets_delivered",
    "retransmissions",
    "arq_failures",
    "outage_s",
    "recovery_latency_s",
    "recoveries",
    "resyncs",
    "reboots",
    "fault_events",
    "corrupted_acks",
    "stuck_switch_packets",
    "retransmit_energy_j",
    "fault_energy_j",
    "energy_a_j",
    "energy_b_j",
    "mode_switches",
    "duration_s",
    "terminated_by",
)


def recovery_rows(
    profiles: "Iterable[str] | None" = None,
    distance_m: float = 0.5,
    packets: int = 2000,
    seed: int = 0,
) -> tuple[list[str], list[list[object]]]:
    """(header, rows) for the ``faults`` exporter: one row per profile."""
    header = ["profile", "seed"] + list(RECOVERY_FIELDS)
    rows: list[list[object]] = []
    for profile in profiles if profiles is not None else FAULT_PROFILES:
        metrics, _ = run_fault_session(
            profile, distance_m=distance_m, packets=packets, seed=seed
        )
        rows.append(
            [profile, seed]
            + [getattr(metrics, field) for field in RECOVERY_FIELDS]
        )
    return header, rows


def render_faults(
    profile: str,
    distance_m: float = 0.5,
    packets: int = 2000,
    seed: int = 0,
) -> str:
    """The ``python -m repro faults`` view: session summary, the fired
    fault timeline, and the recovery metric table."""
    metrics, injector = run_fault_session(
        profile, distance_m=distance_m, packets=packets, seed=seed
    )
    lines = [
        f"{profile}: {metrics.packets_delivered}/{metrics.packets_attempted} "
        f"packets in {metrics.duration_s:.3f}s at {distance_m} m "
        f"(terminated by {metrics.terminated_by or 'n/a'}, seed {seed})"
    ]
    if injector.timeline:
        lines.append("")
        lines.append("fault timeline:")
        for time_s, label in injector.timeline:
            lines.append(f"  {time_s:8.3f}s  {label}")
    else:
        lines.append("")
        lines.append(
            "fault timeline: (empty plan)"
            if injector.plan.is_empty
            else "fault timeline: (the session ended before the first fault)"
        )
    lines.append("")
    width = max(len(field) for field in RECOVERY_FIELDS)
    for field in RECOVERY_FIELDS:
        value = getattr(metrics, field)
        rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{field.ljust(width)}  {rendered}")
    return "\n".join(lines)


def recovery_report(metrics: SessionMetrics) -> dict[str, object]:
    """JSON-safe recovery metrics used by the ``faults.session`` campaign
    runner and embedded in run manifests."""
    return {field: getattr(metrics, field) for field in RECOVERY_FIELDS}
