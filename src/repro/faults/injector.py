"""Compile fault plans into discrete-event hooks.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into DES events on the session's
simulator: each window schedules a *begin* and an *end* event that toggle
O(1) injector state (blocked-mode depth counters, the ACK-corruption
probability, the stuck-switch depth, battery-report scales).  The session
hot path then consults that state through four cheap hooks —
:meth:`blocked`, :meth:`corrupt_ack`, :meth:`switch_stuck`,
:meth:`energy_scales` — each a couple of attribute reads.

Determinism contract (DESIGN.md §9):

* the injector never touches the link RNG — outage overrides happen
  *after* the session's per-packet draw, so the link stream consumes
  exactly one value per packet with or without faults;
* the injector's own draws come from a private content-addressed stream
  (:mod:`repro.faults.seeding`), so a (seed, plan) pair replays
  bit-identically, anywhere;
* an empty plan compiles zero events and arms inert hooks: results are
  bit-identical to an unarmed session.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Tuple

from ..core.modes import LinkMode
from .plan import FaultKind, FaultPlan, FaultSpec
from .seeding import fault_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.session import CommunicationSession
    from ..sim.simulator import Simulator


class FaultInjector:
    """Armable fault state machine for one session.

    Args:
        plan: the declarative schedule to compile.
        seed: root seed for the injector's private stream (combined with
            the plan fingerprint; see :mod:`repro.faults.seeding`).
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self._plan = plan
        self._rng = fault_rng(plan, seed)
        self._armed = False
        # O(1) hook state, mutated only by scheduled begin/end events.
        self._blocked_depth: Dict[LinkMode, int] = {m: 0 for m in LinkMode}
        self._ack_corrupt_p = 0.0
        self._stuck_depth = 0
        self._scale_a = 1.0
        self._scale_b = 1.0
        #: (time_s, label) log of every fault transition, in fire order.
        self.timeline: List[Tuple[float, str]] = []

    @property
    def plan(self) -> FaultPlan:
        """The compiled schedule."""
        return self._plan

    # -- hot-path hooks (O(1), no allocation) ---------------------------

    def blocked(self, mode: LinkMode) -> bool:
        """Whether an active fault kills packets of ``mode`` right now."""
        return self._blocked_depth[mode] > 0

    def corrupt_ack(self) -> bool:
        """Draw whether the current ACK is corrupted (private stream;
        zero draws while no corruption window is active)."""
        probability = self._ack_corrupt_p
        return probability > 0.0 and self._rng.random() < probability

    def acks_at_risk(self) -> bool:
        """Whether an ACK-corruption window is active, so that
        :meth:`corrupt_ack` would draw (only fault events change it)."""
        return self._ack_corrupt_p > 0.0

    def switch_stuck(self) -> bool:
        """Whether the RF switch is currently stuck."""
        return self._stuck_depth > 0

    def energy_scales(self) -> Tuple[float, float]:
        """(scale_a, scale_b) applied to battery levels *reported* to the
        policies (misreport faults lie to planners, not to batteries)."""
        return self._scale_a, self._scale_b

    # -- arming ----------------------------------------------------------

    def arm(self, session: "CommunicationSession") -> "FaultInjector":
        """Attach to a pair session and compile the plan onto its
        simulator.  Idempotent state-wise but callable once.

        Raises:
            RuntimeError: if the injector is already armed.
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        session.attach_injector(self)
        sim = session.simulator
        for spec in self._plan:
            self._compile_pair(sim, session, spec)
        return self

    # -- compilation -----------------------------------------------------

    def _compile_pair(
        self, sim: "Simulator", session: "CommunicationSession", spec: FaultSpec
    ) -> None:
        kind = spec.kind
        modes = spec.blocked_modes()
        if modes is not None:
            reboot = session if kind is FaultKind.NODE_CRASH else None
            sim.schedule_at(
                spec.start_s, lambda: self._begin_block(session, spec, modes)
            )
            sim.schedule_at(spec.end_s, lambda: self._end_block(spec, modes, reboot))
        elif kind is FaultKind.DEEP_FADE:
            link = session.link
            sim.schedule_at(spec.start_s, lambda: self._begin_fade(session, spec, link))
            sim.schedule_at(spec.end_s, lambda: self._end_fade(spec, link))
        elif kind is FaultKind.BATTERY_MISREPORT:
            sim.schedule_at(spec.start_s, lambda: self._begin_misreport(session, spec))
            sim.schedule_at(spec.end_s, lambda: self._end_misreport(spec))
        elif kind is FaultKind.BATTERY_STEP_DRAIN:
            sim.schedule_at(spec.start_s, lambda: self._fire_step_drain(session, spec))
        elif kind is FaultKind.ACK_CORRUPTION:
            sim.schedule_at(spec.start_s, lambda: self._begin_ack(session, spec))
            sim.schedule_at(spec.end_s, lambda: self._end_ack(spec))
        elif kind is FaultKind.STUCK_SWITCH:
            sim.schedule_at(spec.start_s, lambda: self._begin_stuck(session, spec))
            sim.schedule_at(spec.end_s, lambda: self._end_stuck(spec))
        else:  # pragma: no cover - FaultKind is closed
            raise AssertionError(f"unhandled fault kind {kind!r}")

    # -- event bodies ----------------------------------------------------

    def _log(self, spec: FaultSpec, time_s: float, edge: str) -> None:
        label = spec.kind.value if not spec.target else f"{spec.kind.value}:{spec.target}"
        self.timeline.append((time_s, f"{label} {edge}"))

    def _onset(self, session, spec: FaultSpec) -> None:
        session.metrics.fault_events += 1
        self._log(spec, spec.start_s, "begin")

    def _clear(self, spec: FaultSpec, time_s: float) -> None:
        self._log(spec, time_s, "end")

    def _begin_block(self, session, spec: FaultSpec, modes: FrozenSet[LinkMode]) -> None:
        self._onset(session, spec)
        for mode in modes:
            self._blocked_depth[mode] += 1

    def _end_block(self, spec: FaultSpec, modes: FrozenSet[LinkMode], rebooting) -> None:
        for mode in modes:
            self._blocked_depth[mode] -= 1
        self._clear(spec, spec.end_s)
        if rebooting is not None:
            rebooting.on_peer_reboot()

    def _begin_fade(self, session, spec: FaultSpec, link) -> None:
        self._onset(session, spec)
        link.snr_offset_db = link.snr_offset_db - spec.magnitude

    def _end_fade(self, spec: FaultSpec, link) -> None:
        link.snr_offset_db = link.snr_offset_db + spec.magnitude
        self._clear(spec, spec.end_s)

    def _begin_misreport(self, session, spec: FaultSpec) -> None:
        self._onset(session, spec)
        if spec.target == "a":
            self._scale_a = spec.magnitude
        else:
            self._scale_b = spec.magnitude

    def _end_misreport(self, spec: FaultSpec) -> None:
        if spec.target == "a":
            self._scale_a = 1.0
        else:
            self._scale_b = 1.0
        self._clear(spec, spec.end_s)

    def _fire_step_drain(self, session, spec: FaultSpec) -> None:
        self._onset(session, spec)
        session.apply_step_drain(spec.target, spec.magnitude)

    def _begin_ack(self, session, spec: FaultSpec) -> None:
        self._onset(session, spec)
        self._ack_corrupt_p = spec.magnitude

    def _end_ack(self, spec: FaultSpec) -> None:
        self._ack_corrupt_p = 0.0
        self._clear(spec, spec.end_s)

    def _begin_stuck(self, session, spec: FaultSpec) -> None:
        self._onset(session, spec)
        self._stuck_depth += 1

    def _end_stuck(self, spec: FaultSpec) -> None:
        self._stuck_depth -= 1
        self._clear(spec, spec.end_s)
