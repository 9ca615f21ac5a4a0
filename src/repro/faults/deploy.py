"""Compile a :class:`~repro.faults.region.RegionFaultPlan` into region
DES events.

The driver is the deployment-scale sibling of the pair-level
:class:`~repro.faults.injector.FaultInjector`: it walks the plan's
canonically ordered specs, keeps the ones in scope for its region, and
schedules begin/end callbacks on the region kernel, whose lanes carry
the hubs, so each edge sees every hub at its instant.  The plan
checked its windows when it was built (no two same-kind windows overlap
on one hub scope), so each begin/end pair toggles unambiguous state.
The *mechanics* of surviving the faults — powering hubs down and up,
orphaning and re-associating devices, blocking carrier modes, shifting
noise floors — live in
:class:`~repro.deploy.region.HandoffCoordinator` and the hub sessions it
drives; the driver only
decides *when* each lever is pulled, and pre-samples every churn-storm
draw at arm time, in canonical order, from the region fault stream of
:mod:`repro.faults.seeding`, so runtime event interleaving can never
perturb the stream.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from .region import REGION_WIDE, RegionFaultKind, RegionFaultPlan, RegionFaultSpec
from .seeding import region_fault_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..deploy.partition import Region
    from ..deploy.region import HandoffCoordinator
    from ..deploy.spec import DeploymentSpec


class RegionFaultDriver:
    """Arms one region's fault schedule on its region kernel.

    Attributes:
        timeline: (time_s, label) records appended as fault edges fire —
            the audit trail tests and reports read back.
        fault_events: fault onsets observed so far.
    """

    def __init__(
        self,
        spec: "DeploymentSpec",
        region: "Region",
        plan: RegionFaultPlan,
        coordinator: "HandoffCoordinator",
    ) -> None:
        self._spec = spec
        self._region = region
        self._plan = plan
        self._coordinator = coordinator
        self._armed = False
        self.timeline: "list[tuple[float, str]]" = []
        self.fault_events = 0

    @property
    def armed(self) -> bool:
        """Whether :meth:`arm` has compiled the plan."""
        return self._armed

    def arm(self) -> None:
        """Compile the in-scope specs into kernel events (idempotence
        guard: arming twice would double-fire every fault).

        Raises:
            RuntimeError: if already armed.
        """
        if self._armed:
            raise RuntimeError("region fault driver is already armed")
        self._armed = True
        sim = self._coordinator.simulator
        storm_rng = None
        for spec in self._plan.scoped_to(self._region.hub_indices):
            if spec.kind is RegionFaultKind.HUB_BLACKOUT:
                local = self._coordinator.local_index_of(spec.hub)
                sim.schedule_at(
                    spec.start_s, functools.partial(self._blackout_begin, local, spec)
                )
                sim.schedule_at(
                    spec.end_s, functools.partial(self._blackout_end, local, spec)
                )
            elif spec.kind is RegionFaultKind.HUB_BROWNOUT:
                local = self._coordinator.local_index_of(spec.hub)
                sim.schedule_at(
                    spec.start_s, functools.partial(self._brownout_begin, local, spec)
                )
                sim.schedule_at(
                    spec.end_s, functools.partial(self._brownout_end, local, spec)
                )
            elif spec.kind is RegionFaultKind.NOISE_SURGE:
                local_scope = (
                    None
                    if spec.hub == REGION_WIDE
                    else self._coordinator.local_index_of(spec.hub)
                )
                sim.schedule_at(
                    spec.start_s,
                    functools.partial(self._surge_begin, local_scope, spec),
                )
                sim.schedule_at(
                    spec.end_s, functools.partial(self._surge_end, local_scope, spec)
                )
            elif spec.kind is RegionFaultKind.CHURN_STORM:
                if storm_rng is None:
                    storm_rng = region_fault_rng(
                        self._spec.fingerprint(),
                        self._plan,
                        f"region{self._region.index}:storm",
                        self._spec.seed,
                    )
                self._compile_storm(spec, storm_rng, sim)

    # -- compile-time sampling -------------------------------------------

    def _compile_storm(self, spec: RegionFaultSpec, rng, sim) -> None:
        # Draw order is canonical — hubs in local order, devices in plan
        # order, (flap?, nap start, nap length) per flapping device — so
        # the storm depends only on (scenario, plan, seed).
        if spec.hub == REGION_WIDE:
            scope = range(self._region.hub_count)
        else:
            scope = (self._coordinator.local_index_of(spec.hub),)
        sim.schedule_at(spec.start_s, functools.partial(self._storm_onset, spec))
        for local in scope:
            runtime = self._coordinator.runtime(local)
            for plan in runtime.plans:
                if float(rng.random()) >= spec.magnitude:
                    continue
                nap_start = spec.start_s + float(rng.random()) * 0.5 * spec.duration_s
                nap_len = (0.2 + 0.4 * float(rng.random())) * spec.duration_s
                nap_end = min(nap_start + nap_len, spec.end_s)
                sim.schedule_at(
                    nap_start, functools.partial(self._storm_suspend, plan.name)
                )
                sim.schedule_at(
                    nap_end, functools.partial(self._storm_resume, plan.name)
                )

    # -- fault edges ------------------------------------------------------

    def _onset(self, spec: RegionFaultSpec, locals_: "tuple[int, ...]") -> None:
        self.fault_events += 1
        for local in locals_:
            runtime = self._coordinator.runtime(local)
            runtime.session.hub_metrics.fault_events += 1

    def _scope_label(self, spec: RegionFaultSpec) -> str:
        return "region" if spec.hub == REGION_WIDE else f"hub{spec.hub}"

    def _mark(self, spec: RegionFaultSpec, edge: str) -> None:
        self.timeline.append(
            (
                self._coordinator.simulator.now_s,
                f"{spec.kind.value}:{self._scope_label(spec)}:{edge}",
            )
        )

    def _blackout_begin(self, local: int, spec: RegionFaultSpec) -> None:
        self._onset(spec, (local,))
        self._mark(spec, "begin")
        self._coordinator.hub_down(local)

    def _blackout_end(self, local: int, spec: RegionFaultSpec) -> None:
        self._mark(spec, "end")
        self._coordinator.hub_up(local)

    def _brownout_begin(self, local: int, spec: RegionFaultSpec) -> None:
        self._onset(spec, (local,))
        self._mark(spec, "begin")
        self._coordinator.begin_brownout(local)

    def _brownout_end(self, local: int, spec: RegionFaultSpec) -> None:
        self._mark(spec, "end")
        self._coordinator.end_brownout(local)

    def _surge_begin(self, local: "int | None", spec: RegionFaultSpec) -> None:
        scope = (
            tuple(range(self._region.hub_count)) if local is None else (local,)
        )
        self._onset(spec, scope)
        self._mark(spec, "begin")
        self._coordinator.begin_surge(spec.magnitude, local)

    def _surge_end(self, local: "int | None", spec: RegionFaultSpec) -> None:
        self._mark(spec, "end")
        self._coordinator.end_surge(spec.magnitude, local)

    def _storm_onset(self, spec: RegionFaultSpec) -> None:
        scope = (
            tuple(range(self._region.hub_count))
            if spec.hub == REGION_WIDE
            else (self._coordinator.local_index_of(spec.hub),)
        )
        self._onset(spec, scope)
        self._mark(spec, "begin")

    def _storm_suspend(self, name: str) -> None:
        self._coordinator.storm_suspend(name)

    def _storm_resume(self, name: str) -> None:
        self._coordinator.storm_resume(name)
