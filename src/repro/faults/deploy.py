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
        fault_events: fault onsets observed so far (the region report's
            ``fault_events``).
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
        self.fault_events = 0

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
                    spec.start_s, functools.partial(self._blackout_begin, local)
                )
                sim.schedule_at(
                    spec.end_s, functools.partial(self._coordinator.hub_up, local)
                )
            elif spec.kind is RegionFaultKind.HUB_BROWNOUT:
                local = self._coordinator.local_index_of(spec.hub)
                sim.schedule_at(
                    spec.start_s, functools.partial(self._brownout_begin, local)
                )
                sim.schedule_at(
                    spec.end_s, functools.partial(self._coordinator.end_brownout, local)
                )
            elif spec.kind is RegionFaultKind.NOISE_SURGE:
                local_scope = (
                    None
                    if spec.hub == REGION_WIDE
                    else self._coordinator.local_index_of(spec.hub)
                )
                sim.schedule_at(
                    spec.start_s,
                    functools.partial(self._surge_begin, local_scope, spec.magnitude),
                )
                sim.schedule_at(
                    spec.end_s,
                    functools.partial(
                        self._coordinator.end_surge, spec.magnitude, local_scope
                    ),
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
            scope = tuple(range(self._region.hub_count))
        else:
            scope = (self._coordinator.local_index_of(spec.hub),)
        sim.schedule_at(spec.start_s, functools.partial(self._onset, scope))
        for local in scope:
            runtime = self._coordinator.runtime(local)
            for plan in runtime.plans:
                if float(rng.random()) >= spec.magnitude:
                    continue
                nap_start = spec.start_s + float(rng.random()) * 0.5 * spec.duration_s
                nap_len = (0.2 + 0.4 * float(rng.random())) * spec.duration_s
                nap_end = min(nap_start + nap_len, spec.end_s)
                sim.schedule_at(
                    nap_start, functools.partial(self._coordinator.storm_suspend, plan.name)
                )
                sim.schedule_at(
                    nap_end, functools.partial(self._coordinator.storm_resume, plan.name)
                )

    # -- fault onsets (each end edge calls its coordinator lever directly)

    def _onset(self, locals_: "tuple[int, ...]") -> None:
        self.fault_events += 1
        for local in locals_:
            runtime = self._coordinator.runtime(local)
            runtime.session.hub_metrics.fault_events += 1

    def _blackout_begin(self, local: int) -> None:
        self._onset((local,))
        self._coordinator.hub_down(local)

    def _brownout_begin(self, local: int) -> None:
        self._onset((local,))
        self._coordinator.begin_brownout(local)

    def _surge_begin(self, local: "int | None", magnitude: float) -> None:
        self._onset(tuple(range(self._region.hub_count)) if local is None else (local,))
        self._coordinator.begin_surge(magnitude, local)
