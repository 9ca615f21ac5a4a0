"""Deploy-layer fault schedules: what goes wrong across a city region.

A :class:`RegionFaultPlan` shares the pair-level
:class:`~repro.faults.plan.FaultPlan`'s schedule container
(:class:`~repro.faults.plan.FaultSchedule`): a frozen, canonically
ordered list of :class:`RegionFaultSpec` records, JSON round-trippable
through a strict parser and carrying a stable SHA-256 content
fingerprint, so the same plan always derives the same fault RNG streams
and the same campaign cache entries.  Faults here target
*infrastructure*, not single links: a hub goes dark and reboots, a hub's
carrier browns out, a whole region's noise floor surges, or the device
population flaps en masse.

The plan says *what goes wrong when*; compiling it into region DES
events — and driving the hub-to-hub handoff that lets devices survive
it — is :class:`~repro.faults.deploy.RegionFaultDriver`'s job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..core.records import Record, as_enum, as_records
from .plan import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..deploy.spec import DeploymentSpec

#: Bump when region-fault semantics change incompatibly (invalidates any
#: fingerprint-keyed cache entries and derived RNG streams).
REGION_FAULT_SCHEMA_VERSION = 1

#: ``hub`` value meaning "every hub in every region".
REGION_WIDE = -1


class RegionFaultKind(enum.Enum):
    """What goes wrong at deployment scale."""

    #: The hub loses power for the window and reboots at the end: every
    #: client it was serving is orphaned and tries to re-associate with
    #: a neighbor hub; the returning hub reclaims its flock.
    HUB_BLACKOUT = "hub_blackout"
    #: The hub's carrier emitter browns out: backscatter and passive
    #: uplinks (which need a powered carrier) fail for the window, but
    #: the active link — and the TDMA rotation — keep running.
    HUB_BROWNOUT = "hub_brownout"
    #: A flash-churn storm: each in-scope device flaps off the air with
    #: probability ``magnitude`` at a random point in the window and
    #: sleeps a random slice of it (think firmware push, transit surge).
    CHURN_STORM = "churn_storm"
    #: The regional noise floor rises by ``magnitude`` dB for the window
    #: (co-located interferer, weather, spectrum congestion); every link
    #: in scope loses that much SNR.
    NOISE_SURGE = "noise_surge"


#: Kinds that must name a single hub (power events are per-hub).
_HUB_SCOPED_KINDS = frozenset(
    {RegionFaultKind.HUB_BLACKOUT, RegionFaultKind.HUB_BROWNOUT}
)


@dataclass(frozen=True)
class RegionFaultSpec(Record):
    """One scheduled deployment-layer fault.

    Attributes:
        kind: what goes wrong.
        start_s: onset time (simulation seconds).
        duration_s: window length (all region faults are windows).
        magnitude: kind-specific knob — flap probability in (0, 1] for
            :attr:`RegionFaultKind.CHURN_STORM`, dB for
            :attr:`RegionFaultKind.NOISE_SURGE`; unused otherwise.
        hub: global hub index the fault targets; :data:`REGION_WIDE`
            (the default) scopes storm/surge faults to every hub.
    """

    kind: RegionFaultKind
    start_s: float
    duration_s: float
    magnitude: float = 0.0
    hub: int = REGION_WIDE

    OWNER = "region fault"
    GATES = {"kind": as_enum(RegionFaultKind)}

    def __post_init__(self) -> None:
        self.require_finite()
        if self.start_s < 0.0:
            raise ValueError(f"fault start must be non-negative, got {self.start_s!r}")
        if self.duration_s <= 0.0:
            raise ValueError(
                f"{self.kind.value} needs a positive duration window"
            )
        if self.kind in _HUB_SCOPED_KINDS and self.hub < 0:
            raise ValueError(f"{self.kind.value} must target a specific hub index")
        if self.hub < REGION_WIDE:
            raise ValueError(
                f"hub must be a hub index or {REGION_WIDE} (region-wide), "
                f"got {self.hub!r}"
            )
        if self.kind is RegionFaultKind.CHURN_STORM and not 0.0 < self.magnitude <= 1.0:
            raise ValueError(
                f"churn-storm flap probability must be in (0, 1], got {self.magnitude!r}"
            )
        if self.kind is RegionFaultKind.NOISE_SURGE and self.magnitude <= 0.0:
            raise ValueError(
                f"noise surge must raise the floor by a positive dB, got {self.magnitude!r}"
            )

    @property
    def end_s(self) -> float:
        """When the fault clears (blackout: when the hub reboots)."""
        return self.start_s + self.duration_s

    def sort_key(self) -> "tuple[float, str, int, float, float]":
        """Canonical ordering: by onset, then kind/hub for stability."""
        return (self.start_s, self.kind.value, self.hub, self.duration_s, self.magnitude)

    def window_scope(self) -> str:
        """Where this spec's same-kind windows may not overlap: on its
        hub scope, for every kind."""
        return "region-wide" if self.hub == REGION_WIDE else f"hub {self.hub}"


@dataclass(frozen=True)
class RegionFaultPlan(FaultSchedule):
    """A deployment fault schedule of :class:`RegionFaultSpec` records;
    same-kind windows on one hub scope may not overlap."""

    faults: "tuple[RegionFaultSpec, ...]"

    OWNER = "region fault plan"
    SCHEMA_VERSION = REGION_FAULT_SCHEMA_VERSION
    GATES = {"faults": as_records(RegionFaultSpec)}

    def scoped_to(self, hub_indices: Iterable[int]) -> "tuple[RegionFaultSpec, ...]":
        """Specs touching any of ``hub_indices`` (plus region-wide ones),
        in canonical order — what one region's driver must compile."""
        members = set(hub_indices)
        return tuple(
            s for s in self.faults if s.hub == REGION_WIDE or s.hub in members
        )


# -- named chaos profiles ------------------------------------------------

#: Profiles ``deploy --faults`` understands, in display order.
REGION_FAULT_PROFILES: "tuple[str, ...]" = (
    "none",
    "blackout",
    "brownout",
    "churn-storm",
    "noise-surge",
    "metro-chaos",
)


def region_fault_plan_for(profile: str, spec: "DeploymentSpec") -> RegionFaultPlan:
    """The named chaos profile, instantiated against one scenario.

    Fault windows are placed inside the scenario's *measured* span (so
    warmup stays clean and every window clears before the horizon —
    blackouts reboot, coverage recovers, and the dip is visible in the
    reported metrics).  Hub-scoped profiles hit the first hub of every
    region, which is what makes handoff exercise every neighborhood.

    Raises:
        ValueError: for unknown profile names.
    """
    if profile not in REGION_FAULT_PROFILES:
        known = ", ".join(REGION_FAULT_PROFILES)
        raise ValueError(f"unknown fault profile {profile!r} (known: {known})")
    if profile == "none":
        return RegionFaultPlan.empty()

    from ..deploy.partition import partition

    window = spec.duration_s
    first_hubs = tuple(region.hub_indices[0] for region in partition(spec).regions)
    faults: "list[RegionFaultSpec]" = []
    if profile in ("blackout", "metro-chaos"):
        faults.extend(
            RegionFaultSpec(
                kind=RegionFaultKind.HUB_BLACKOUT,
                start_s=spec.warmup_s + 0.25 * window,
                duration_s=0.35 * window,
                hub=hub,
            )
            for hub in first_hubs
        )
    if profile == "brownout":
        faults.extend(
            RegionFaultSpec(
                kind=RegionFaultKind.HUB_BROWNOUT,
                start_s=spec.warmup_s + 0.2 * window,
                duration_s=0.4 * window,
                hub=hub,
            )
            for hub in first_hubs
        )
    if profile == "churn-storm":
        faults.append(
            RegionFaultSpec(
                kind=RegionFaultKind.CHURN_STORM,
                start_s=spec.warmup_s + 0.2 * window,
                duration_s=0.4 * window,
                magnitude=0.5,
            )
        )
    if profile in ("noise-surge", "metro-chaos"):
        faults.append(
            RegionFaultSpec(
                kind=RegionFaultKind.NOISE_SURGE,
                start_s=spec.warmup_s + 0.65 * window,
                duration_s=0.25 * window,
                magnitude=6.0,
            )
        )
    return RegionFaultPlan.of(*faults)
