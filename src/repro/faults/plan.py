"""Declarative fault schedules.

A :class:`FaultPlan` is a frozen list of :class:`FaultSpec` records — each
one names a fault kind, a start time, a duration, and kind-specific knobs
(magnitude, target device, mode scope).  Plans are pure data:
hashable, JSON-serializable, and carrying a stable content fingerprint,
so the same plan always derives the same fault RNG stream and the same
campaign cache entry.  Both the pair plan and the deploy layer's
:class:`~repro.faults.region.RegionFaultPlan` are a
:class:`FaultSchedule`, whose JSON form, strict parser and fingerprint
derive from the dataclass fields (:mod:`repro.core.records`).

The plan says *what goes wrong when*; compiling it into discrete-event
hooks is the :class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import methodcaller
from typing import Iterable, Iterator, TypeVar

from ..core.modes import LinkMode
from ..core.records import Record, as_enum, as_records

#: Bump when the fault semantics change incompatibly (invalidates any
#: fingerprint-keyed cache entries and derived RNG streams).
FAULT_SCHEMA_VERSION = 1


class FaultKind(enum.Enum):
    """What goes wrong."""

    #: The link delivers nothing: every packet in the window is lost,
    #: regardless of mode (blocked shelf, body occlusion, jammer).
    LINK_OUTAGE = "link_outage"
    #: A deep fade: the SNR of every mode drops by ``magnitude`` dB for
    #: the window (packets may still survive at short range).
    DEEP_FADE = "deep_fade"
    #: One end point crashes and reboots: the link is dead for the window
    #: and on reboot the session re-negotiates its policies.
    NODE_CRASH = "node_crash"
    #: The carrier emitter dies: backscatter and passive packets (which
    #: need a powered carrier) are lost; the active link still works.
    CARRIER_DROPOUT = "carrier_dropout"
    #: The fuel gauge lies: battery levels reported to the policies are
    #: scaled by ``magnitude`` (e.g. 0.5 = half the true charge) for the
    #: targeted device during the window.
    BATTERY_MISREPORT = "battery_misreport"
    #: A step drain: ``magnitude`` joules vanish from the targeted
    #: device's battery at ``start_s`` (a parasitic load, a sensor burst).
    BATTERY_STEP_DRAIN = "battery_step_drain"
    #: ACKs are corrupted with probability ``magnitude`` during the
    #: window (drawn from the injector's own RNG stream).
    ACK_CORRUPTION = "ack_corruption"
    #: The RF switch sticks: mode transitions silently fail and packets
    #: go out through the last committed path for the window.
    STUCK_SWITCH = "stuck_switch"


#: Kinds that are instantaneous events rather than windows.
_INSTANT_KINDS = frozenset({FaultKind.BATTERY_STEP_DRAIN})

#: Kinds whose ``target`` names a device side ("a"/"b").
_TARGETED_KINDS = frozenset(
    {FaultKind.BATTERY_MISREPORT, FaultKind.BATTERY_STEP_DRAIN, FaultKind.NODE_CRASH}
)

#: Kinds whose set/reset compilation would be ambiguous if two windows
#: on one target overlapped (misreport scale, fade depth, ACK
#: probability); the blocking kinds stack via depth counters.
_STATEFUL_KINDS = frozenset(
    {FaultKind.BATTERY_MISREPORT, FaultKind.DEEP_FADE, FaultKind.ACK_CORRUPTION}
)


@dataclass(frozen=True)
class FaultSpec(Record):
    """One scheduled fault.

    Attributes:
        kind: what goes wrong.
        start_s: onset time (simulation seconds).
        duration_s: window length (0 for instantaneous kinds).
        magnitude: kind-specific knob — dB for :attr:`FaultKind.DEEP_FADE`,
            a scale factor for :attr:`FaultKind.BATTERY_MISREPORT`, joules
            for :attr:`FaultKind.BATTERY_STEP_DRAIN`, a probability for
            :attr:`FaultKind.ACK_CORRUPTION`; unused otherwise.
        target: ledger account name ("a"/"b") for the targeted kinds; ""
            applies to the pair link / both sides.
    """

    kind: FaultKind
    start_s: float
    duration_s: float = 0.0
    magnitude: float = 0.0
    target: str = ""

    OWNER = "fault"
    GATES = {"kind": as_enum(FaultKind)}

    def __post_init__(self) -> None:
        self.require_finite()
        if self.start_s < 0.0:
            raise ValueError(f"fault start must be non-negative, got {self.start_s!r}")
        if self.duration_s < 0.0:
            raise ValueError(f"fault duration must be non-negative, got {self.duration_s!r}")
        if self.kind in _INSTANT_KINDS:
            if self.duration_s != 0.0:
                raise ValueError(f"{self.kind.value} is instantaneous; duration must be 0")
        elif self.duration_s == 0.0:
            raise ValueError(f"{self.kind.value} needs a positive duration window")
        if self.kind is FaultKind.ACK_CORRUPTION and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"ACK corruption probability must be in [0, 1], got {self.magnitude!r}")
        if self.kind is FaultKind.BATTERY_MISREPORT and self.magnitude <= 0.0:
            raise ValueError(f"misreport scale must be positive, got {self.magnitude!r}")
        if self.kind is FaultKind.BATTERY_STEP_DRAIN and self.magnitude <= 0.0:
            raise ValueError(f"step drain must remove a positive amount, got {self.magnitude!r}")
        if self.kind in _TARGETED_KINDS and not self.target:
            raise ValueError(f"{self.kind.value} needs a target device")

    @property
    def end_s(self) -> float:
        """When the fault clears."""
        return self.start_s + self.duration_s

    def sort_key(self) -> "tuple[float, str, str, float, float]":
        """Canonical ordering: by onset, then kind/target for stability."""
        return (self.start_s, self.kind.value, self.target, self.duration_s, self.magnitude)

    def window_scope(self) -> "str | None":
        """Where this spec's same-kind windows may not overlap: on its
        target for the stateful kinds, nowhere (``None``) for the rest."""
        if self.kind not in _STATEFUL_KINDS:
            return None
        return repr(self.target) if self.target else ""

    def blocked_modes(self) -> "frozenset[LinkMode] | None":
        """Modes this fault kills while active (``None`` = not a blocking
        fault)."""
        if self.kind in (FaultKind.LINK_OUTAGE, FaultKind.NODE_CRASH):
            return frozenset(LinkMode)
        if self.kind is FaultKind.CARRIER_DROPOUT:
            return frozenset({LinkMode.BACKSCATTER, LinkMode.PASSIVE})
        return None


_S = TypeVar("_S", bound="FaultSchedule")


@dataclass(frozen=True)
class FaultSchedule(Record):
    """An immutable, canonically-ordered fault schedule: the container
    :class:`FaultPlan` and :class:`~repro.faults.region.RegionFaultPlan`
    share (each names its spec type's gate for ``faults``).

    Specs are sorted on construction so two plans with the same faults in
    different textual order share a fingerprint (and hence an RNG stream
    and a cache identity), and :func:`validate_windows` rejects windows
    whose set/reset compilation would be ambiguous.
    """

    faults: tuple

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.faults, key=methodcaller("sort_key")))
        object.__setattr__(self, "faults", ordered)
        validate_windows(ordered)

    @classmethod
    def of(cls: "type[_S]", *faults: object) -> _S:
        """Build a plan from individual specs."""
        return cls(faults)

    @classmethod
    def empty(cls: "type[_S]") -> _S:
        """The no-fault plan (arming it is a behavioral no-op)."""
        return cls(())

    def __iter__(self) -> Iterator:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def is_empty(self) -> bool:
        """Whether the plan schedules anything at all."""
        return not self.faults

    def horizon_s(self) -> float:
        """Time by which every scheduled fault has cleared."""
        return max((spec.end_s for spec in self.faults), default=0.0)


@dataclass(frozen=True)
class FaultPlan(FaultSchedule):
    """A pair-level fault schedule of :class:`FaultSpec` records."""

    faults: "tuple[FaultSpec, ...]"

    OWNER = "fault plan"
    SCHEMA_VERSION = FAULT_SCHEMA_VERSION
    GATES = {"faults": as_records(FaultSpec)}


def validate_windows(specs: Iterable) -> None:
    """Reject two same-kind windows that overlap where their spec type
    forbids it (its ``window_scope``): set/reset compilation of the pair
    (stateful kinds, per target) or a region's (every kind, per hub
    scope) would be ambiguous.

    Raises:
        ValueError: naming the kind, the scope and both windows.
    """
    last: "dict[tuple[object, str], object]" = {}
    for spec in sorted(specs, key=methodcaller("sort_key")):
        scope = spec.window_scope()
        if scope is None:
            continue
        earlier = last.get((spec.kind, scope))
        if earlier is not None and spec.start_s < earlier.end_s:
            raise ValueError(
                f"overlapping {spec.kind.value} windows"
                f"{f' on {scope}' if scope else ''}: "
                f"[{earlier.start_s}, {earlier.end_s}) and "
                f"[{spec.start_s}, {spec.end_s})"
            )
        last[(spec.kind, scope)] = spec
