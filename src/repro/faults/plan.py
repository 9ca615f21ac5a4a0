"""Declarative fault schedules.

A :class:`FaultPlan` is a frozen list of :class:`FaultSpec` records — each
one names a fault kind, a start time, a duration, and kind-specific knobs
(magnitude, target device, mode scope).  Plans are pure data:
hashable, JSON-serializable, and carrying a stable content fingerprint,
so the same plan always derives the same fault RNG stream and the same
campaign cache entry (mirroring :mod:`repro.runtime.jobs`).

The plan says *what goes wrong when*; compiling it into discrete-event
hooks is the :class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..core.modes import LinkMode
from ..core.validation import require_finite

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


@dataclass(frozen=True)
class FaultSpec:
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

    def __post_init__(self) -> None:
        require_finite(
            "fault",
            {
                "start_s": self.start_s,
                "duration_s": self.duration_s,
                "magnitude": self.magnitude,
            },
        )
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

    def blocked_modes(self) -> "frozenset[LinkMode] | None":
        """Modes this fault kills while active (``None`` = not a blocking
        fault)."""
        if self.kind in (FaultKind.LINK_OUTAGE, FaultKind.NODE_CRASH):
            return frozenset(LinkMode)
        if self.kind is FaultKind.CARRIER_DROPOUT:
            return frozenset({LinkMode.BACKSCATTER, LinkMode.PASSIVE})
        return None

    def to_dict(self) -> "dict[str, object]":
        """Primitive form for JSON round-trips."""
        return {
            "kind": self.kind.value,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "magnitude": self.magnitude,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "FaultSpec":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: for unknown kinds or invalid fields.
        """
        return cls(
            kind=FaultKind(data["kind"]),
            start_s=float(data["start_s"]),  # type: ignore[arg-type]
            duration_s=float(data.get("duration_s", 0.0)),  # type: ignore[arg-type]
            magnitude=float(data.get("magnitude", 0.0)),  # type: ignore[arg-type]
            target=str(data.get("target", "")),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, canonically-ordered fault schedule.

    Specs are sorted on construction so two plans with the same faults in
    different textual order share a fingerprint (and hence an RNG stream
    and a cache identity).
    """

    faults: "tuple[FaultSpec, ...]" = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "faults", tuple(sorted(self.faults, key=FaultSpec.sort_key))
        )

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultPlan":
        """Build a plan from individual specs."""
        return cls(faults=tuple(faults))

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-fault plan (arming it is a behavioral no-op)."""
        return cls()

    def __iter__(self) -> Iterator[FaultSpec]:
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

    def to_json(self) -> str:
        """Canonical JSON form (stable ordering, version-stamped)."""
        return json.dumps(
            {
                "version": FAULT_SCHEMA_VERSION,
                "faults": [spec.to_dict() for spec in self.faults],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan serialized with :meth:`to_json`.

        Raises:
            ValueError: on schema-version mismatch or invalid specs.
        """
        data = json.loads(text)
        version = data.get("version")
        if version != FAULT_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan schema {version!r} != supported {FAULT_SCHEMA_VERSION}"
            )
        return cls(
            faults=tuple(FaultSpec.from_dict(entry) for entry in data["faults"])
        )

    def fingerprint(self) -> str:
        """Stable content hash (hex) — the plan's identity for seeding
        and caching."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def validate_windows(specs: Iterable[FaultSpec]) -> None:
    """Reject same-kind overlapping windows for stateful kinds where the
    injector's set/reset compilation would be ambiguous (misreport scale,
    fade depth, ACK probability).

    Raises:
        ValueError: when two same-kind windows (same target) overlap.
    """
    stateful = (
        FaultKind.BATTERY_MISREPORT,
        FaultKind.DEEP_FADE,
        FaultKind.ACK_CORRUPTION,
    )
    by_key: "dict[tuple[FaultKind, str], list[FaultSpec]]" = {}
    for spec in specs:
        if spec.kind in stateful:
            by_key.setdefault((spec.kind, spec.target), []).append(spec)
    for (kind, target), entries in by_key.items():
        entries.sort(key=FaultSpec.sort_key)
        for earlier, later in zip(entries, entries[1:]):
            if later.start_s < earlier.end_s:
                raise ValueError(
                    f"overlapping {kind.value} windows"
                    f"{f' on {target!r}' if target else ''}: "
                    f"[{earlier.start_s}, {earlier.end_s}) and "
                    f"[{later.start_s}, {later.end_s})"
                )
