"""Declarative deployment scenarios: city-scale multi-hub topologies.

A :class:`DeploymentSpec` describes an entire deployment as pure data —
where the hubs sit (grid / poisson / manual), what population of devices
each hub serves (class mixes of energy-rich phones vs. tiny harvesting
tags), how long to warm up and measure, and how devices churn (join /
leave / sleep).  Specs are frozen, JSON round-trippable and carry a
stable SHA-256 content fingerprint (mirroring
:mod:`repro.faults.plan` and :mod:`repro.runtime.jobs`), so the same
scenario always derives the same RNG streams, the same region jobs and
the same cache entries.

The spec says *what the city looks like*; carving it into independently
simulable regions is :mod:`repro.deploy.partition`'s job and running one
region is :mod:`repro.deploy.region`'s.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..core.validation import require_finite
from ..hardware.devices import DEVICE_BY_NAME
from ..runtime.seeding import content_rng

#: Bump when scenario semantics change incompatibly (invalidates any
#: fingerprint-keyed cache entries and derived RNG streams).
DEPLOY_SCHEMA_VERSION = 1

#: Placement strategies :class:`HubLayout` understands.
_STRATEGIES = ("grid", "poisson", "manual")

#: Mobility models :class:`DeviceClass` understands.
_MOBILITY = ("static", "waypoint")

#: Sentinel distinguishing "field absent" from any real value.
_MISSING = object()


def _reject_unknown(
    owner: str, data: "Mapping[str, object]", known: "tuple[str, ...]"
) -> None:
    """Unknown keys fail loudly — a typo'd field would otherwise silently
    fall back to its default and fingerprint as a different scenario."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{owner} must be a mapping, got {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {owner} field(s) {', '.join(repr(k) for k in unknown)} "
            f"(known: {', '.join(known)})"
        )


def _parse_field(
    owner: str,
    data: "Mapping[str, object]",
    key: str,
    convert,
    default: object = _MISSING,
):
    """One field through its type gate; failures name the offending key."""
    if key not in data:
        if default is _MISSING:
            raise ValueError(f"{owner} is missing required field {key!r}")
        return default
    raw = data[key]
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{owner} field {key!r} has invalid value {raw!r}"
        ) from None


def _as_str(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(value)
    return value


def _as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(value)
    return int(value)


def _as_float(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(value)
    return float(value)


def _as_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _as_pair(value: object) -> "tuple[float, float]":
    if isinstance(value, (str, bytes, Mapping)):
        raise ValueError(value)
    x, y = value  # type: ignore[misc]
    return (_as_float(x), _as_float(y))


def _as_positions(value: object) -> "tuple[tuple[float, float], ...]":
    if isinstance(value, (str, bytes, Mapping)):
        raise ValueError(value)
    return tuple(_as_pair(point) for point in value)  # type: ignore[union-attr]


@dataclass(frozen=True)
class HubLayout:
    """Where the hubs sit.

    Attributes:
        strategy: ``"grid"`` (square lattice, ``spacing_m`` pitch),
            ``"poisson"`` (uniform draws over ``area_m``, a fixed-count
            Poisson point process) or ``"manual"`` (``positions_m``).
        count: hub count for grid/poisson (ignored for manual).
        spacing_m: lattice pitch for grid.
        area_m: (width, height) extent for poisson.
        positions_m: explicit (x, y) metres for manual.
    """

    strategy: str = "grid"
    count: int = 1
    spacing_m: float = 25.0
    area_m: "tuple[float, float]" = (200.0, 200.0)
    positions_m: "tuple[tuple[float, float], ...]" = field(default=())

    def __post_init__(self) -> None:
        require_finite(
            "hub layout", {"spacing_m": self.spacing_m, "area_m": self.area_m}
        )
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {self.strategy!r} "
                f"(supported: {', '.join(_STRATEGIES)})"
            )
        if self.strategy == "manual":
            if not self.positions_m:
                raise ValueError("manual placement needs positions")
            canonical = tuple(
                (float(x), float(y)) for x, y in self.positions_m
            )
            require_finite(
                "hub layout", {"positions_m": tuple(c for point in canonical for c in point)}
            )
            object.__setattr__(self, "positions_m", canonical)
        else:
            if self.count < 1:
                raise ValueError(f"hub count must be >= 1, got {self.count!r}")
            if self.positions_m:
                raise ValueError(f"{self.strategy} placement computes its own positions")
        if self.spacing_m <= 0.0:
            raise ValueError("grid spacing must be positive")
        width, height = self.area_m
        if width <= 0.0 or height <= 0.0:
            raise ValueError("area must have positive extent")
        object.__setattr__(self, "area_m", (float(width), float(height)))

    @property
    def hub_count(self) -> int:
        """Number of hubs this layout places."""
        if self.strategy == "manual":
            return len(self.positions_m)
        return self.count

    def to_dict(self) -> "dict[str, object]":
        """Primitive form for JSON round-trips."""
        return {
            "strategy": self.strategy,
            "count": self.count,
            "spacing_m": self.spacing_m,
            "area_m": list(self.area_m),
            "positions_m": [list(p) for p in self.positions_m],
        }

    _FIELDS = ("strategy", "count", "spacing_m", "area_m", "positions_m")

    @classmethod
    def from_dict(cls, data: "Mapping[str, object]") -> "HubLayout":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: naming the offending key, for unknown fields or
                wrong-typed values.
        """
        _reject_unknown("hub layout", data, cls._FIELDS)
        owner = "hub layout"
        return cls(
            strategy=_parse_field(owner, data, "strategy", _as_str, "grid"),
            count=_parse_field(owner, data, "count", _as_int, 1),
            spacing_m=_parse_field(owner, data, "spacing_m", _as_float, 25.0),
            area_m=_parse_field(owner, data, "area_m", _as_pair, (200.0, 200.0)),
            positions_m=_parse_field(
                owner, data, "positions_m", _as_positions, ()
            ),
        )


@dataclass(frozen=True)
class DeviceClass:
    """One slice of every hub's device population.

    Attributes:
        name: class label (``"phone"``, ``"tag"``, ...).
        device: Fig 1 catalog device backing the class (sets the battery).
        share: fraction of each hub's population in this class; shares
            are normalized across classes via largest-remainder so every
            hub gets an identical, deterministic class composition.
        min_distance_m / max_distance_m: separation range devices of this
            class are placed at (uniform draw, quantized to centimetres
            so the link-budget caches stay bounded).
        tdma_weight: air-time weight in the hub's TDMA rotation.
        mobility: ``"static"`` (pinned at the drawn separation) or
            ``"waypoint"`` (a :class:`~repro.sim.mobility.RandomWaypoint1D`
            walk between the class's distance bounds).
    """

    name: str
    device: str
    share: float = 1.0
    min_distance_m: float = 0.3
    max_distance_m: float = 2.0
    tdma_weight: float = 1.0
    mobility: str = "static"

    def __post_init__(self) -> None:
        require_finite(
            "device class",
            {
                "share": self.share,
                "min_distance_m": self.min_distance_m,
                "max_distance_m": self.max_distance_m,
                "tdma_weight": self.tdma_weight,
            },
        )
        if not self.name:
            raise ValueError("device class needs a name")
        if self.device not in DEVICE_BY_NAME:
            known = ", ".join(sorted(DEVICE_BY_NAME))
            raise ValueError(
                f"unknown catalog device {self.device!r} (known: {known})"
            )
        if self.share <= 0.0:
            raise ValueError("class share must be positive")
        if not 0.0 < self.min_distance_m <= self.max_distance_m:
            raise ValueError("distance bounds out of order (and must be positive)")
        if self.tdma_weight <= 0.0:
            raise ValueError("TDMA weight must be positive")
        if self.mobility not in _MOBILITY:
            raise ValueError(
                f"unknown mobility {self.mobility!r} "
                f"(supported: {', '.join(_MOBILITY)})"
            )

    def to_dict(self) -> "dict[str, object]":
        """Primitive form for JSON round-trips."""
        return {
            "name": self.name,
            "device": self.device,
            "share": self.share,
            "min_distance_m": self.min_distance_m,
            "max_distance_m": self.max_distance_m,
            "tdma_weight": self.tdma_weight,
            "mobility": self.mobility,
        }

    _FIELDS = (
        "name", "device", "share", "min_distance_m", "max_distance_m",
        "tdma_weight", "mobility",
    )

    @classmethod
    def from_dict(cls, data: "Mapping[str, object]") -> "DeviceClass":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: naming the offending key, for unknown fields or
                wrong-typed values.
        """
        _reject_unknown("device class", data, cls._FIELDS)
        owner = "device class"
        return cls(
            name=_parse_field(owner, data, "name", _as_str),
            device=_parse_field(owner, data, "device", _as_str),
            share=_parse_field(owner, data, "share", _as_float, 1.0),
            min_distance_m=_parse_field(
                owner, data, "min_distance_m", _as_float, 0.3
            ),
            max_distance_m=_parse_field(
                owner, data, "max_distance_m", _as_float, 2.0
            ),
            tdma_weight=_parse_field(owner, data, "tdma_weight", _as_float, 1.0),
            mobility=_parse_field(owner, data, "mobility", _as_str, "static"),
        )


@dataclass(frozen=True)
class ChurnProcess:
    """How devices come and go.

    All waiting times are exponential draws from the scenario's seeded,
    content-addressed RNG streams, pre-sampled per device before the DES
    starts so event interleaving can never perturb the draws.

    Attributes:
        mean_awake_s: mean on-air dwell between sleeps; 0 disables sleep
            churn entirely.
        mean_asleep_s: mean sleep duration.
        mean_lifetime_s: mean time until a device *permanently* leaves;
            0 means devices never leave.
        late_join_fraction: fraction of devices that start asleep and
            join mid-run.
        mean_join_delay_s: mean join time of the late joiners.
    """

    mean_awake_s: float = 0.0
    mean_asleep_s: float = 2.0
    mean_lifetime_s: float = 0.0
    late_join_fraction: float = 0.0
    mean_join_delay_s: float = 1.0

    def __post_init__(self) -> None:
        require_finite("churn process", self.to_dict())  # type: ignore[arg-type]
        if self.mean_awake_s < 0.0 or self.mean_asleep_s <= 0.0:
            raise ValueError("dwell means must be non-negative / positive")
        if self.mean_lifetime_s < 0.0:
            raise ValueError("lifetime mean must be non-negative")
        if not 0.0 <= self.late_join_fraction <= 1.0:
            raise ValueError("late-join fraction must be in [0, 1]")
        if self.mean_join_delay_s <= 0.0:
            raise ValueError("join delay mean must be positive")

    @property
    def is_static(self) -> bool:
        """Whether this process schedules no churn at all."""
        return (
            self.mean_awake_s == 0.0
            and self.mean_lifetime_s == 0.0
            and self.late_join_fraction == 0.0
        )

    def to_dict(self) -> "dict[str, object]":
        """Primitive form for JSON round-trips."""
        return {
            "mean_awake_s": self.mean_awake_s,
            "mean_asleep_s": self.mean_asleep_s,
            "mean_lifetime_s": self.mean_lifetime_s,
            "late_join_fraction": self.late_join_fraction,
            "mean_join_delay_s": self.mean_join_delay_s,
        }

    _FIELDS = (
        "mean_awake_s", "mean_asleep_s", "mean_lifetime_s",
        "late_join_fraction", "mean_join_delay_s",
    )

    @classmethod
    def from_dict(cls, data: "Mapping[str, object]") -> "ChurnProcess":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: naming the offending key, for unknown fields or
                wrong-typed values.
        """
        _reject_unknown("churn process", data, cls._FIELDS)
        owner = "churn process"
        return cls(
            mean_awake_s=_parse_field(owner, data, "mean_awake_s", _as_float, 0.0),
            mean_asleep_s=_parse_field(
                owner, data, "mean_asleep_s", _as_float, 2.0
            ),
            mean_lifetime_s=_parse_field(
                owner, data, "mean_lifetime_s", _as_float, 0.0
            ),
            late_join_fraction=_parse_field(
                owner, data, "late_join_fraction", _as_float, 0.0
            ),
            mean_join_delay_s=_parse_field(
                owner, data, "mean_join_delay_s", _as_float, 1.0
            ),
        )


@dataclass(frozen=True)
class DeploymentSpec:
    """One complete city-scale scenario, as pure data.

    Attributes:
        name: scenario label (shows up in manifests and CSVs).
        hubs: hub placement.
        classes: device class mix served by every hub.
        devices_per_hub: population size per hub.
        hub_device: Fig 1 catalog device acting as every hub.
        warmup_s: simulated seconds excluded from the reported metrics
            (controllers converge, TDMA rotations fill).
        duration_s: measured simulated seconds after warmup.
        churn: device join/leave/sleep process.
        seed: scenario seed folded into every derived RNG stream.
        coupling_threshold_db: hubs whose pairwise path loss is below
            this threshold interfere (edge in the interference graph).
        n_channels: orthogonal channels available for TDMA frequency
            reuse across coupled hubs.
        interference_penalty_db: SNR penalty a co-channel neighbor's
            bursts inflict on envelope-detector modes.
        path_loss_exponent: propagation exponent for hub-to-hub coupling.
        payload_bytes: uplink payload per packet.
        lp_plan: also solve each hub's fleet LP (analytic upper bound,
            reported as ``lp_bits``); disable for very large populations.
    """

    name: str
    hubs: HubLayout
    classes: "tuple[DeviceClass, ...]"
    devices_per_hub: int
    hub_device: str = "Nexus 6P"
    warmup_s: float = 1.0
    duration_s: float = 10.0
    churn: ChurnProcess = field(default_factory=ChurnProcess)
    seed: int = 0
    coupling_threshold_db: float = 62.0
    n_channels: int = 3
    interference_penalty_db: float = 20.0
    path_loss_exponent: float = 2.0
    payload_bytes: int = 30
    lp_plan: bool = True

    def __post_init__(self) -> None:
        require_finite(
            "deployment spec",
            {
                "warmup_s": self.warmup_s,
                "duration_s": self.duration_s,
                "coupling_threshold_db": self.coupling_threshold_db,
                "interference_penalty_db": self.interference_penalty_db,
                "path_loss_exponent": self.path_loss_exponent,
            },
        )
        if not self.name:
            raise ValueError("scenario needs a name")
        if not self.classes:
            raise ValueError("at least one device class required")
        labels = [c.name for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate device class names in {labels}")
        if self.devices_per_hub < 1:
            raise ValueError("each hub needs at least one device")
        if self.devices_per_hub < len(self.classes):
            raise ValueError(
                "population smaller than the class count: every class is "
                "guaranteed at least one device per hub"
            )
        if self.hub_device not in DEVICE_BY_NAME:
            known = ", ".join(sorted(DEVICE_BY_NAME))
            raise ValueError(
                f"unknown hub device {self.hub_device!r} (known: {known})"
            )
        if self.warmup_s < 0.0 or self.duration_s <= 0.0:
            raise ValueError("warmup must be >= 0 and duration > 0")
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if self.interference_penalty_db < 0.0:
            raise ValueError("interference penalty must be non-negative")
        if self.path_loss_exponent <= 0.0:
            raise ValueError("path-loss exponent must be positive")
        if self.payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

    # -- derived sizes ---------------------------------------------------

    @property
    def hub_count(self) -> int:
        """Hubs placed by this scenario."""
        return self.hubs.hub_count

    @property
    def device_count(self) -> int:
        """Total devices across all hubs."""
        return self.hub_count * self.devices_per_hub

    @property
    def horizon_s(self) -> float:
        """Simulated span per hub (warmup + measured window)."""
        return self.warmup_s + self.duration_s

    def class_counts(self) -> "dict[str, int]":
        """Devices per class on each hub (largest remainder over shares,
        minimum one device per class — identical on every hub)."""
        total_share = sum(c.share for c in self.classes)
        quotas = {
            c.name: c.share / total_share * self.devices_per_hub
            for c in self.classes
        }
        counts = {name: max(1, int(q)) for name, q in quotas.items()}
        while sum(counts.values()) > self.devices_per_hub:
            richest = max(counts, key=lambda n: (counts[n], n))
            counts[richest] -= 1
        leftover = self.devices_per_hub - sum(counts.values())
        by_remainder = sorted(
            quotas, key=lambda n: (counts[n] - quotas[n], n)
        )
        for name in by_remainder[:leftover]:
            counts[name] += 1
        return counts

    def device_class(self, name: str) -> DeviceClass:
        """Look up a class by label.

        Raises:
            KeyError: for unknown labels.
        """
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"unknown device class {name!r}")

    def scaled(self, **overrides: object) -> "DeploymentSpec":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    # -- identity --------------------------------------------------------

    def to_dict(self) -> "dict[str, object]":
        """Canonical primitive form (stable across processes/sessions)."""
        return {
            "version": DEPLOY_SCHEMA_VERSION,
            "name": self.name,
            "hubs": self.hubs.to_dict(),
            "classes": [c.to_dict() for c in self.classes],
            "devices_per_hub": self.devices_per_hub,
            "hub_device": self.hub_device,
            "warmup_s": self.warmup_s,
            "duration_s": self.duration_s,
            "churn": self.churn.to_dict(),
            "seed": self.seed,
            "coupling_threshold_db": self.coupling_threshold_db,
            "n_channels": self.n_channels,
            "interference_penalty_db": self.interference_penalty_db,
            "path_loss_exponent": self.path_loss_exponent,
            "payload_bytes": self.payload_bytes,
            "lp_plan": self.lp_plan,
        }

    def to_json(self) -> str:
        """Canonical JSON form (stable ordering, version-stamped)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    _FIELDS = (
        "version", "name", "hubs", "classes", "devices_per_hub",
        "hub_device", "warmup_s", "duration_s", "churn", "seed",
        "coupling_threshold_db", "n_channels", "interference_penalty_db",
        "path_loss_exponent", "payload_bytes", "lp_plan",
    )

    @classmethod
    def from_dict(cls, data: "Mapping[str, object]") -> "DeploymentSpec":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: on schema-version mismatch, unknown fields, or
                wrong-typed values — always naming the offending key.
        """
        _reject_unknown("deployment spec", data, cls._FIELDS)
        owner = "deployment spec"
        version = _parse_field(
            owner, data, "version", _as_int, DEPLOY_SCHEMA_VERSION
        )
        if version != DEPLOY_SCHEMA_VERSION:
            raise ValueError(
                f"deployment schema {version!r} != supported {DEPLOY_SCHEMA_VERSION}"
            )
        hubs_data = data.get("hubs")
        if not isinstance(hubs_data, Mapping):
            raise ValueError(
                f"deployment spec field 'hubs' must be a mapping, "
                f"got {hubs_data!r}"
            )
        classes_data = data.get("classes")
        if isinstance(classes_data, (str, bytes, Mapping)) or not hasattr(
            classes_data, "__iter__"
        ):
            raise ValueError(
                f"deployment spec field 'classes' must be a sequence of "
                f"mappings, got {classes_data!r}"
            )
        churn_data = data.get("churn", {})
        if not isinstance(churn_data, Mapping):
            raise ValueError(
                f"deployment spec field 'churn' must be a mapping, "
                f"got {churn_data!r}"
            )
        return cls(
            name=_parse_field(owner, data, "name", _as_str),
            hubs=HubLayout.from_dict(hubs_data),
            classes=tuple(
                DeviceClass.from_dict(entry) for entry in classes_data
            ),
            devices_per_hub=_parse_field(owner, data, "devices_per_hub", _as_int),
            hub_device=_parse_field(
                owner, data, "hub_device", _as_str, "Nexus 6P"
            ),
            warmup_s=_parse_field(owner, data, "warmup_s", _as_float, 1.0),
            duration_s=_parse_field(owner, data, "duration_s", _as_float, 10.0),
            churn=ChurnProcess.from_dict(churn_data),
            seed=_parse_field(owner, data, "seed", _as_int, 0),
            coupling_threshold_db=_parse_field(
                owner, data, "coupling_threshold_db", _as_float, 62.0
            ),
            n_channels=_parse_field(owner, data, "n_channels", _as_int, 3),
            interference_penalty_db=_parse_field(
                owner, data, "interference_penalty_db", _as_float, 20.0
            ),
            path_loss_exponent=_parse_field(
                owner, data, "path_loss_exponent", _as_float, 2.0
            ),
            payload_bytes=_parse_field(owner, data, "payload_bytes", _as_int, 30),
            lp_plan=_parse_field(owner, data, "lp_plan", _as_bool, True),
        )

    @classmethod
    def from_json(cls, text: str) -> "DeploymentSpec":
        """Rebuild a scenario serialized with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256) — the scenario's identity
        for seeding, caching and manifest lineage.  Memoized: deriving a
        per-device stream calls this once per device."""
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is None:
            cached = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint_cache", cached)
        return cached

    def stream(self, label: str) -> np.random.Generator:
        """A content-addressed RNG stream for one purpose.

        Streams depend only on (scenario fingerprint, seed, label) —
        never on which worker asks, in what order, or how the deployment
        was partitioned.  Labels follow a ``"hub3:churn"`` convention.
        """
        salted = hashlib.sha256(
            f"{self.fingerprint()}:{label}".encode("utf-8")
        ).hexdigest()
        # Draws exactly what default_rng(content_seed_sequence(salted,
        # seed)) draws; a city build derives thousands of these.
        return content_rng(salted, self.seed)
