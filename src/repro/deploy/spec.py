"""Declarative deployment scenarios: city-scale multi-hub topologies.

A :class:`DeploymentSpec` describes an entire deployment as pure data —
where the hubs sit (grid / poisson / manual), what population of devices
each hub serves (class mixes of energy-rich phones vs. tiny harvesting
tags), how long to warm up and measure, and how devices churn (join /
leave / sleep).  Specs are frozen :class:`~repro.core.records.Record`
trees: their JSON form, strict parser and stable SHA-256 content
fingerprint all derive from the dataclass fields, so the same scenario
always derives the same RNG streams, the same region jobs and the same
cache entries.

The spec says *what the city looks like*; carving it into independently
simulable regions is :mod:`repro.deploy.partition`'s job and running one
region is :mod:`repro.deploy.region`'s.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.records import Record, as_pair, as_pairs, as_record, as_records
from ..hardware.devices import DEVICE_BY_NAME
from ..runtime.seeding import content_rng

#: Bump when scenario semantics change incompatibly (invalidates any
#: fingerprint-keyed cache entries and derived RNG streams).
DEPLOY_SCHEMA_VERSION = 1

#: Placement strategies :class:`HubLayout` understands.
_STRATEGIES = ("grid", "poisson", "manual")

#: Mobility models :class:`DeviceClass` understands.
_MOBILITY = ("static", "waypoint")


@dataclass(frozen=True)
class HubLayout(Record):
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

    OWNER = "hub layout"
    GATES = {"area_m": as_pair, "positions_m": as_pairs}

    def __post_init__(self) -> None:
        self.require_finite()
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


@dataclass(frozen=True)
class DeviceClass(Record):
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

    OWNER = "device class"

    def __post_init__(self) -> None:
        self.require_finite()
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


@dataclass(frozen=True)
class ChurnProcess(Record):
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

    OWNER = "churn process"

    def __post_init__(self) -> None:
        self.require_finite()
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


@dataclass(frozen=True)
class DeploymentSpec(Record):
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

    OWNER = "deployment spec"
    SCHEMA_VERSION = DEPLOY_SCHEMA_VERSION
    GATES = {
        "hubs": as_record(HubLayout),
        "classes": as_records(DeviceClass),
        "churn": as_record(ChurnProcess),
    }

    def __post_init__(self) -> None:
        self.require_finite()
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
