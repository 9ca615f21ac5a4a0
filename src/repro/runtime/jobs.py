"""Job descriptions for the campaign engine.

A campaign is a list of :class:`JobSpec` records — one per independent
simulation (a gain-matrix cell, a distance-sweep point, a Monte-Carlo BER
sample).  Specs are frozen, hashable and carry a stable content
fingerprint, so the same job always maps to the same cache entry and the
same derived RNG stream no matter which worker runs it or in what order.

Job *runners* — the functions that turn a spec into a metrics dict — are
registered by kind in a module-level registry.  Worker processes resolve
the runner by name, which keeps specs picklable (they hold only
primitives, never callables).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

#: Signature of a job runner: (spec, per-job generator) -> JSON-able metrics.
JobRunner = Callable[["JobSpec", np.random.Generator], "dict[str, object]"]

_RUNNERS: dict[str, JobRunner] = {}


@dataclass(frozen=True, order=True)
class JobSpec:
    """One unit of campaign work.

    Attributes:
        kind: registered runner name (e.g. ``"gain.bluetooth"``).
        tx_device / rx_device: catalog device names ("" when unused).
        distance_m: device separation.
        traffic: traffic pattern label (runners interpret it).
        bitrate_bps: fixed bitrate, or ``None`` to let the runner pick.
        seed: per-job salt folded into the derived RNG stream.
        params: extra (key, value-as-string) pairs, canonically sorted.
    """

    kind: str
    tx_device: str = ""
    rx_device: str = ""
    distance_m: float = 0.3
    traffic: str = "saturated"
    bitrate_bps: int | None = None
    seed: int = 0
    params: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("job kind must be non-empty")
        if self.distance_m <= 0.0:
            raise ValueError(f"distance must be positive, got {self.distance_m!r}")
        canonical = tuple(sorted((str(k), str(v)) for k, v in self.params))
        object.__setattr__(self, "params", canonical)

    @classmethod
    def with_params(cls, kind: str, params: Mapping[str, object], **kwargs) -> JobSpec:
        """Build a spec from a mapping of extra parameters."""
        return cls(
            kind=kind,
            params=tuple((str(k), str(v)) for k, v in params.items()),
            **kwargs,
        )

    def param(self, key: str, default: str | None = None) -> str | None:
        """Look up an extra parameter by key."""
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_dict(self) -> dict[str, object]:
        """Canonical primitive form (stable across processes/sessions)."""
        return {
            "kind": self.kind,
            "tx_device": self.tx_device,
            "rx_device": self.rx_device,
            # repr round-trips floats exactly; str() would too on py>=3.1
            # but repr makes the intent explicit.
            "distance_m": repr(float(self.distance_m)),
            "traffic": self.traffic,
            "bitrate_bps": self.bitrate_bps,
            "seed": self.seed,
            "params": [list(pair) for pair in self.params],
        }

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256 of the canonical JSON form).

        Memoized per instance: the journal, cache and seeding layers all
        key on the fingerprint, so one campaign hashes each spec many
        times.  Specs are frozen, so the cached digest can never go
        stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = spec_fingerprint(self.to_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> JobSpec:
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["distance_m"] = float(kwargs.get("distance_m", 0.3))
        kwargs["params"] = tuple(
            (str(k), str(v)) for k, v in kwargs.get("params", ())
        )
        return cls(**kwargs)


def spec_fingerprint(data: Mapping[str, object]) -> str:
    """Hex SHA-256 of a spec's canonical JSON form: what
    :meth:`JobSpec.fingerprint` returns for the spec whose
    :meth:`~JobSpec.to_dict` is ``data``."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def register_job_runner(kind: str) -> Callable[[JobRunner], JobRunner]:
    """Decorator registering a runner for ``kind``.

    Raises:
        ValueError: if the kind is already taken by a different function.
    """

    def decorate(fn: JobRunner) -> JobRunner:
        existing = _RUNNERS.get(kind)
        if existing is not None and existing is not fn:
            raise ValueError(f"job kind {kind!r} already registered")
        _RUNNERS[kind] = fn
        return fn

    return decorate


def job_runner(kind: str) -> JobRunner:
    """The registered runner for ``kind``.

    Raises:
        KeyError: for unregistered kinds (with the known ones listed).
    """
    _ensure_workloads_loaded()
    try:
        return _RUNNERS[kind]
    except KeyError:
        known = ", ".join(sorted(_RUNNERS)) or "none"
        raise KeyError(f"no job runner for kind {kind!r} (known: {known})") from None


def registered_kinds() -> list[str]:
    """All registered job kinds, sorted."""
    _ensure_workloads_loaded()
    return sorted(_RUNNERS)


def _ensure_workloads_loaded() -> None:
    # The built-in runners live in repro.runtime.workloads; importing it
    # here (rather than at module import) avoids a cycle with the analysis
    # package while still letting fresh worker processes resolve kinds.
    from . import workloads  # noqa: F401
