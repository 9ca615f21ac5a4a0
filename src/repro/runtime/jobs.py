"""Job descriptions for the campaign engine.

A campaign is a list of :class:`JobSpec` records — one per independent
simulation (a gain-matrix cell, a distance-sweep point, a Monte-Carlo BER
sample).  Specs are frozen, hashable and carry a stable content
fingerprint, so the same job always maps to the same cache entry and the
same derived RNG stream no matter which worker runs it or in what order.

Job *runners* — the functions that turn a spec into a metrics dict — are
registered by kind in a module-level registry.  Worker processes resolve
the runner by name, which keeps specs picklable (they hold only
primitives, never callables).  A runner is ``(spec, rng)`` when it draws
from the job's generator and ``(spec)`` when its result is deterministic
in the spec alone; the registry records which when the runner registers,
so the executor builds a generator only for a runner that takes one.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.records import Record, Refused, canonical_json

#: Signature of a job runner: (spec, per-job generator) -> JSON-able
#: metrics, or (spec) -> metrics for a runner that draws nothing.
JobRunner = Callable[..., "dict[str, object]"]

#: kind -> (runner, whether it takes the per-job generator).
_RUNNERS: dict[str, tuple[JobRunner, bool]] = {}


def _as_distance(value: object) -> float:
    # to_dict writes the distance as its float's repr text; any other
    # text would re-encode differently and so change the fingerprint.
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if repr(number) == value:
            return number
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise Refused("a number or the repr text of one")


def _as_bitrate(value: object) -> "int | None":
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise Refused("an integer or null")


def _as_params(value: object) -> "tuple[tuple[str, str], ...]":
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(item, str) for item in pair)
        for pair in value
    ):
        raise Refused("a list of [key, value] pairs of strings")
    return tuple((key, item) for key, item in value)


@dataclass(frozen=True, order=True)
class JobSpec(Record):
    """One unit of campaign work.

    Attributes:
        kind: registered runner name (e.g. ``"gain.bluetooth"``).
        tx_device / rx_device: catalog device names ("" when unused).
        distance_m: device separation.
        traffic: traffic pattern label (runners interpret it).
        bitrate_bps: fixed bitrate, or ``None`` to let the runner pick.
        seed: per-job salt folded into the derived RNG stream.
        params: extra (key, value-as-string) pairs, canonically sorted.

    :meth:`from_dict` is the strict parser of the record codec
    (:mod:`repro.core.records`); :meth:`to_dict` keeps the job's own
    primitive form, with the distance as its float's repr text, because
    every cache key is the fingerprint of that form.
    """

    OWNER = "JobSpec"
    GATES = {
        "distance_m": _as_distance,
        "bitrate_bps": _as_bitrate,
        "params": _as_params,
    }

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
            raise ValueError("JobSpec field 'kind' must be non-empty")
        # Written so that NaN fails too (nan <= 0.0 is false).
        if not 0.0 < self.distance_m < math.inf:
            raise ValueError(
                "JobSpec field 'distance_m' must be positive and finite, "
                f"got {self.distance_m!r}"
            )
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

    def canonical_bytes(self) -> bytes:
        """UTF-8 bytes of the canonical JSON of :meth:`to_dict`: what
        :meth:`fingerprint` hashes and a cache line stores as its spec.

        Memoized per instance beside the fingerprint, so the cache
        writes the bytes the fingerprint already encoded.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = canonical_json(self.to_dict()).encode("utf-8")
            object.__setattr__(self, "_canonical", cached)
        return cached

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256 of the canonical JSON form).

        Memoized per instance: the journal, cache and seeding layers all
        key on the fingerprint, so one campaign hashes each spec many
        times.  Specs are frozen, so the cached digest can never go
        stale.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = hashlib.sha256(self.canonical_bytes()).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def spec_fingerprint(data: Mapping[str, object]) -> str:
    """Hex SHA-256 of a spec's canonical JSON form: what
    :meth:`JobSpec.fingerprint` returns for the spec whose
    :meth:`~JobSpec.to_dict` is ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _takes_rng(fn: JobRunner) -> bool:
    """Whether ``fn`` accepts a second positional argument, the job's
    generator."""
    try:
        inspect.signature(fn).bind(None, None)
    except TypeError:
        return False
    return True


def register_job_runner(kind: str) -> Callable[[JobRunner], JobRunner]:
    """Decorator registering a runner for ``kind``.

    A runner that accepts a second positional argument gets the job's
    generator there; one that takes the spec alone gets no generator,
    and none is built for it.

    Raises:
        ValueError: if the kind is already taken by a different function.
    """

    def decorate(fn: JobRunner) -> JobRunner:
        existing = _RUNNERS.get(kind)
        if existing is not None and existing[0] is not fn:
            raise ValueError(f"job kind {kind!r} already registered")
        _RUNNERS[kind] = (fn, _takes_rng(fn))
        return fn

    return decorate


def registered_runner(kind: str) -> tuple[JobRunner, bool]:
    """The registered runner for ``kind`` and whether it takes the job's
    generator.

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
