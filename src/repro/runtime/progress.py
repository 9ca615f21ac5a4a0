"""Campaign telemetry: live counters, the run manifest and the results
manifest.

The executor feeds a :class:`CampaignProgress` as jobs settle; at the end
it freezes into a :class:`RunManifest` — the machine-readable record the
CLI prints and (for ``export --cache-dir``) writes next to the CSVs, so a
warm-cache rerun is verifiable from the ``cached`` count alone.
:func:`results_manifest` is its wall-clock-free counterpart: a record of
the results alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.records import canonical_json
from .journal import metrics_checksum

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .executor import CampaignResult

#: Schema version of the results manifest.
RESULTS_FORMAT = 1


@dataclass
class CampaignProgress:
    """Mutable counters for a running campaign."""

    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    resumed: int = 0
    retries: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def record(self, kind: str, status: str, retries: int = 0) -> None:
        """Account one settled job.

        Raises:
            ValueError: for unknown status labels.
        """
        if status == "completed":
            self.completed += 1
        elif status == "failed":
            self.failed += 1
        elif status == "cached":
            self.cached += 1
        elif status == "resumed":
            self.resumed += 1
        else:
            raise ValueError(f"unknown job status {status!r}")
        self.retries += retries
        self.kinds[kind] = self.kinds.get(kind, 0) + 1

    @property
    def settled(self) -> int:
        """Jobs accounted so far (any status)."""
        return self.completed + self.failed + self.cached + self.resumed

    def elapsed_s(self) -> float:
        """Wall time since the campaign started."""
        return time.perf_counter() - self._started

    def manifest(
        self,
        n_jobs: int,
        calibration: str,
        campaign_seed: int,
        campaign: str = "",
        journal: "str | None" = None,
        interrupted: bool = False,
    ) -> "RunManifest":
        """Freeze the counters into a manifest."""
        wall = self.elapsed_s()
        executed = self.completed + self.failed
        return RunManifest(
            total=self.total,
            completed=self.completed,
            failed=self.failed,
            cached=self.cached,
            resumed=self.resumed,
            retries=self.retries,
            wall_time_s=wall,
            jobs_per_s=(executed / wall) if wall > 0.0 and executed else 0.0,
            n_jobs=n_jobs,
            calibration=calibration,
            campaign_seed=campaign_seed,
            kinds=dict(sorted(self.kinds.items())),
            campaign=campaign,
            journal=journal,
            interrupted=interrupted,
        )


@dataclass(frozen=True)
class RunManifest:
    """Structured summary of one campaign run.

    Attributes:
        total: jobs submitted.
        completed: jobs executed successfully this run.
        failed: jobs that exhausted their retries.
        cached: jobs served from the result cache (no simulation ran).
        resumed: jobs skipped via journal replay, each verified against
            the cache checksum the journal recorded (resume runs only).
        retries: extra attempts beyond each job's first.
        wall_time_s: campaign wall-clock time.
        jobs_per_s: executed jobs (completed + failed) per second.
        n_jobs: configured worker count.
        calibration: calibration fingerprint results were computed under.
        campaign_seed: root seed of the per-job RNG derivation.
        kinds: settled-job count per job kind.
        campaign: campaign content fingerprint (job set + seed +
            calibration); "" when the campaign ran unjournaled.
        journal: journal file the run appended to, or ``None`` — the
            resume lineage pointer.
        interrupted: whether a signal ended this run early (the manifest
            then covers only the settled prefix).
        energy: merged ledger category totals (label -> joules) of jobs
            that reported an energy breakdown, or ``None`` when the
            campaign carried none (omitted from the JSON form).
    """

    total: int
    completed: int
    failed: int
    cached: int
    retries: int
    wall_time_s: float
    jobs_per_s: float
    n_jobs: int
    calibration: str
    campaign_seed: int
    kinds: dict[str, int]
    energy: "dict[str, float] | None" = None
    resumed: int = 0
    campaign: str = ""
    journal: "str | None" = None
    interrupted: bool = False

    def to_dict(self) -> dict[str, object]:
        """Primitive form, ready for ``json.dumps``."""
        out: dict[str, object] = {
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "cached": self.cached,
            "resumed": self.resumed,
            "retries": self.retries,
            "wall_time_s": round(self.wall_time_s, 6),
            "jobs_per_s": round(self.jobs_per_s, 3),
            "n_jobs": self.n_jobs,
            "calibration": self.calibration,
            "campaign_seed": self.campaign_seed,
            "kinds": self.kinds,
        }
        if self.campaign:
            out["campaign"] = self.campaign
        if self.journal is not None:
            out["journal"] = self.journal
        if self.interrupted:
            out["interrupted"] = True
        if self.energy is not None:
            out["energy"] = self.energy
        return out

    def to_json(self) -> str:
        """Pretty JSON rendering."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Path | str) -> Path:
        """Write the manifest JSON to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @staticmethod
    def merge(manifests: "list[RunManifest]") -> "RunManifest | None":
        """Aggregate several campaign manifests (e.g. one per figure)
        into a single record; ``None`` for an empty list."""
        if not manifests:
            return None
        kinds: dict[str, int] = {}
        for m in manifests:
            for kind, count in m.kinds.items():
                kinds[kind] = kinds.get(kind, 0) + count
        wall = sum(m.wall_time_s for m in manifests)
        executed = sum(m.completed + m.failed for m in manifests)
        energy: dict[str, float] | None = None
        for m in manifests:
            if m.energy is None:
                continue
            if energy is None:
                energy = {}
            for label, value in m.energy.items():
                energy[label] = energy.get(label, 0.0) + value
        campaigns = {m.campaign for m in manifests if m.campaign}
        journals = {m.journal for m in manifests if m.journal is not None}
        return RunManifest(
            total=sum(m.total for m in manifests),
            completed=sum(m.completed for m in manifests),
            failed=sum(m.failed for m in manifests),
            cached=sum(m.cached for m in manifests),
            resumed=sum(m.resumed for m in manifests),
            retries=sum(m.retries for m in manifests),
            wall_time_s=wall,
            jobs_per_s=(executed / wall) if wall > 0.0 and executed else 0.0,
            n_jobs=max(m.n_jobs for m in manifests),
            calibration=manifests[0].calibration,
            campaign_seed=manifests[0].campaign_seed,
            kinds=dict(sorted(kinds.items())),
            campaign=campaigns.pop() if len(campaigns) == 1 else "",
            journal=journals.pop() if len(journals) == 1 else None,
            interrupted=any(m.interrupted for m in manifests),
            energy=energy,
        )


def write_campaign_manifest(
    path: "Path | None", manifests: "list[RunManifest]"
) -> "RunManifest | None":
    """Merge per-figure campaign manifests and persist them with lineage.

    The written JSON carries the merged counters plus a ``runs`` list —
    one record per underlying campaign with its content fingerprint,
    journal path and resumed/interrupted state — so a manifest produced
    by a killed-then-resumed sweep documents exactly how its numbers
    were assembled.  Returns the merged manifest (``None`` when no
    campaigns ran); with ``path=None`` nothing is written.
    """
    merged = RunManifest.merge(manifests)
    if merged is None or path is None:
        return merged
    record = merged.to_dict()
    record["runs"] = [m.to_dict() for m in manifests]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return merged


def results_manifest(result: "CampaignResult") -> "dict[str, object]":
    """Canonical, wall-clock-free record of a campaign's *results*.

    Unlike the run manifest (which reports timing, worker counts, cache
    hits — telemetry that legitimately differs run to run), this is a
    pure function of the outcomes: a fleet run, a serial run, a resumed
    run and a warm-cache run of the same campaign all produce
    **byte-identical** JSON.
    """
    jobs = []
    for outcome in result.outcomes:
        entry: "dict[str, object]" = {
            "job": outcome.spec.fingerprint(),
            "kind": outcome.spec.kind,
        }
        if outcome.ok:
            entry["status"] = "done"
            entry["checksum"] = metrics_checksum(outcome.metrics or {})
            entry["metrics"] = outcome.metrics
        else:
            entry["status"] = "failed"
            entry["error"] = outcome.error or ""
        jobs.append(entry)
    return {
        "format": RESULTS_FORMAT,
        "campaign": result.manifest.campaign,
        "campaign_seed": result.manifest.campaign_seed,
        "calibration": result.manifest.calibration,
        "total": len(result.outcomes),
        "jobs": jobs,
    }


def write_results_manifest(path: "Path | str", result: "CampaignResult") -> Path:
    """Write :func:`results_manifest` as canonical JSON (byte-stable)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(canonical_json(results_manifest(result)) + "\n", encoding="utf-8")
    return target
