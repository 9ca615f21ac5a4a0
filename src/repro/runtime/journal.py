"""Write-ahead journal for campaign durability.

One append-only JSONL file per campaign records every job lifecycle
transition (``dispatched`` → ``done`` / ``failed``), framed by ``begin``
and ``end`` records.  Each append is one ``os.write`` of whole lines to
an ``O_APPEND`` descriptor (repeated only for what a short write left),
so a process death — SIGKILL, OOM — loses no record it wrote, and a
crash leaves a readable prefix: complete lines survive, at most the
final line is truncated, and :func:`replay_journal` tolerates exactly
that.  A run calls ``fsync`` once, after its closing ``end`` or
``interrupted`` record, which flushes every record of the run, fleet
workers' included: a ``done`` record is only as durable as the cache
line it vouches for, and cache lines are never fsynced (DESIGN.md §10).

The journal is keyed by a **campaign fingerprint** — a content hash of
the sorted job fingerprints, the campaign seed and the calibration — so
a resumed run only trusts records written for the identical campaign.
``done`` records carry the SHA-256 checksum of the result payload; on
resume the executor only skips a job when the cache still holds an entry
whose payload hashes to the journaled checksum (see DESIGN.md §10).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..core.records import canonical_json
from .jobs import JobSpec

#: Schema version of the journal record format.
JOURNAL_FORMAT = 1


def metrics_checksum(metrics: dict) -> str:
    """Hex SHA-256 of a metrics payload's canonical JSON form.

    The same canonicalization (:func:`~repro.core.records.canonical_json`)
    is used when writing cache entries and when verifying them on resume,
    so the checksum survives a JSON round-trip bit-exactly.
    """
    return hashlib.sha256(canonical_json(metrics).encode("utf-8")).hexdigest()


def campaign_fingerprint(
    specs: Iterable[JobSpec], campaign_seed: int, calibration: str
) -> str:
    """Stable identity of one campaign: its job set, seed and calibration.

    Order-independent over the spec list (sorted by job fingerprint), so
    the same campaign resolves to the same journal file however the
    caller happened to enumerate it.
    """
    digests = sorted(spec.fingerprint() for spec in specs)
    body = canonical_json(
        {"jobs": digests, "seed": campaign_seed, "calibration": calibration}
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass
class JournalReplay:
    """What a journal says happened to a campaign so far.

    Attributes:
        campaign: campaign fingerprint of the ``begin`` records ("" when
            the journal is empty or unreadable).
        done: job fingerprint -> journaled result checksum.
        failed: job fingerprint -> last journaled error string.
        stats: job fingerprint -> (attempts, duration_s) of the record
            that settled it.
        dispatched: job fingerprint -> dispatch records (in-flight at
            crash time unless also in ``done``/``failed``).
        runs: number of ``begin`` records (resume attempts + 1).
        finished_runs: number of ``end`` records (runs that completed).
        interrupted: whether any run journaled a signal interruption.
        malformed_lines: unparseable lines skipped (a crash-truncated
            tail counts as one).
    """

    campaign: str = ""
    done: "dict[str, str]" = field(default_factory=dict)
    failed: "dict[str, str]" = field(default_factory=dict)
    stats: "dict[str, tuple[int, float]]" = field(default_factory=dict)
    dispatched: "dict[str, int]" = field(default_factory=dict)
    runs: int = 0
    finished_runs: int = 0
    interrupted: bool = False
    malformed_lines: int = 0

    def in_flight(self) -> "set[str]":
        """Jobs dispatched but never settled — lost to the crash."""
        return set(self.dispatched) - set(self.done) - set(self.failed)

    def apply(self, record: "dict[str, object]") -> bool:
        """Fold one record in; ``False`` for a record of unknown shape.

        The first ``done`` record of a job wins (a job's results are
        deterministic) and supersedes any ``failed`` one.
        """
        event = record.get("event")
        job = record.get("job")
        if event == "begin":
            self.runs += 1
            campaign = record.get("campaign")
            if isinstance(campaign, str) and campaign:
                self.campaign = campaign
        elif event == "end":
            self.finished_runs += 1
        elif event == "interrupted":
            self.interrupted = True
        elif not isinstance(job, str):
            return False
        elif event == "dispatched":
            self.dispatched[job] = self.dispatched.get(job, 0) + 1
        elif event == "done":
            if job not in self.done:
                checksum = record.get("checksum")
                self.done[job] = checksum if isinstance(checksum, str) else ""
                self.stats[job] = _settle_stats(record)
            self.failed.pop(job, None)
        elif event == "failed":
            if job not in self.done:
                self.failed[job] = str(record.get("error", ""))
                self.stats[job] = _settle_stats(record)
        else:
            return False
        return True


def _settle_stats(record: "dict[str, object]") -> "tuple[int, float]":
    attempts = record.get("attempts")
    duration = record.get("duration_s")
    return (
        attempts if isinstance(attempts, int) else 0,
        float(duration) if isinstance(duration, (int, float)) else 0.0,
    )


def replay_journal(path: "Path | str") -> JournalReplay:
    """Parse a journal into a :class:`JournalReplay`.

    Never raises: a missing file replays as empty, malformed lines (the
    crash-truncated tail, bit-rot) are counted and skipped, and a ``done``
    record supersedes an earlier ``failed`` one for the same job.
    """
    replay = JournalReplay()
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return replay
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if not isinstance(record, dict) or not replay.apply(record):
            replay.malformed_lines += 1
    return replay


class CampaignJournal:
    """Append-only journal writer for one campaign.

    Args:
        path: journal file (created on first append; parent directories
            are created as needed).
        campaign: campaign fingerprint stamped into every ``begin``.
    """

    def __init__(self, path: "Path | str", campaign: str) -> None:
        self._path = Path(path)
        self._campaign = campaign
        self._fd: "int | None" = None

    @property
    def path(self) -> Path:
        """Journal file location."""
        return self._path

    @property
    def campaign(self) -> str:
        """Campaign fingerprint this journal is keyed by."""
        return self._campaign

    def replay(self) -> JournalReplay:
        """Replay whatever this journal already holds on disk."""
        return replay_journal(self._path)

    def _append(self, *records: "dict[str, object]") -> None:
        """Write ``records`` as whole lines with one ``O_APPEND`` write,
        repeated only for whatever the kernel cut short."""
        if self._fd is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        data = memoryview(
            "".join(canonical_json(record) + "\n" for record in records).encode("utf-8")
        )
        while data:
            data = data[os.write(self._fd, data):]

    def _sync(self) -> None:
        """Flush the journal file to disk: the run's one ``fsync``, which
        also covers the records fleet workers appended through their own
        descriptors."""
        try:
            os.fsync(self._fd)
        except OSError:  # pragma: no cover - fs without fsync support
            pass

    def begin(self, total: int, campaign_seed: int, calibration: str) -> None:
        """Open a run: journal the campaign identity and job count."""
        self._append(
            {
                "event": "begin",
                "format": JOURNAL_FORMAT,
                "campaign": self._campaign,
                "campaign_seed": campaign_seed,
                "calibration": calibration,
                "total": total,
            }
        )

    def dispatched(self, *specs: JobSpec) -> None:
        """Write-ahead: ``specs`` are about to execute (one record each,
        all in one append)."""
        self._append(
            *(
                {
                    "event": "dispatched",
                    "job": spec.fingerprint(),
                    "kind": spec.kind,
                    "seed": spec.seed,
                }
                for spec in specs
            )
        )

    def done(
        self, spec: JobSpec, checksum: str, attempts: int = 1, duration_s: float = 0.0
    ) -> None:
        """``spec`` completed with a payload hashing to ``checksum``, on
        attempt ``attempts`` after ``duration_s`` seconds."""
        self._append(
            {
                "event": "done",
                "job": spec.fingerprint(),
                "kind": spec.kind,
                "seed": spec.seed,
                "checksum": checksum,
                "attempts": attempts,
                "duration_s": duration_s,
            }
        )

    def failed(
        self, spec: JobSpec, error: str, attempts: int = 1, duration_s: float = 0.0
    ) -> None:
        """``spec`` exhausted its retries (``attempts`` of them, the last
        taking ``duration_s`` seconds)."""
        self._append(
            {
                "event": "failed",
                "job": spec.fingerprint(),
                "kind": spec.kind,
                "seed": spec.seed,
                "error": error,
                "attempts": attempts,
                "duration_s": duration_s,
            }
        )

    def interrupted(self, reason: str, settled: int) -> None:
        """A signal ended the run early with ``settled`` jobs accounted."""
        self._append(
            {"event": "interrupted", "reason": reason, "settled": settled}
        )
        self._sync()

    def end(self, completed: int, failed: int, skipped: int) -> None:
        """Close a run with its settlement counts."""
        self._append(
            {
                "event": "end",
                "completed": completed,
                "failed": failed,
                "skipped": skipped,
            }
        )
        self._sync()

    def close(self) -> None:
        """Release the file descriptor (safe to call twice)."""
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
