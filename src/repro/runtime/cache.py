"""On-disk result cache for campaign jobs.

One JSON file per job, named by the job fingerprint, carrying the spec,
the metrics, a SHA-256 checksum of the metrics payload and the
calibration fingerprint the result was computed under.  Entries from a
different calibration (anyone edits the link budgets or the power
tables) are ignored rather than served stale.

Layout::

    <cache_dir>/
        <job fingerprint>.json
        quarantine/
            <job fingerprint>.<pid>-<nonce>.json         # the corrupt entry, moved
            <job fingerprint>.<pid>-<nonce>.reason.json  # structured diagnosis

The ``<pid>-<nonce>`` suffix keeps concurrent workers that diagnose the
same corrupt entry from colliding on the quarantine target or clobbering
each other's reason files.

Writes are atomic (temp file + ``os.replace``) so a crashed or killed
worker never leaves a truncated entry behind.  Reads *verify*: an entry
that fails parsing, carries a drifted schema, or whose payload no longer
hashes to its recorded checksum is moved to ``quarantine/`` with a
structured reason instead of being served or crashing the load path
(DESIGN.md §10).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import secrets
import tempfile
import time
from pathlib import Path

from .jobs import JobSpec
from .journal import metrics_checksum

#: Schema version of the cache entry format itself.  Version 2 added the
#: mandatory ``checksum`` field; version-1 entries are quarantined as
#: schema drift rather than trusted unverified.
CACHE_FORMAT = 2

#: Subdirectory corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"


@functools.lru_cache(maxsize=1)
def calibration_fingerprint() -> str:
    """Hash of the paper calibration the results depend on.

    Covers every calibrated link budget and every per-mode power record,
    so any change to the characterization invalidates cached results
    automatically.
    """
    from ..core.modes import ALL_MODES
    from ..hardware.power_models import paper_mode_power, supported_bitrates
    from ..phy.link_budget import paper_link_profiles

    lines = [
        f"{name}:{bitrate}:{budget!r}"
        for (name, bitrate), budget in sorted(paper_link_profiles().items())
    ]
    for mode in ALL_MODES:
        for bitrate in supported_bitrates(mode):
            lines.append(f"{mode.value}:{bitrate}:{paper_mode_power(mode, bitrate)!r}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


class ResultCache:
    """Fingerprint-keyed JSON result store with corruption quarantine.

    Args:
        directory: cache root (created lazily on first write).
        calibration: calibration fingerprint to key entries under;
            defaults to the current paper calibration.
    """

    def __init__(self, directory: "Path | str", calibration: "str | None" = None) -> None:
        self._directory = Path(directory)
        self._calibration = (
            calibration if calibration is not None else calibration_fingerprint()
        )

    @property
    def directory(self) -> Path:
        """Cache root directory."""
        return self._directory

    @property
    def quarantine_directory(self) -> Path:
        """Where corrupt entries are moved."""
        return self._directory / QUARANTINE_DIR

    @property
    def calibration(self) -> str:
        """Calibration fingerprint entries are keyed under."""
        return self._calibration

    def _path(self, spec: JobSpec) -> Path:
        return self._directory / f"{spec.fingerprint()}.json"

    def _quarantine(self, path: Path, reason: str, detail: str) -> None:
        """Move a failed entry aside with a structured diagnosis.

        Best-effort: quarantine must never turn a cache miss into a
        crash, so every filesystem error here is swallowed (the entry is
        deleted as a last resort to stop it being re-diagnosed forever).
        """
        quarantine = self.quarantine_directory
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            # Concurrent workers can diagnose the same corrupt entry at
            # once; a per-writer suffix keeps their quarantined payloads
            # and reason files from colliding.
            tag = f"{os.getpid()}-{secrets.token_hex(4)}"
            target = quarantine / f"{path.stem}.{tag}{path.suffix}"
            os.replace(path, target)
            diagnosis = {
                "entry": path.name,
                "quarantined_as": target.name,
                "reason": reason,
                "detail": detail,
                "calibration": self._calibration,
                "quarantined_at": time.time(),
            }
            (quarantine / f"{path.stem}.{tag}.reason.json").write_text(
                json.dumps(diagnosis, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _verified_entry(self, path: Path) -> "tuple[dict, str] | None":
        """Load, validate and checksum one entry file.

        Returns the metrics dict and its checksum, or ``None`` after
        quarantining the file (corruption) or on a benign miss (absent
        file, calibration mismatch).
        """
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            self._quarantine(path, "unparseable", f"{type(exc).__name__}: {exc}")
            return None
        if not isinstance(entry, dict):
            self._quarantine(
                path, "schema-drift", f"top-level {type(entry).__name__}, expected object"
            )
            return None
        if entry.get("format") != CACHE_FORMAT:
            self._quarantine(
                path,
                "schema-drift",
                f"format {entry.get('format')!r}, expected {CACHE_FORMAT}",
            )
            return None
        metrics = entry.get("metrics")
        if not isinstance(metrics, dict):
            self._quarantine(
                path, "schema-drift", "missing or non-object metrics payload"
            )
            return None
        recorded = entry.get("checksum")
        actual = metrics_checksum(metrics)
        if recorded != actual:
            self._quarantine(
                path,
                "checksum-mismatch",
                f"recorded {recorded!r}, payload hashes to {actual!r}",
            )
            return None
        # A calibration mismatch is a *valid* entry for a different world,
        # not corruption: leave it in place for whoever keyed it.
        if entry.get("calibration") != self._calibration:
            return None
        return metrics, actual

    def get(self, spec: JobSpec) -> "dict | None":
        """Verified cached metrics for ``spec``, or ``None`` on miss.

        Corrupt entries (truncation, bit-rot, schema drift, checksum
        mismatch) are quarantined and count as misses; this never raises.
        """
        entry = self._verified_entry(self._path(spec))
        return entry[0] if entry is not None else None

    def get_verified(self, spec: JobSpec, checksum: str) -> "dict | None":
        """Cached metrics for ``spec`` only if they hash to ``checksum``.

        The resume path uses this to refuse results that diverged from
        what the journal recorded (e.g. an entry rewritten by a different
        run between crash and resume).
        """
        entry = self._verified_entry(self._path(spec))
        if entry is None or entry[1] != checksum:
            return None
        return entry[0]

    def put(self, spec: JobSpec, metrics: dict) -> Path:
        """Store ``metrics`` for ``spec`` atomically; returns the path."""
        self._directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "calibration": self._calibration,
            "checksum": metrics_checksum(metrics),
            "spec": spec.to_dict(),
            "metrics": metrics,
        }
        payload = json.dumps(entry, sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            dir=self._directory, prefix=".cache-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(spec))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return self._path(spec)

    def quarantined(self) -> "list[dict]":
        """Structured reasons of every quarantined entry (sorted by name)."""
        quarantine = self.quarantine_directory
        if not quarantine.is_dir():
            return []
        reasons = []
        for path in sorted(quarantine.glob("*.reason.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(record, dict):
                reasons.append(record)
        return reasons

    def __contains__(self, spec: JobSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        if not self._directory.is_dir():
            return 0
        return sum(1 for _ in self._directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self._directory.is_dir():
            for path in self._directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
