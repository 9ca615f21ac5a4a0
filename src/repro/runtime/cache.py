"""On-disk result cache for campaign jobs: a log of per-writer segments.

Each result is one line of compact JSON appended to a *segment* file held
by the writing process.  A line carries the spec, the metrics, a SHA-256
checksum of the metrics payload, the calibration fingerprint and the
campaign seed the result was computed under.  A cache is scoped to one
(calibration, campaign seed) pair, its *world*: an entry from another
calibration (anyone edits the link budgets or the power tables) or
another seed is a benign miss rather than served stale.

Layout::

    <cache_dir>/
        segments/
            <world>-<random>.jsonl          # one entry per line
        quarantine/
            <segment>.<offset>.<pid>-<nonce>.json         # copy of the failing line
            <segment>.<offset>.<pid>-<nonce>.reason.json  # diagnosis + tombstone

**Writers.**  A process appends each entry with one ``os.write`` to an
``O_APPEND`` segment on which it holds an exclusive ``flock``: the first
existing segment of its world nobody holds, else a new one under a
fresh random name (names never recur, even after
:meth:`ResultCache.clear`).  ``<world>`` is a hash of the calibration
and seed, so readers never scan another world's lines.  ``flock``
locks belong to the open file, so two caches in one process, or a
forked child, each take their own segment; a child re-acquires on its
first write.  A segment whose last byte is not ``\\n`` (its writer died
mid-line) is terminated before the first append, so torn bytes never
merge with the next entry.  :meth:`ResultCache.close` releases the
segment, which bounds the segment count by the peak number of
concurrent writers.

**Readers.**  An in-memory index maps a job fingerprint to the last
newline-terminated line of this world filed under it; the key is the
fingerprint of the line's own ``spec``, never a stored key, so a
damaged line cannot be filed under another job.  Lines are canonical
JSON with sorted keys, so a line starts with its world and ends with
its spec text, whose SHA-256 is that fingerprint: the index is built
without parsing any line ``put`` wrote.  A torn tail is neither
indexed nor diagnosed until a writer terminates it.  A miss re-reads
the bytes appended since the last scan, so a reader sees what other
processes appended after it built its index.  A hit re-reads the line
and verifies it again on every call: an entry that fails parsing, carries a drifted schema, or
whose payload no longer hashes to its recorded checksum is copied to
``quarantine/`` with a structured reason instead of being served or
crashing the load path (DESIGN.md §10).  Reason records name the
segment and offset of their line; readers load them as tombstones when
they first build the index, so no process re-serves or re-diagnoses a
quarantined line.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import io
import json
import os
import secrets
import time
from pathlib import Path

from .jobs import JobSpec, spec_fingerprint
from .journal import metrics_checksum

#: Schema version of the cache entry format itself.  Version 2 added the
#: mandatory ``checksum`` field; version 3 moved entries into segment
#: lines and added ``campaign_seed`` (the ``<fingerprint>.json`` files of
#: earlier versions are never read).  A line of another version is
#: quarantined as schema drift rather than trusted unverified.
CACHE_FORMAT = 3

#: Subdirectory holding the segment files.
SEGMENT_DIR = "segments"

#: Subdirectory failing lines are copied into.
QUARANTINE_DIR = "quarantine"

#: What precedes the spec, the last key of a line ``put`` writes.
_SPEC_KEY = b',"spec":'


def _canonical(document: object) -> str:
    """The JSON text ``put`` writes: sorted keys, compact separators."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


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


def _lock_segment(path: Path, flags: int) -> "int | None":
    """Open ``path`` and take its exclusive writer lock; ``None`` if it
    is held, vanished, or (with ``O_EXCL``) already exists."""
    try:
        fd = os.open(path, flags, 0o644)
    except (FileNotFoundError, FileExistsError):
        return None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


class ResultCache:
    """Fingerprint-keyed, append-only result log with corruption quarantine.

    Args:
        directory: cache root (created lazily on first write).
        calibration: calibration fingerprint to key entries under;
            defaults to the current paper calibration.
        campaign_seed: campaign seed the cached results were drawn
            under; entries of another seed are misses.
    """

    def __init__(
        self,
        directory: "Path | str",
        calibration: "str | None" = None,
        campaign_seed: int = 0,
    ) -> None:
        self._directory = Path(directory)
        self._calibration = (
            calibration if calibration is not None else calibration_fingerprint()
        )
        self._campaign_seed = campaign_seed
        world = _canonical({"calibration": self._calibration, "campaign_seed": campaign_seed})
        # the bytes every line of this world starts with (keys are sorted)
        self._line_prefix = world[:-1].encode("utf-8") + b","
        # the name prefix of this world's segments
        self._segment_tag = hashlib.sha256(world.encode("utf-8")).hexdigest()[:12] + "-"
        # job fingerprint -> (segment name, offset) of its last line
        self._index: "dict[str, tuple[str, int]]" = {}
        # segment name -> bytes scanned (up to its last complete line)
        self._scanned: "dict[str, int]" = {}
        # (segment name, offset) of quarantined lines; loaded on first scan
        self._tombstones: "set[tuple[object, object]] | None" = None
        self._writer: "io.FileIO | None" = None
        self._writer_pid = 0

    @property
    def directory(self) -> Path:
        """Cache root directory."""
        return self._directory

    @property
    def segment_directory(self) -> Path:
        """Where the segment files live."""
        return self._directory / SEGMENT_DIR

    @property
    def quarantine_directory(self) -> Path:
        """Where failing lines are copied."""
        return self._directory / QUARANTINE_DIR

    @property
    def calibration(self) -> str:
        """Calibration fingerprint entries are keyed under."""
        return self._calibration

    # ------------------------------------------------------------------
    # Writing.

    def _segment_writer(self) -> "io.FileIO":
        """This process's segment, acquired on first use (and again in a
        forked child, whose inherited descriptor shares the parent's lock)."""
        if self._writer is not None and self._writer_pid == os.getpid():
            return self._writer
        self.close()
        segments = self.segment_directory
        segments.mkdir(parents=True, exist_ok=True)
        fd = None
        for path in sorted(segments.glob(f"{self._segment_tag}*.jsonl")):
            fd = _lock_segment(path, os.O_RDWR | os.O_APPEND)
            if fd is not None:
                break
        while fd is None:
            path = segments / f"{self._segment_tag}{secrets.token_hex(8)}.jsonl"
            fd = _lock_segment(path, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL)
        self._writer = open(fd, "ab", buffering=0)
        self._writer_pid = os.getpid()
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            self._writer.write(b"\n")  # terminate the line a dead writer tore
        return self._writer

    def put(self, spec: JobSpec, metrics: dict) -> None:
        """Append ``metrics`` for ``spec`` to this process's segment."""
        entry = {
            "format": CACHE_FORMAT,
            "calibration": self._calibration,
            "campaign_seed": self._campaign_seed,
            "checksum": metrics_checksum(metrics),
            "spec": spec.to_dict(),
            "metrics": metrics,
        }
        line = _canonical(entry) + "\n"
        data = memoryview(line.encode("utf-8"))
        try:
            writer = self._segment_writer()
            while data:  # one write unless the kernel cuts it short
                data = data[writer.write(data):]
        except OSError:
            self.close()  # the next writer seals whatever was torn
            raise

    def close(self) -> None:
        """Release this process's segment (safe to call twice).  In a
        forked child this only drops the inherited descriptor: the lock
        stays with the parent's."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    # Reading.

    def _refresh(self) -> None:
        """Index the complete lines appended to this world's segments
        since the last scan."""
        if self._tombstones is None:
            self._tombstones = {
                (record.get("segment"), record.get("offset"))
                for record in self.quarantined()
            }
        try:
            segments = sorted(
                os.scandir(self.segment_directory), key=lambda item: item.name
            )
        except OSError:  # nothing written yet
            return
        for item in segments:
            name = item.name
            start = self._scanned.get(name, 0)
            try:
                if (
                    not name.startswith(self._segment_tag)
                    or not name.endswith(".jsonl")
                    or item.stat().st_size <= start
                ):
                    continue
                with open(item.path, "rb") as handle:
                    handle.seek(start)
                    data = handle.read()
            except OSError:  # cleared under us, or unreadable
                continue
            end = data.rfind(b"\n")
            if end < 0:
                continue  # only a torn or still-growing tail
            self._scanned[name] = start + end + 1
            offset = start
            for raw in data[:end].split(b"\n"):
                here, offset = offset, offset + len(raw) + 1
                if raw and (name, here) not in self._tombstones:
                    key = self._line_key(name, here, raw)
                    if key is not None:
                        self._index[key] = (name, here)

    def _spec_key(self, raw: bytes) -> "str | None":
        """The job fingerprint of a line of this world as ``put`` wrote
        it, read off its bytes; ``None`` for a line of any other shape.

        ``put`` writes sorted keys, so its line starts with the world
        and ends with the spec, in the canonical text whose SHA-256 is
        the fingerprint.
        """
        if raw.startswith(self._line_prefix) and raw.endswith(b"}}"):
            at = raw.rfind(_SPEC_KEY)
            if at > 0:
                return hashlib.sha256(raw[at + len(_SPEC_KEY):-1]).hexdigest()
        return None

    def _line_key(self, segment: str, offset: int, raw: bytes) -> "str | None":
        """The job a line belongs to; ``None`` for another calibration's
        or seed's line, or after quarantining a line that names no job.
        Only a line ``put`` did not write is parsed here."""
        key = self._spec_key(raw)
        if key is not None:
            return key
        try:
            entry = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            self._quarantine(segment, offset, raw, "unparseable", f"{type(exc).__name__}: {exc}")
            return None
        spec = entry.get("spec") if isinstance(entry, dict) else None
        if not isinstance(spec, dict):
            self._quarantine(
                segment, offset, raw, "schema-drift",
                f"top-level {type(entry).__name__} without a spec object",
            )
            return None
        # Another world's line must not shadow this world's line for the
        # same job, wherever the two sit in the log.
        if (
            entry.get("calibration") != self._calibration
            or entry.get("campaign_seed") != self._campaign_seed
        ):
            return None
        return spec_fingerprint(spec)

    def _quarantine(
        self, segment: str, offset: int, raw: bytes, reason: str, detail: str
    ) -> None:
        """Copy a failing line aside with a structured diagnosis that is
        also its tombstone.

        Best-effort: quarantine must never turn a cache miss into a
        crash, so filesystem errors here are swallowed.  This reader has
        already scanned past the line, so it never re-diagnoses it.
        """
        quarantine = self.quarantine_directory
        # Concurrent readers can diagnose the same line at once; a
        # per-reader suffix keeps their copies and reasons apart.
        stem = f"{Path(segment).stem}.{offset}.{os.getpid()}-{secrets.token_hex(4)}"
        diagnosis = {
            "entry": f"{SEGMENT_DIR}/{segment}:{offset}",
            "segment": segment,
            "offset": offset,
            "quarantined_as": f"{stem}.json",
            "reason": reason,
            "detail": detail,
            "calibration": self._calibration,
            "quarantined_at": time.time(),
        }
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            (quarantine / f"{stem}.json").write_bytes(raw)
            (quarantine / f"{stem}.reason.json").write_text(
                json.dumps(diagnosis, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass

    def _verified_line(
        self, fingerprint: str, where: "tuple[str, int]", checksum: "str | None"
    ) -> "dict | None":
        """Re-read, validate and checksum the line at ``where``.

        Returns its metrics, or ``None`` after quarantining the line
        (corruption) or on a benign miss: the line no longer belongs to
        this job, is another calibration's or seed's, or its payload
        does not hash to ``checksum``.
        """
        segment, offset = where
        try:
            with open(os.path.join(self._directory, SEGMENT_DIR, segment), "rb") as handle:
                handle.seek(offset)
                raw = handle.readline().rstrip(b"\n")
        except OSError:  # cleared under us, or unreadable: a miss
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            failure = ("unparseable", f"{type(exc).__name__}: {exc}")
        else:
            failure = _diagnose(entry)
        if failure is not None:
            self._quarantine(segment, offset, raw, *failure)
            self._index.pop(fingerprint, None)
            return None
        # A valid line for another job (the bytes moved under the index)
        # or for another world is not corruption: leave it for whoever
        # keyed it.
        if (
            (self._spec_key(raw) or spec_fingerprint(entry["spec"])) != fingerprint
            or entry.get("calibration") != self._calibration
            or entry.get("campaign_seed") != self._campaign_seed
            or checksum not in (None, entry["checksum"])
        ):
            return None
        return entry["metrics"]

    def _lookup(self, spec: JobSpec, checksum: "str | None" = None) -> "dict | None":
        """Verified metrics for ``spec``; a miss scans for newer lines and
        tries once more."""
        fingerprint = spec.fingerprint()
        tried = self._index.get(fingerprint)
        if tried is not None:
            metrics = self._verified_line(fingerprint, tried, checksum)
            if metrics is not None:
                return metrics
        self._refresh()
        where = self._index.get(fingerprint)
        if where is None or where == tried:
            return None
        return self._verified_line(fingerprint, where, checksum)

    def get(self, spec: JobSpec) -> "dict | None":
        """Verified cached metrics for ``spec``, or ``None`` on miss.

        Corrupt entries (truncation, bit-rot, schema drift, checksum
        mismatch) are quarantined and count as misses; this never raises.
        """
        return self._lookup(spec)

    def get_verified(self, spec: JobSpec, checksum: str) -> "dict | None":
        """Cached metrics for ``spec`` only if they hash to ``checksum``.

        The resume path uses this to refuse results that diverged from
        what the journal recorded (e.g. an entry rewritten by a different
        run between crash and resume).
        """
        return self._lookup(spec, checksum)

    def quarantined(self) -> "list[dict]":
        """Structured reasons of every quarantined line (sorted by name)."""
        quarantine = self.quarantine_directory
        if not quarantine.is_dir():
            return []
        reasons = []
        for path in sorted(quarantine.glob("*.reason.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                reasons.append(record)
        return reasons

    def __contains__(self, spec: JobSpec) -> bool:
        return self.get(spec) is not None

    def __len__(self) -> int:
        """Live entries of this cache's calibration and campaign seed:
        jobs with an indexed line."""
        self._refresh()
        return len(self._index)

    def clear(self) -> int:
        """Delete every segment, whatever world its lines belong to
        (``quarantine/`` stays); returns how many of this cache's live
        entries were removed."""
        removed = len(self)
        self.close()
        for path in self.segment_directory.glob("*.jsonl"):
            try:
                path.unlink()
            except OSError:
                pass
        self._index.clear()
        self._scanned.clear()
        return removed


def _diagnose(entry: object) -> "tuple[str, str] | None":
    """Why a parsed line is corrupt, as (reason, detail), or ``None``."""
    if not isinstance(entry, dict):
        return "schema-drift", f"top-level {type(entry).__name__}, expected object"
    if entry.get("format") != CACHE_FORMAT:
        return "schema-drift", f"format {entry.get('format')!r}, expected {CACHE_FORMAT}"
    if not isinstance(entry.get("spec"), dict):
        return "schema-drift", "missing or non-object spec"
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict):
        return "schema-drift", "missing or non-object metrics payload"
    recorded = entry.get("checksum")
    actual = metrics_checksum(metrics)
    if recorded != actual:
        return "checksum-mismatch", f"recorded {recorded!r}, payload hashes to {actual!r}"
    return None
