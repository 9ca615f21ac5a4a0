"""Fault-tolerant, durable campaign execution.

``run_campaign`` takes a list of :class:`JobSpec` and returns one outcome
per spec, in submission order.  Execution strategy:

* **resume first** — with ``config.resume`` and a journal on disk, jobs
  the journal marks ``done`` are served from the result cache after their
  payload checksum is verified against the journaled one;
* **cache second** — jobs whose fingerprint is already in the result
  cache (same calibration and campaign seed) are served without running
  anything;
* **write-ahead journal** — a cached campaign fsyncs every
  dispatch/done/failed transition to an append-only JSONL file under
  ``<cache_dir>/journal`` *before* the next state change, so a SIGKILL
  mid-sweep loses at most the in-flight jobs;
* **worker fleet** — with ``n_jobs > 1`` a coordinator forks up to
  ``n_jobs`` workers and dispatches the remaining jobs to them over
  pipes (:mod:`repro.runtime.fleet`).  ``timeout_s`` is the job
  timeout: a job still running when it runs out is presumed hung, its
  worker is killed and the job re-dispatched.  A dead worker's job is
  re-dispatched at once, and what no worker can run runs in-process.
  ``n_jobs`` is the only setting that shapes the fleet;
* **bounded retry** — jobs that raise are retried in place with
  exponential backoff, up to ``max_retries`` extra attempts (an attempt
  lost to a dead or hung worker counts); ``max_failures`` turns a
  failure storm into an early abort;
* **signal safety** — SIGINT/SIGTERM are journaled as an interruption
  and the partial manifest is flushed before the exception propagates.

Because every job's RNG derives from (campaign seed, spec fingerprint)
(:mod:`repro.runtime.seeding`), outcomes are bit-identical whatever the
worker count, execution order — or how many times the campaign was
killed and resumed along the way.  See DESIGN.md §10 for
the executor contract.
"""

from __future__ import annotations

import itertools
import math
import signal
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from .cache import ResultCache
from .jobs import JobSpec, job_runner
from .journal import CampaignJournal, campaign_fingerprint, metrics_checksum
from .progress import CampaignProgress, RunManifest
from .seeding import job_rng

#: Journal subdirectory created under the cache directory.
JOURNAL_SUBDIR = "journal"


@dataclass(frozen=True)
class CampaignConfig:
    """Execution knobs for one campaign.

    Attributes:
        n_jobs: worker processes; 1 means in-process serial execution.
        timeout_s: the job timeout of the worker fleet (``n_jobs > 1``):
            a job still running this long after it started is presumed
            hung, its worker is killed and the job re-run, the overrun
            counting as one attempt.  ``None`` never presumes a
            job hung.  Serial runs ignore it.
        max_retries: extra attempts after a job's first failure.
        backoff_s: base of the exponential retry backoff.
        campaign_seed: root seed for per-job RNG derivation (>= 0).
        cache_dir: result-cache directory, or ``None`` for no caching.
            Cached campaigns journal under ``<cache_dir>/journal``.
        resume: replay the campaign's journal and skip jobs whose results
            are journaled ``done`` and still verify against the cache.
        max_failures: abort the campaign once this many jobs have failed
            (remaining jobs settle as failed without running); ``None``
            disables the bound.
    """

    n_jobs: int = 1
    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    campaign_seed: int = 0
    cache_dir: Path | str | None = None
    resume: bool = False
    max_failures: int | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs!r}")
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0.0
        ):
            raise ValueError(
                f"timeout_s must be finite and positive, or None, got {self.timeout_s!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0.0):
            raise ValueError(f"backoff_s must be finite and >= 0, got {self.backoff_s!r}")
        if self.campaign_seed < 0:
            raise ValueError(
                f"campaign_seed must be >= 0, got {self.campaign_seed!r}"
            )
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError(
                f"max_failures must be >= 1, got {self.max_failures!r}"
            )

    def resolved_journal_dir(self) -> "Path | None":
        """Where this campaign journals, or ``None`` for no journaling."""
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / JOURNAL_SUBDIR


@dataclass(frozen=True)
class JobOutcome:
    """How one job settled.

    Attributes:
        spec: the job.
        status: ``"completed"``, ``"failed"``, ``"cached"`` or
            ``"resumed"`` (journal replay verified against the cache).
        metrics: runner output (``None`` when failed).
        error: last error string when failed.
        attempts: executions performed, including attempts lost to a
            dead or hung worker (0 for cache/resume hits).
        duration_s: execution time of the last attempt (0 for cache hits).
    """

    spec: JobSpec
    status: str
    metrics: dict | None
    error: str | None = None
    attempts: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether usable metrics are available."""
        return self.metrics is not None


@dataclass(frozen=True)
class CampaignResult:
    """All outcomes of one campaign, in submission order."""

    outcomes: tuple[JobOutcome, ...]
    manifest: RunManifest

    @property
    def metrics(self) -> list[dict | None]:
        """Per-job metrics in submission order (``None`` for failures)."""
        return [o.metrics for o in self.outcomes]

    @property
    def failures(self) -> list[JobOutcome]:
        """The failed outcomes."""
        return [o for o in self.outcomes if o.status == "failed"]

    def raise_on_failure(self) -> "CampaignResult":
        """Raise if any job failed; returns self for chaining.

        Raises:
            CampaignError: listing up to three failing jobs.
        """
        failures = self.failures
        if failures:
            detail = "; ".join(
                f"{o.spec.kind}[{o.spec.fingerprint()[:8]}]: {o.error}"
                for o in failures[:3]
            )
            raise CampaignError(
                f"{len(failures)}/{len(self.outcomes)} campaign jobs failed: {detail}"
            )
        return self


class CampaignError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_on_failure`."""


# --------------------------------------------------------------------------
# Manifest registry.
#
# The CLI uses this to surface telemetry from campaigns that run behind
# library calls (e.g. ``export fig15 --jobs 4``) without threading a
# collector through every analysis signature.  Campaigns *claim a slot* at
# start and fill it at completion, so concurrent campaigns (threaded
# callers) drain in deterministic start order, protected by a lock.

_MANIFEST_LOCK = threading.Lock()
_MANIFEST_SLOTS: "dict[int, RunManifest | None]" = {}
_MANIFEST_COUNTER = itertools.count()
_MANIFEST_LIMIT = 64


def _claim_manifest_slot() -> int:
    """Reserve the next start-ordered slot for a campaign about to run."""
    with _MANIFEST_LOCK:
        slot = next(_MANIFEST_COUNTER)
        _MANIFEST_SLOTS[slot] = None
        return slot


def _record_manifest(slot: int, manifest: RunManifest) -> None:
    """Fill a claimed slot, evicting the oldest finished beyond the cap."""
    with _MANIFEST_LOCK:
        if slot in _MANIFEST_SLOTS:
            _MANIFEST_SLOTS[slot] = manifest
        finished = [k for k, m in _MANIFEST_SLOTS.items() if m is not None]
        if len(finished) > _MANIFEST_LIMIT:
            for key in sorted(finished)[: len(finished) - _MANIFEST_LIMIT]:
                del _MANIFEST_SLOTS[key]


def drain_manifests() -> list[RunManifest]:
    """Return and clear the finished campaign manifests, in start order.

    Thread-safe; slots claimed by still-running campaigns are left in
    place so their manifests land in a later drain.
    """
    with _MANIFEST_LOCK:
        finished = [
            key for key in sorted(_MANIFEST_SLOTS) if _MANIFEST_SLOTS[key] is not None
        ]
        return [_MANIFEST_SLOTS.pop(key) for key in finished]  # type: ignore[misc]


# --------------------------------------------------------------------------
# Failure budget.


class _FailureLedger:
    """Campaign failure budget over *distinct* failed jobs.

    Keyed by job fingerprint so a retried-then-failed job counts once,
    and seeded from the journal on resume so failures from an earlier
    interrupted run keep counting toward ``max_failures`` (a resumed
    campaign must not get a fresh budget).  A job that later succeeds is
    struck from the ledger.
    """

    def __init__(
        self, max_failures: "int | None", prior: "Iterable[str]" = ()
    ) -> None:
        self.max_failures = max_failures
        self.failed: "set[str]" = set(prior)

    def success(self, fingerprint: str) -> None:
        self.failed.discard(fingerprint)

    def failure(self, fingerprint: str) -> None:
        self.failed.add(fingerprint)

    @property
    def breached(self) -> bool:
        return self.max_failures is not None and len(self.failed) >= self.max_failures

    def abort_message(self) -> str:
        return (
            "aborted: campaign failure budget "
            f"(max_failures={self.max_failures}) exhausted"
        )


# --------------------------------------------------------------------------
# Signal handling.


class _SignalGuard:
    """Convert SIGINT/SIGTERM into catchable exceptions for the run scope.

    Installed only in the main thread (Python forbids handlers
    elsewhere); previous handlers are restored on exit.  SIGTERM becomes
    ``SystemExit(128 + signum)`` so ``finally`` blocks — journal flush,
    pool teardown, partial-manifest recording — still run before the
    process dies.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.reason: "str | None" = None
        self._previous: "dict[int, object]" = {}

    def _handler(self, signum: int, frame: object) -> None:
        self.reason = signal.Signals(signum).name
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in self._SIGNALS:
                try:
                    self._previous[signum] = signal.signal(signum, self._handler)
                except (ValueError, OSError):  # pragma: no cover - exotic host
                    pass
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)  # type: ignore[arg-type]
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
        self._previous.clear()


# --------------------------------------------------------------------------
# Running and settling one job.


def execute_job(spec: JobSpec, campaign_seed: int = 0) -> dict:
    """Run one job in-process and return its metrics.

    This is the unit workers execute; it resolves the runner from the
    registry and hands it a content-derived RNG, so the result depends
    only on (spec, campaign_seed).
    """
    runner = job_runner(spec.kind)
    return runner(spec, job_rng(spec, campaign_seed))


def run_job(spec: JobSpec, config: CampaignConfig, lost: int = 0) -> JobOutcome:
    """Run one job with bounded retry and exponential backoff.

    The one retry loop: serial runs and fleet workers both call it.
    ``lost`` counts attempts a dead or hung worker already spent on the
    job; they come out of the same ``max_retries`` budget, so a job that
    keeps killing or hanging its workers ends up failed.
    """
    attempts = lost
    error = f"presumed hung: {lost} attempt(s) lost to dead or overrunning workers"
    duration = 0.0
    while attempts <= config.max_retries:
        if attempts > 0 and config.backoff_s > 0.0:
            time.sleep(config.backoff_s * (2.0 ** (attempts - 1)))
        attempts += 1
        started = time.perf_counter()
        try:
            metrics = execute_job(spec, config.campaign_seed)
        except Exception as exc:  # noqa: BLE001 - retried then reported
            error = f"{type(exc).__name__}: {exc}"
            duration = time.perf_counter() - started
        else:
            return JobOutcome(
                spec=spec,
                status="completed",
                metrics=metrics if isinstance(metrics, dict) else {"value": metrics},
                attempts=attempts,
                duration_s=time.perf_counter() - started,
            )
    return JobOutcome(
        spec=spec,
        status="failed",
        metrics=None,
        error=error,
        attempts=attempts,
        duration_s=duration,
    )


def _commit(
    outcome: JobOutcome,
    cache: "ResultCache | None",
    journals: "Iterable[CampaignJournal]",
) -> None:
    """Persist a fresh outcome: the result to the cache first, then its
    terminal record to every journal."""
    spec = outcome.spec
    if outcome.metrics is not None:
        if cache is not None:
            cache.put(spec, outcome.metrics)
        checksum = metrics_checksum(outcome.metrics)
        for journal in journals:
            journal.done(spec, checksum, outcome.attempts, outcome.duration_s)
    else:
        for journal in journals:
            journal.failed(
                spec, outcome.error or "", outcome.attempts, outcome.duration_s
            )


def _settle(
    index: int,
    outcome: JobOutcome,
    progress: CampaignProgress,
    outcomes: "dict[int, JobOutcome]",
    ledger: _FailureLedger,
) -> None:
    """Account one job's final outcome in the campaign's books."""
    outcomes[index] = outcome
    if outcome.ok:
        ledger.success(outcome.spec.fingerprint())
    else:
        ledger.failure(outcome.spec.fingerprint())
    progress.record(
        outcome.spec.kind, outcome.status, retries=max(outcome.attempts - 1, 0)
    )


# --------------------------------------------------------------------------
# Campaign driver.


def run_campaign(
    specs: "list[JobSpec] | tuple[JobSpec, ...]",
    config: CampaignConfig | None = None,
    on_progress=None,
) -> CampaignResult:
    """Execute a campaign and return per-job outcomes plus a manifest.

    The one way to run a campaign: the pre-pass, then the pending jobs
    in-process (``n_jobs = 1``) or on a fleet of ``n_jobs`` workers
    (:mod:`repro.runtime.fleet`), then the manifest.  With
    ``config.resume`` the write-ahead journal is replayed first:
    journaled-``done`` jobs are served from the cache after checksum
    verification and only the remainder is re-dispatched, bit-identical
    to an uninterrupted run (content-derived seeding).

    Args:
        specs: the jobs, in submission order.
        config: execution knobs (defaults to :class:`CampaignConfig`).
        on_progress: called with the campaign's
            :class:`~repro.runtime.progress.CampaignProgress` after each
            job the fleet settles; serial runs never call it.
    """
    config = config if config is not None else CampaignConfig()
    specs = list(specs)
    slot = _claim_manifest_slot()
    progress = CampaignProgress(total=len(specs))
    cache = (
        ResultCache(config.cache_dir, campaign_seed=config.campaign_seed)
        if config.cache_dir is not None
        else None
    )
    calibration = cache.calibration if cache is not None else ""

    journal: "CampaignJournal | None" = None
    campaign_fp = ""
    journal_dir = config.resolved_journal_dir()
    if journal_dir is not None:
        campaign_fp = campaign_fingerprint(specs, config.campaign_seed, calibration)
        journal = CampaignJournal(journal_dir / f"{campaign_fp}.jsonl", campaign_fp)

    replay = None
    if config.resume and journal is not None:
        replay = journal.replay()
        if replay.campaign and replay.campaign != campaign_fp:
            replay = None  # foreign journal: distrust it entirely

    # Failures journaled by an earlier interrupted run keep counting
    # toward the budget; a fingerprint is struck once the job succeeds.
    ledger = _FailureLedger(
        config.max_failures,
        prior=replay.failed if replay is not None else (),
    )

    outcomes: dict[int, JobOutcome] = {}
    pending: list[tuple[int, JobSpec]] = []
    for index, spec in enumerate(specs):
        hit = None
        status = "cached"
        if replay is not None:
            checksum = replay.done.get(spec.fingerprint())
            if checksum is not None:
                hit = cache.get_verified(spec, checksum)  # type: ignore[union-attr]
                status = "resumed"
        if hit is None and cache is not None:
            hit, status = cache.get(spec), "cached"
        if hit is None:
            pending.append((index, spec))
        else:
            outcome = JobOutcome(spec=spec, status=status, metrics=hit)
            _settle(index, outcome, progress, outcomes, ledger)

    guard = _SignalGuard()
    try:
        with guard:
            if journal is not None:
                journal.begin(len(specs), config.campaign_seed, calibration)
                for _, spec in pending:
                    journal.dispatched(spec)
            if pending and config.n_jobs > 1 and not ledger.breached:
                from .fleet import run_fleet

                run_fleet(
                    pending, config, cache, journal, progress, outcomes, ledger,
                    on_progress,
                )
            else:
                _run_serial(pending, config, cache, progress, outcomes, journal, ledger)
    except (KeyboardInterrupt, SystemExit) as exc:
        # Journal the interruption and flush the partial manifest so the
        # settled prefix is recoverable, then let the signal win.
        reason = guard.reason or type(exc).__name__
        if journal is not None:
            journal.interrupted(reason, progress.settled)
            journal.close()
        _record_manifest(
            slot,
            _finalize_manifest(
                progress, config, calibration, campaign_fp, journal, outcomes,
                len(specs), interrupted=True,
            ),
        )
        raise
    else:
        if journal is not None:
            journal.end(
                progress.completed, progress.failed, progress.cached + progress.resumed
            )
            journal.close()
    finally:
        if cache is not None:
            cache.close()  # releases this process's segment for the next writer

    manifest = _finalize_manifest(
        progress, config, calibration, campaign_fp, journal, outcomes, len(specs),
        interrupted=False,
    )
    _record_manifest(slot, manifest)
    return CampaignResult(
        outcomes=tuple(outcomes[i] for i in range(len(specs))),
        manifest=manifest,
    )


def _finalize_manifest(
    progress: CampaignProgress,
    config: CampaignConfig,
    calibration: str,
    campaign_fp: str,
    journal: "CampaignJournal | None",
    outcomes: "dict[int, JobOutcome]",
    total: int,
    interrupted: bool,
) -> RunManifest:
    """Freeze progress into a manifest, merging any energy breakdowns."""
    manifest = progress.manifest(
        n_jobs=config.n_jobs,
        calibration=calibration,
        campaign_seed=config.campaign_seed,
        campaign=campaign_fp,
        journal=str(journal.path) if journal is not None else None,
        interrupted=interrupted,
    )
    # Jobs that report a ledger breakdown get their category totals
    # merged into the manifest, so campaign records carry the attributed
    # energy picture alongside the throughput counters.
    energy: dict[str, float] | None = None
    for index in range(total):
        outcome = outcomes.get(index)
        if outcome is None or not isinstance(outcome.metrics, dict):
            continue
        breakdown = outcome.metrics.get("energy_breakdown_j")
        if not isinstance(breakdown, dict):
            continue
        if energy is None:
            energy = {}
        for label, value in breakdown.items():
            energy[label] = energy.get(label, 0.0) + float(value)
    if energy is not None:
        manifest = replace(manifest, energy=energy)
    return manifest


def _run_serial(
    pending: "list[tuple[int, JobSpec]]",
    config: CampaignConfig,
    cache: ResultCache | None,
    progress: CampaignProgress,
    outcomes: dict[int, JobOutcome],
    journal: "CampaignJournal | None",
    ledger: _FailureLedger,
    lost: "dict[int, int] | None" = None,
) -> None:
    """Run jobs in-process, one after another.

    ``lost`` maps a job's index to the attempts dead or hung fleet
    workers already spent on it.  Honors ``config.max_failures`` through
    the failure ledger: once the campaign's *distinct* failed-job count —
    including failures journaled by an interrupted run this one resumed —
    reaches the bound, every remaining job settles as failed without
    executing (bounded-failure early abort).
    """
    journals = (journal,) if journal is not None else ()
    abort_error = ledger.abort_message() if ledger.breached else None
    for index, spec in pending:
        if abort_error is not None:
            outcome = JobOutcome(spec=spec, status="failed", metrics=None, error=abort_error)
        else:
            outcome = run_job(spec, config, (lost or {}).get(index, 0))
        _commit(outcome, cache, journals)
        _settle(index, outcome, progress, outcomes, ledger)
        if abort_error is None and ledger.breached:
            abort_error = ledger.abort_message()
