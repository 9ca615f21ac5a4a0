"""The worker fleet: sharded, lease-journaled campaign execution.

Every campaign with ``n_jobs > 1`` — and every ``--shards K --workers N``
run — executes here, after the executor's pre-pass (resume replay, then
cache hits) has settled what it can.  The pending jobs are dealt into K
**shards**, and N forked worker processes *lease* them through
per-shard append-only journals.  Everything rides the durability
primitives of the executor — the shared result cache, checksummed
``done`` records, the crash-tolerant replay — so the fleet adds
coordination, never new persistence:

* **partition** — specs are ordered by content fingerprint and dealt
  round-robin into K shards, so the split depends only on the job set,
  never on submission order or worker count;
* **leases** — a worker claims a shard by appending a ``lease`` record
  (worker id, pid, deadline, nonce) and re-reading the journal:
  ``O_APPEND`` gives every contender the same total order, and a claim
  is *granted* only if the previous granted lease was released, renewed
  by the same worker, or already expired at the claim's timestamp.  Both
  racers apply the same pure function to the same bytes, so they agree
  on the winner without any other IPC;
* **timeout = lease** — a worker renews its lease for ``timeout_s`` as
  each job starts, so a job still running when the lease runs out is
  presumed hung and its shard is claimable (``timeout_s=None`` leases
  never expire).  The new holder resumes the shard from its journal:
  settled jobs are never re-run, and the attempt the lost holder had in
  flight counts toward the job's retry budget.  A worker that finishes
  its own shards steals the expired shard with the most unsettled jobs;
* **dead workers** — the coordinator blocks on its workers' exit; when
  one dies it appends a ``release`` for the shard the dead worker held,
  so a survivor (or the coordinator's in-process drain) takes it over at
  once instead of after the lease;
* **failure budgets** — each worker enforces the per-shard budget
  (distinct failed jobs, including ones journaled by previous holders)
  and journals an ``interrupted`` record on breach; the coordinator
  enforces the campaign's ``max_failures`` across all shard journals and
  tears the fleet down, again with journaled ``interrupted`` records;
* **merge** — the coordinator folds the shard journals back into the
  campaign's outcomes in submission order, reading every payload from
  the checksum-verified cache.  Because job results are pure functions
  of (spec, campaign seed), the :func:`results_manifest` of a fleet run
  is **byte-identical** to a single-process run, whatever worker ran
  which shard or how many steals happened along the way.

Workers also append their ``done``/``failed`` records to the campaign
journal, which is what ``--resume`` replays.  See DESIGN.md §10 for the
full executor contract.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .cache import ResultCache
from .executor import (
    CampaignConfig,
    CampaignResult,
    JobOutcome,
    _commit,
    _execute,
    _FailureLedger,
    _settle,
    _SignalGuard,
    run_job,
)
from .jobs import JobSpec
from .journal import CampaignJournal, JournalReplay, metrics_checksum, replay_journal
from .progress import CampaignProgress, ShardBoard

if TYPE_CHECKING:  # pragma: no cover - imported where used, off the serial path
    from multiprocessing.process import BaseProcess

#: Schema version of the results manifest.
SHARD_FORMAT = 1

#: Subdirectory (under the journal dir) holding shard journals.
SHARD_SUBDIR = "shards"

#: Lease-holder name of the coordinator when it drains shards itself.
DRAIN_WORKER = "coordinator"


@dataclass(frozen=True)
class ShardConfig:
    """Shape of the worker fleet of a sharded campaign.

    The job lease is the campaign's ``timeout_s``
    (:class:`~repro.runtime.executor.CampaignConfig`).

    Attributes:
        shards: number of shards the pending jobs are split into
            (clamped to the job count).
        workers: worker processes the coordinator forks.
        poll_s: how often idle workers look for an expired lease to
            steal, and the coordinator's tick while it counts failures
            or reports progress.
        shard_max_failures: per-shard failure budget (distinct failed
            jobs, including ones journaled by previous lease holders);
            breach journals ``interrupted`` and abandons the shard.
    """

    shards: int = 2
    workers: int = 2
    poll_s: float = 0.05
    shard_max_failures: "int | None" = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.poll_s <= 0.0:
            raise ValueError(f"poll must be positive, got {self.poll_s!r}")
        if self.shard_max_failures is not None and self.shard_max_failures < 1:
            raise ValueError(
                f"shard_max_failures must be >= 1, got {self.shard_max_failures!r}"
            )


# --------------------------------------------------------------------------
# Deterministic partition.


def partition_shards(specs: "list[JobSpec]", n_shards: int) -> "list[list[int]]":
    """Split spec *indices* into at most ``n_shards`` deterministic shards.

    Specs are ordered by content fingerprint and dealt round-robin, so
    the partition is a pure function of the job set: reordering the
    submission list, changing the worker count, or resuming after a
    crash all reproduce the identical shard membership.  Empty shards
    are dropped (campaigns smaller than ``n_shards``).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
    order = sorted(range(len(specs)), key=lambda i: specs[i].fingerprint())
    shards = [order[k::n_shards] for k in range(n_shards)]
    return [shard for shard in shards if shard]


def shard_root(journal_dir: "Path | str", campaign: str) -> Path:
    """Directory holding one campaign's shard journals."""
    return Path(journal_dir) / SHARD_SUBDIR / campaign


def shard_journal_path(root: "Path | str", index: int) -> Path:
    """Journal file of one shard."""
    return Path(root) / f"shard-{index:04d}.jsonl"


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to run its slice of a campaign.

    Workers are forked, so the plan reaches them in memory.

    Attributes:
        specs: the pending jobs the fleet runs.
        shards: indices into ``specs``, one tuple per shard.
        root: directory of the shard journals.
        cache: the result cache workers write and the merge reads.
        journal: the campaign journal workers append terminal records
            to, or ``None`` for an unjournaled campaign.
        campaign: campaign fingerprint ("" when unjournaled).
        config: the campaign's seed, retry, backoff and lease knobs.
        fleet: the fleet's shape, polling tick and per-shard budget.
        coordinator: pid of the coordinating process (the one that
            builds the plan); a worker whose parent is no longer it stops
            at the next job boundary.
    """

    specs: tuple[JobSpec, ...]
    shards: tuple[tuple[int, ...], ...]
    root: Path
    cache: ResultCache
    journal: "Path | None"
    campaign: str
    config: CampaignConfig
    fleet: ShardConfig
    coordinator: int = field(default_factory=os.getpid)

    @property
    def lease_s(self) -> float:
        """Lease duration (the job timeout); infinite without one."""
        return self.config.timeout_s or math.inf

    def shard_specs(self, index: int) -> "list[tuple[int, JobSpec]]":
        """(index, spec) members of one shard, in submission order — the
        same order a single-process run would execute them."""
        members = sorted(self.shards[index])
        return [(i, self.specs[i]) for i in members]


# --------------------------------------------------------------------------
# Shard journal: the campaign journal plus lease records.


class ShardJournal(CampaignJournal):
    """Per-shard journal: job lifecycle records plus the lease protocol.

    Appends skip ``fsync``: these records coordinate live processes on
    one host, and the campaign journal carries durability.
    """

    def __init__(self, path: "Path | str", campaign: str = "") -> None:
        super().__init__(path, campaign, fsync=False)

    def lease(self, worker: str, now: float, deadline: float, nonce: str) -> None:
        """Claim (or renew) this shard until ``deadline`` (``inf`` is
        written as ``null``: a lease that never expires)."""
        self._append(
            {
                "event": "lease",
                "worker": worker,
                "pid": os.getpid(),
                "time": now,
                "deadline": None if math.isinf(deadline) else deadline,
                "nonce": nonce,
            }
        )

    def release(self, worker: str, nonce: str, lost: bool = False) -> None:
        """Give the shard up: voluntarily (finished or abandoned), or on
        behalf of a dead ``worker`` (``lost``), which counts as a steal."""
        record: "dict[str, object]" = {
            "event": "release", "worker": worker, "nonce": nonce
        }
        if lost:
            record["lost"] = True
        self._append(record)


@dataclass
class ShardState(JournalReplay):
    """What one shard's journal says: its jobs' records (with the same
    torn-write tolerance as the campaign journal) plus lease ownership.

    ``dispatched`` counts the holders that started each job, so a new
    holder knows the attempts lost holders spent on it.
    """

    holder: "str | None" = None
    deadline: float = 0.0
    nonce: str = ""
    steals: int = 0

    @property
    def finished(self) -> bool:
        """Whether the shard journaled its ``end`` record."""
        return self.finished_runs > 0

    def settled(self) -> "set[str]":
        """Jobs with a terminal record (``done`` wins over ``failed``)."""
        return set(self.done) | set(self.failed)

    def leased(self, now: float) -> bool:
        """Whether an unexpired lease is outstanding."""
        return self.holder is not None and now < self.deadline

    def claimable(self, now: float) -> bool:
        """Whether a worker may claim this shard right now."""
        return not self.finished and not self.leased(now)

    def apply(self, record: "dict[str, object]") -> bool:
        """Fold one record in, running the lease grant rule: a claim is
        granted iff the previous granted lease was released, belongs to
        the same worker (renewal), or had already expired at the claim's
        own timestamp."""
        event = record.get("event")
        if event == "lease":
            worker = record.get("worker")
            try:
                claim_time = float(record.get("time", 0.0))  # type: ignore[arg-type]
                raw = record.get("deadline", 0.0)
                deadline = math.inf if raw is None else float(raw)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return False
            if not isinstance(worker, str) or not worker:
                return False
            if self.holder is None or self.holder == worker or self.deadline <= claim_time:
                if self.holder is not None and self.holder != worker:
                    self.steals += 1
                self.holder = worker
                self.deadline = deadline
                self.nonce = str(record.get("nonce", ""))
            return True
        if event == "release":
            if record.get("worker") == self.holder:
                if record.get("lost") is True:
                    self.steals += 1
                self.holder, self.deadline, self.nonce = None, 0.0, ""
            return True
        return super().apply(record)


def replay_shard_journal(path: "Path | str") -> ShardState:
    """Parse a shard journal into a :class:`ShardState`; never raises.

    The lease state machine is a pure function of the journal bytes:
    every reader sees the same ``O_APPEND`` total order, so contending
    claimants independently agree on who holds the shard.
    """
    state = ShardState()
    replay_journal(path, state)
    return state


def claim_shard(
    path: "Path | str", worker: str, lease_s: float, now: "float | None" = None
) -> "tuple[ShardJournal, ShardState, str] | None":
    """Try to lease one shard; returns (journal, state, nonce).

    The append-then-reread protocol: replay, append a claim, replay
    again; the claim won iff the re-read grants *our* nonce.  A loser's
    record stays in the journal but is provably never granted, because
    every reader applies the same grant rule to the same byte order.
    The returned state is the re-read: a claimant that stalled between
    its reads sees what holders settled meanwhile, and gives back a
    shard that finished meanwhile instead of running it again.
    """
    now = time.time() if now is None else now
    state = replay_shard_journal(path)
    if state.finished or (state.leased(now) and state.holder != worker):
        return None
    journal = ShardJournal(path)
    nonce = secrets.token_hex(8)
    journal.lease(worker, now, now + lease_s, nonce)
    confirmed = replay_shard_journal(path)
    if confirmed.holder == worker and confirmed.nonce == nonce:
        if not confirmed.finished:
            return journal, confirmed, nonce
        journal.release(worker, nonce)
    journal.close()
    return None


def _replay(plan: ShardPlan, known: "dict[int, ShardState]") -> "dict[int, ShardState]":
    """Every shard's state; shards already seen finished are not re-read."""
    return {
        index: (
            known[index]
            if index in known and known[index].finished
            else replay_shard_journal(shard_journal_path(plan.root, index))
        )
        for index in range(len(plan.shards))
    }


def _release(journal: ShardJournal, worker: str) -> None:
    """Release ``worker``'s lease if it still holds the shard; close."""
    last = replay_shard_journal(journal.path)
    if last.holder == worker:
        journal.release(worker, last.nonce)
    journal.close()


# --------------------------------------------------------------------------
# Worker.


class _ShardAbort(Exception):
    """Internal: a shard budget was breached or the coordinator is gone."""


def _run_one_shard(
    plan: ShardPlan,
    index: int,
    worker: str,
    journal: ShardJournal,
    state: ShardState,
    campaign_journal: "CampaignJournal | None",
) -> None:
    """Execute one leased shard's unsettled jobs, renewing the lease as
    each job starts.

    Settled jobs are never re-run (a ``done`` record counts only while
    its cache entry still verifies); everything else runs through the
    executor's retry loop, after the attempts lost holders spent on it,
    and is committed (cache entry, then journal records) before the next
    job starts.  A holder that overran its lease leaves the shard if
    another worker took it over.  Raises :class:`_ShardAbort` after
    journaling an ``interrupted`` record when the per-shard failure
    budget (distinct failed jobs, including prior holders') is breached,
    and when a worker finds its coordinator gone.
    """
    cache = plan.cache
    budget = _FailureLedger(plan.fleet.shard_max_failures, prior=state.failed)
    journals = (journal,) if campaign_journal is None else (journal, campaign_journal)
    deadline = math.inf
    for _, spec in plan.shard_specs(index):
        fingerprint = spec.fingerprint()
        checksum = state.done.get(fingerprint)
        if checksum is not None and cache.get_verified(spec, checksum) is not None:
            continue
        if fingerprint in state.failed:
            continue
        if worker != DRAIN_WORKER and os.getppid() != plan.coordinator:
            raise _ShardAbort("coordinator gone")
        now = time.time()
        if now >= deadline and replay_shard_journal(journal.path).holder != worker:
            return  # taken over: the new holder finishes the shard
        lost = state.dispatched.get(fingerprint, 0)
        hit = cache.get(spec) if lost else None
        if hit is not None:
            _commit(JobOutcome(spec=spec, status="completed", metrics=hit), None, journals)
            continue
        if budget.breached:
            journal.interrupted(
                f"shard {index} failure budget "
                f"(shard_max_failures={plan.fleet.shard_max_failures}) exhausted",
                len(state.settled()),
            )
            raise _ShardAbort(f"shard {index} aborted")
        if not math.isinf(plan.lease_s):
            deadline = now + plan.lease_s
            journal.lease(worker, now, deadline, secrets.token_hex(8))
        journal.dispatched(spec)
        outcome = run_job(spec, plan.config, lost)
        _commit(outcome, cache, journals)
        if outcome.ok:
            budget.success(fingerprint)
        else:
            budget.failure(fingerprint)
    journal.end(
        completed=len(replay_shard_journal(journal.path).done),
        failed=len(budget.failed),
        skipped=0,
    )


def _pick_claimable(
    plan: ShardPlan, states: "dict[int, ShardState]", now: float
) -> "int | None":
    """The shard a free worker should go for, or ``None``.

    Unleased shards first (lowest index — the deterministic cold-start
    hand-out); otherwise the *straggler policy*: among shards whose
    lease has expired, steal the one with the most unsettled jobs, ties
    to the lowest index.
    """
    unleased = [
        index
        for index, state in states.items()
        if not state.finished and state.holder is None
    ]
    if unleased:
        return min(unleased)
    expired = [index for index, state in states.items() if state.claimable(now)]
    if not expired:
        return None
    remaining = {
        index: len(plan.shards[index]) - len(states[index].settled())
        for index in expired
    }
    return min(expired, key=lambda index: (-remaining[index], index))


def run_shard_worker(plan: ShardPlan, worker: str) -> int:
    """Worker loop: lease, run and steal shards until none remain.

    Without a lease timeout an idle worker has nothing to steal, so it
    exits as soon as no shard is claimable.  Returns a process exit
    code: 0 when done, 3 when the worker stopped because a shard or
    campaign budget aborted the run or its coordinator is gone, 130/143
    on SIGINT/SIGTERM.  A worker always releases the shard it leaves.
    """
    campaign_journal = (
        CampaignJournal(plan.journal, plan.campaign, fsync=False)
        if plan.journal is not None
        else None
    )
    states: "dict[int, ShardState]" = {}
    try:
        with _SignalGuard():
            while os.getppid() == plan.coordinator:
                now = time.time()
                states = _replay(plan, states)
                if all(state.finished for state in states.values()):
                    return 0
                if any(state.interrupted for state in states.values()):
                    return 3
                target = _pick_claimable(plan, states, now)
                if target is None:
                    if math.isinf(plan.lease_s):
                        return 0
                    time.sleep(plan.fleet.poll_s)
                    continue
                claim = claim_shard(
                    shard_journal_path(plan.root, target), worker, plan.lease_s, now
                )
                if claim is None:
                    continue
                journal, state, _ = claim
                try:
                    _run_one_shard(plan, target, worker, journal, state, campaign_journal)
                except _ShardAbort:
                    return 3
                finally:
                    _release(journal, worker)
            return 3
    except (KeyboardInterrupt, SystemExit) as exc:
        code = getattr(exc, "code", None)
        return code if isinstance(code, int) else 130
    finally:
        if campaign_journal is not None:
            campaign_journal.close()


def _worker_main(plan: ShardPlan, worker: str) -> None:
    sys.exit(run_shard_worker(plan, worker))


# --------------------------------------------------------------------------
# Coordinator.


def _start_workers(
    plan: ShardPlan, count: int, workers: "dict[str, BaseProcess]"
) -> None:
    """Fork up to ``count`` workers into ``workers`` (filled as they
    start, so an interrupt never orphans one); fewer, even none, when
    the sandbox forbids new processes — the coordinator then drains
    in-process."""
    import multiprocessing

    for i in range(count):
        name = f"w{i}"
        process = multiprocessing.Process(
            target=_worker_main, args=(plan, name), name=f"repro-{name}"
        )
        try:
            process.start()
        except (OSError, ValueError):
            break
        workers[name] = process


def _stop_workers(
    workers: "dict[str, BaseProcess]", grace_s: float
) -> None:
    """Give workers ``grace_s`` to exit, SIGTERM the rest (hung, or torn
    down on abort), then SIGKILL stragglers."""
    deadline = time.monotonic() + grace_s
    for process in workers.values():
        process.join(max(0.0, deadline - time.monotonic()))
    for process in workers.values():
        if process.exitcode is None:
            process.terminate()
    deadline = time.monotonic() + 5.0
    for process in workers.values():
        process.join(max(0.0, deadline - time.monotonic()))
        if process.exitcode is None:
            process.kill()
            process.join(5.0)


class _Coordinator:
    """The parent side of a fleet run: watches the workers, drains shards
    it must run itself, and settles the pending jobs as shards finish."""

    def __init__(
        self,
        plan: ShardPlan,
        pending: "list[tuple[int, JobSpec]]",
        journal: "CampaignJournal | None",
        progress: CampaignProgress,
        outcomes: "dict[int, JobOutcome]",
        ledger: _FailureLedger,
    ) -> None:
        self.plan = plan
        self.pending = pending
        self.journal = journal
        self.progress = progress
        self.outcomes = outcomes
        self.ledger = ledger
        self.states: "dict[int, ShardState]" = {}
        self.settled: "set[int]" = set()

    def refresh(self) -> None:
        """Re-read the shard journals (finished ones are final)."""
        self.states = _replay(self.plan, self.states)

    def over_budget(self) -> bool:
        """Fold the shard journals' verdicts into the campaign ledger and
        report whether ``max_failures`` is breached."""
        for state in self.states.values():
            for fingerprint in state.failed:
                self.ledger.failure(fingerprint)
            for fingerprint in state.done:
                self.ledger.success(fingerprint)
        return self.ledger.breached

    def release_lost(self, worker: str) -> None:
        """Release every shard the dead ``worker`` still holds."""
        for index, state in self.states.items():
            if state.holder == worker and not state.finished:
                path = shard_journal_path(self.plan.root, index)
                with ShardJournal(path) as journal:
                    journal.release(worker, state.nonce, lost=True)
                self.states[index] = replay_shard_journal(path)

    def watch(
        self, workers: "dict[str, BaseProcess]", on_progress
    ) -> "str | None":
        """Watch the fleet until every shard is finished; returns the
        reason the campaign was aborted, or ``None``.

        Blocks on worker exit (process sentinels) and replays the shard
        journals only when it wakes: at a worker's exit, when a lease is
        due to expire, and every ``poll_s`` while ``max_failures`` needs
        a count or ``on_progress`` a board.  Each wake releases the
        shards of dead workers at once and settles finished shards.  The
        coordinator drains shards in-process when no worker is left, or
        when an expired lease has gone unstolen for two polls (no live
        worker is free to take it).
        """
        from multiprocessing import connection

        plan = self.plan
        board = (
            ShardBoard.from_plan(plan.campaign, [len(shard) for shard in plan.shards])
            if on_progress is not None
            else None
        )
        counting = self.ledger.max_failures is not None
        while True:
            now = time.time()
            self.refresh()
            for name, process in workers.items():
                if process.exitcode is not None:
                    self.release_lost(name)
            if board is not None:
                board.observe(self.states, now)
                on_progress(board)
            self.settle()
            if all(state.finished for state in self.states.values()):
                return None
            if any(state.interrupted for state in self.states.values()):
                return "aborted: a shard journaled an interruption"
            if counting and self.over_budget():
                return self.ledger.abort_message()
            alive = [p.sentinel for p in workers.values() if p.exitcode is None]
            leased = [
                state.deadline
                for state in self.states.values()
                if not state.finished and state.holder is not None
            ]
            if not alive or any(now - deadline > 2 * plan.fleet.poll_s for deadline in leased):
                self.drain()
                continue
            wake = min(leased, default=now + plan.lease_s) + 2 * plan.fleet.poll_s - now
            if counting or board is not None:
                wake = min(wake, plan.fleet.poll_s)
            connection.wait(alive, None if math.isinf(wake) else max(wake, plan.fleet.poll_s))

    def drain(self) -> None:
        """Run every currently-claimable shard in this process.

        Returns early once the campaign-wide failure budget is breached,
        so the caller can abort instead of draining doomed shards.
        """
        for index in range(len(self.plan.shards)):
            if self.ledger.max_failures is not None:
                self.refresh()
                if self.over_budget():
                    return
            claim = claim_shard(
                shard_journal_path(self.plan.root, index), DRAIN_WORKER, self.plan.lease_s
            )
            if claim is None:
                continue
            journal, state, _ = claim
            try:
                _run_one_shard(
                    self.plan, index, DRAIN_WORKER, journal, state, self.journal
                )
            except _ShardAbort:
                return
            finally:
                _release(journal, DRAIN_WORKER)

    def settle(self, final: bool = False, missing: "str | None" = None) -> None:
        """Settle the jobs of every finished shard not settled yet — with
        ``final``, of every shard.

        Every ``done`` payload is read back through the checksum-verified
        cache, so the merge trusts bytes, not processes.  In a final pass,
        jobs without a terminal record (budget aborts) settle as failed
        with ``missing``, or stay unsettled after a signal (``None``).
        """
        for shard, state in self.states.items():
            if shard in self.settled or not (final or state.finished):
                continue
            self.settled.add(shard)
            for local in self.plan.shards[shard]:
                index, spec = self.pending[local]
                fingerprint = spec.fingerprint()
                attempts, duration = state.stats.get(fingerprint, (0, 0.0))
                if fingerprint in state.done:
                    metrics = self.plan.cache.get_verified(spec, state.done[fingerprint])
                    error = "journaled done but the cache entry no longer verifies"
                elif fingerprint in state.failed:
                    metrics, error = None, state.failed[fingerprint]
                elif missing is not None:
                    metrics, error = None, missing
                    if self.journal is not None:
                        self.journal.failed(spec, missing, 0, 0.0)
                else:
                    continue
                outcome = JobOutcome(
                    spec=spec,
                    status="completed" if metrics is not None else "failed",
                    metrics=metrics,
                    error=None if metrics is not None else error,
                    attempts=attempts,
                    duration_s=duration,
                )
                _settle(index, outcome, self.progress, self.outcomes, self.ledger)


def _journal_abort(plan: ShardPlan, reason: str) -> None:
    """Stamp an ``interrupted`` record into every unfinished shard journal
    so a post-mortem sees the abort, not silence."""
    for index in range(len(plan.shards)):
        path = shard_journal_path(plan.root, index)
        state = replay_shard_journal(path)
        if state.finished or state.interrupted:
            continue
        with ShardJournal(path) as journal:
            journal.interrupted(reason, len(state.settled()))


def run_fleet(
    pending: "list[tuple[int, JobSpec]]",
    config: CampaignConfig,
    fleet: ShardConfig,
    cache: "ResultCache | None",
    journal: "CampaignJournal | None",
    campaign: str,
    progress: CampaignProgress,
    outcomes: "dict[int, JobOutcome]",
    ledger: _FailureLedger,
    on_progress=None,
) -> "tuple[int, int, bool]":
    """Run the executor's pending jobs on a forked worker fleet and settle
    each into ``outcomes``; returns (shards, steals, aborted).

    Shard journals live under the campaign's journal directory, replacing
    any left by an earlier run.  A campaign without a cache gets a
    temporary cache and journal root, removed before returning.
    """
    temp = None
    if cache is None or journal is None:
        temp = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
        root = temp / SHARD_SUBDIR
        if cache is None:
            cache = ResultCache(temp / "cache", campaign_seed=config.campaign_seed)
    else:
        root = shard_root(journal.path.parent, campaign)
        shutil.rmtree(root, ignore_errors=True)
    specs = [spec for _, spec in pending]
    plan = ShardPlan(
        specs=tuple(specs),
        shards=tuple(tuple(shard) for shard in partition_shards(specs, fleet.shards)),
        root=root,
        cache=cache,
        journal=journal.path if journal is not None else None,
        campaign=campaign,
        config=config,
        fleet=fleet,
    )
    coordinator = _Coordinator(plan, pending, journal, progress, outcomes, ledger)
    workers: "dict[str, BaseProcess]" = {}
    reason: "str | None" = None
    watched = False  # stays False when a signal or an error cuts the run short
    try:
        root.mkdir(parents=True, exist_ok=True)
        _start_workers(plan, min(fleet.workers, len(plan.shards)), workers)
        reason = coordinator.watch(workers, on_progress)
        watched = True
    finally:
        _stop_workers(workers, 1.0 if watched and reason is None else 0.0)
        if not watched or reason is not None:
            _journal_abort(plan, reason or "interrupted")
        coordinator.refresh()
        coordinator.settle(
            final=True,
            missing=f"never settled ({reason or 'no shard ran it'})" if watched else None,
        )
        if temp is not None:
            cache.close()
            shutil.rmtree(temp, ignore_errors=True)
    steals = sum(state.steals for state in coordinator.states.values())
    return len(plan.shards), steals, reason is not None


def run_sharded_campaign(
    specs: "list[JobSpec] | tuple[JobSpec, ...]",
    config: "CampaignConfig | None" = None,
    shard_config: "ShardConfig | None" = None,
    on_progress=None,
) -> CampaignResult:
    """Run a campaign on an explicitly shaped worker fleet.

    The executor of :func:`~repro.runtime.executor.run_campaign` —
    same pre-pass, retry loop, failure budget, resume and signal path —
    with the shard and worker counts of ``shard_config`` instead of
    ones derived from ``n_jobs``.  ``on_progress`` receives a live
    :class:`~repro.runtime.progress.ShardBoard`.  Requires
    ``config.cache_dir``: the shard journals and results live there.

    Raises:
        ValueError: when ``config.cache_dir`` is unset.
    """
    config = config if config is not None else CampaignConfig()
    if config.cache_dir is None or not config.use_cache:
        raise ValueError(
            "sharded campaigns need cache_dir: workers exchange results "
            "through the checksum-verified cache"
        )
    return _execute(
        specs, config, None, shard_config or ShardConfig(), on_progress
    )


# --------------------------------------------------------------------------
# Deterministic merge manifest.


def results_manifest(result: CampaignResult) -> "dict[str, object]":
    """Canonical, wall-clock-free record of a campaign's *results*.

    Unlike the run manifest (which reports timing, worker counts, cache
    hits — telemetry that legitimately differs run to run), this is a
    pure function of the outcomes: a sharded run, a serial run, a
    resumed run and a warm-cache run of the same campaign all produce
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
        "format": SHARD_FORMAT,
        "campaign": result.manifest.campaign,
        "campaign_seed": result.manifest.campaign_seed,
        "calibration": result.manifest.calibration,
        "total": len(result.outcomes),
        "jobs": jobs,
    }


def write_results_manifest(path: "Path | str", result: CampaignResult) -> Path:
    """Write :func:`results_manifest` as canonical JSON (byte-stable)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(
        results_manifest(result), sort_keys=True, separators=(",", ":")
    )
    target.write_text(payload + "\n", encoding="utf-8")
    return target
