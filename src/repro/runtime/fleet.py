"""The worker fleet: a coordinator dispatching campaign jobs over pipes.

Every campaign with ``n_jobs > 1`` runs here, after the executor's
pre-pass has settled what it can.  The coordinator forks ``min(n_jobs,
pending)`` workers and deals them the pending jobs in submission order,
each as (job index, lost attempts) over the worker's pipe.  A worker
runs each job through the executor's retry loop, commits it — the
result to its own cache segment, then its ``done``/``failed`` record to
the campaign journal, without fsync — and replies with the outcome,
metrics included.  The coordinator blocks on the pipes and the workers'
process sentinels, waking otherwise only at the nearest ``timeout_s``
deadline of a running job.  It settles each reply and checks the
failure ledger at once.  A worker that dies mid-job, or is killed for
overrunning the job's deadline, costs that job one attempt: the job is
re-dispatched — or settles ``presumed hung`` once its lost attempts
exceed ``max_retries`` — and a replacement worker is forked.

What the fleet leaves unsettled runs on the executor's serial path:
everything when no worker can start, the queue when none is left, and —
with the ledger breached — every unsettled job, which that path aborts.
Results are content-seeded, so which worker ran a job never changes a
byte of it (DESIGN.md §10).
"""

from __future__ import annotations

import math
import multiprocessing
import select
import time
from collections import deque
from typing import TYPE_CHECKING

from .executor import JobOutcome, _commit, _run_serial, _settle, run_job
from .journal import CampaignJournal

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from .cache import ResultCache
    from .executor import CampaignConfig, _FailureLedger
    from .jobs import JobSpec
    from .progress import CampaignProgress

#: Jobs a worker holds at most: the running one and the next, queued in
#: its pipe so that it never waits a round trip between short jobs.
QUEUE_DEPTH = 2

#: Seconds idle workers get to exit once their pipes end, and stopped
#: workers to exit after SIGTERM before SIGKILL.
EXIT_GRACE_S = 1.0
KILL_GRACE_S = 5.0


def _serve(
    conn: "Connection",
    inherited: "list[Connection]",
    pending: "list[tuple[int, JobSpec]]",
    config: "CampaignConfig",
    cache: "ResultCache | None",
    journal: "CampaignJournal | None",
) -> None:
    """Worker loop: run each job the coordinator sends until its pipe ends.

    ``inherited`` are the coordinator's pipe ends the fork copied into
    this worker, its own included; closing them leaves the coordinator as
    the only holder, so every worker sees the pipe end when it dies.
    """
    for end in inherited:
        end.close()
    journals = (
        (CampaignJournal(journal.path, journal.campaign, fsync=False),)
        if journal is not None
        else ()
    )
    try:
        while True:
            position, lost = conn.recv()
            outcome = run_job(pending[position][1], config, lost)
            _commit(outcome, cache, journals)
            conn.send(
                (position, outcome.status, outcome.metrics, outcome.error,
                 outcome.attempts, outcome.duration_s)
            )
    except (EOFError, ConnectionError, KeyboardInterrupt, SystemExit):
        pass  # the coordinator is gone, or is stopping the fleet


class _Worker:
    """One forked worker: the (position, lost attempts) jobs sent to it,
    running one first, and the monotonic deadline of the running one."""

    def __init__(self, process: "BaseProcess", conn: "Connection") -> None:
        self.process = process
        self.conn = conn
        self.jobs: "deque[tuple[int, int]]" = deque()
        self.deadline = math.inf


class _Coordinator:
    """The parent side of a fleet run."""

    def __init__(
        self,
        pending: "list[tuple[int, JobSpec]]",
        config: "CampaignConfig",
        cache: "ResultCache | None",
        journal: "CampaignJournal | None",
        progress: "CampaignProgress",
        outcomes: "dict[int, JobOutcome]",
        ledger: "_FailureLedger",
        on_progress,
    ) -> None:
        self.pending = pending
        self.config = config
        self.cache = cache
        self.journal = journal
        self.progress = progress
        self.outcomes = outcomes
        self.ledger = ledger
        self.on_progress = on_progress
        self.timeout_s = config.timeout_s if config.timeout_s is not None else math.inf
        self.queue: "deque[tuple[int, int]]" = deque(
            (position, 0) for position in range(len(pending))
        )
        self.workers: "list[_Worker]" = []
        self.poller = select.poll()  # every worker's pipe end and sentinel

    def start(self) -> bool:
        """Fork one worker; ``False`` when the host refuses a process."""
        ours, theirs = multiprocessing.Pipe()
        inherited = [worker.conn for worker in self.workers] + [ours]
        process = multiprocessing.Process(
            target=_serve,
            args=(theirs, inherited, self.pending, self.config, self.cache, self.journal),
            name=f"repro-worker-{len(self.workers)}",
        )
        try:
            process.start()
        except (OSError, ValueError):
            ours.close()
            return False
        finally:
            theirs.close()
        self.workers.append(_Worker(process, ours))
        self.poller.register(ours.fileno(), select.POLLIN)
        self.poller.register(process.sentinel, select.POLLIN)
        return True

    @property
    def running(self) -> bool:
        """Whether the fleet still has work it can do."""
        busy = any(worker.jobs for worker in self.workers)
        return bool(self.workers) and (busy or bool(self.queue)) and not self.ledger.breached

    def settle(self, position: int, outcome: JobOutcome) -> None:
        _settle(self.pending[position][0], outcome, self.progress, self.outcomes, self.ledger)
        if self.on_progress is not None:
            self.on_progress(self.progress)

    def dispatch(self) -> None:
        """Hand the head of the queue to every idle worker; then, while the
        queue holds more jobs than there are workers, queue each worker's
        next job behind its running one.  Near the end, a job goes to
        whichever worker is idle first.  A send to a worker that died
        fails; its sentinel reports the death."""
        for depth in range(1, QUEUE_DEPTH + 1):
            floor = len(self.workers) if depth > 1 else 0
            for worker in self.workers:
                if len(worker.jobs) < depth and len(self.queue) > floor:
                    if not worker.jobs:
                        worker.deadline = time.monotonic() + self.timeout_s
                    job = self.queue.popleft()
                    worker.jobs.append(job)
                    try:
                        worker.conn.send(job)
                    except OSError:
                        pass

    def wait(self) -> None:
        """Block until a reply, a death or the nearest deadline, then
        account for whatever happened."""
        deadline = min((w.deadline for w in self.workers if w.jobs), default=math.inf)
        timeout_ms = None
        if not math.isinf(deadline):  # poll takes at most a C int of milliseconds
            timeout_ms = min(max(0, math.ceil((deadline - time.monotonic()) * 1e3)), 2**31 - 1)
        ready = {fd for fd, _ in self.poller.poll(timeout_ms)}
        now = time.monotonic()
        for worker in list(self.workers):
            if self.ledger.breached:
                return
            if worker.process.sentinel in ready:
                self.lose(worker)
            elif worker.conn.fileno() in ready:
                try:
                    self.reply(worker, worker.conn.recv())
                except (EOFError, OSError):
                    self.lose(worker)
            elif worker.jobs and worker.deadline <= now:
                worker.process.kill()  # overran its job's deadline: presumed hung
                self.lose(worker)

    def reply(self, worker: _Worker, message: tuple) -> None:
        """Settle the running job a worker replied for; its next starts."""
        position, status, metrics, error, attempts, duration = message
        worker.jobs.popleft()
        worker.deadline = time.monotonic() + self.timeout_s
        self.settle(
            position,
            JobOutcome(
                spec=self.pending[position][1], status=status, metrics=metrics,
                error=error, attempts=attempts, duration_s=duration,
            ),
        )

    def lose(self, worker: _Worker) -> None:
        """Settle the replies a dead worker sent, then reap it.  Its queued
        job never started and goes back to the head of the queue as it
        was; its running job lost an attempt and goes before it — or
        settles ``presumed hung`` once the lost attempts exceed
        ``max_retries`` — and a replacement is forked."""
        try:
            while worker.conn.poll():
                self.reply(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        worker.process.kill()
        worker.process.join()
        self.poller.unregister(worker.conn.fileno())
        self.poller.unregister(worker.process.sentinel)
        worker.conn.close()
        self.workers.remove(worker)
        if not worker.jobs:
            return
        (position, lost), *queued = worker.jobs
        self.queue.extendleft(reversed(queued))
        if lost + 1 > self.config.max_retries:
            # run_job does not execute a job whose lost attempts already
            # spend its budget; it reports it presumed hung.
            outcome = run_job(self.pending[position][1], self.config, lost + 1)
            _commit(outcome, None, (self.journal,) if self.journal is not None else ())
            self.settle(position, outcome)
        else:
            self.queue.appendleft((position, lost + 1))
        if self.queue and not self.ledger.breached:
            self.start()

    def stop(self, grace_s: float) -> None:
        """End the pipes (idle workers exit), give workers ``grace_s`` to
        leave, SIGTERM the rest, then SIGKILL stragglers."""
        for worker in self.workers:
            worker.conn.close()
        deadline = time.monotonic() + grace_s
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.exitcode is None:
                worker.process.terminate()
        deadline = time.monotonic() + KILL_GRACE_S
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()


def run_fleet(
    pending: "list[tuple[int, JobSpec]]",
    config: "CampaignConfig",
    cache: "ResultCache | None",
    journal: "CampaignJournal | None",
    progress: "CampaignProgress",
    outcomes: "dict[int, JobOutcome]",
    ledger: "_FailureLedger",
    on_progress=None,
) -> None:
    """Run the executor's pending jobs on ``config.n_jobs`` forked workers
    and settle each into ``outcomes``; ``on_progress`` gets ``progress``
    after each settle.  A signal stops the fleet and propagates."""
    fleet = _Coordinator(
        pending, config, cache, journal, progress, outcomes, ledger, on_progress
    )
    finished = False
    try:
        for _ in range(min(config.n_jobs, len(pending))):
            if not fleet.start():
                break
        while fleet.running:
            fleet.dispatch()
            fleet.wait()
        finished = True
    finally:
        fleet.stop(EXIT_GRACE_S if finished and not ledger.breached else 0.0)
    # The unsettled jobs, in submission order, with the attempts they lost.
    lost = {pending[position][0]: spent for position, spent in fleet.queue}
    rest = [(index, spec) for index, spec in pending if index not in outcomes]
    _run_serial(rest, config, cache, progress, outcomes, journal, ledger, lost)
