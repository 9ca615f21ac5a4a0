"""Test helper: a side channel recording which processes executed jobs."""

import os

import repro.runtime.executor as executor


def record_job_pids(monkeypatch, path):
    """Make every job execution append its process id to ``path``, also in
    forked fleet workers; returns a function reading back the set of pids."""
    execute = executor.execute_job

    def recording(spec, campaign_seed=0):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return execute(spec, campaign_seed)

    monkeypatch.setattr(executor, "execute_job", recording)

    def pids():
        if not path.exists():
            return set()
        return {int(line) for line in path.read_text(encoding="utf-8").split()}

    return pids
