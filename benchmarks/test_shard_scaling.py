"""Performance bench: campaign workers-vs-wall-clock scaling.

Not a paper figure — this times the same Monte-Carlo BER campaign at
``n_jobs=1`` (in-process) and ``n_jobs=4`` (the worker fleet), and
gates on the parallel efficiency the fleet was built for: four workers
must finish at least 2.5x faster than one. The merged results manifests
must also be byte-identical, so the speedup is provably not changing a
single bit of science.

Set SHARD_SCALING_JSON to a path to dump the measurements (CI uploads it
as an artifact so scaling regressions are visible across runs).
"""

import json
import os
import time

import pytest

from repro.runtime import CampaignConfig, run_campaign, write_results_manifest
from repro.runtime.jobs import JobSpec

N_JOBS = 16
N_BITS = 3_000_000  # ~0.9 s per job: serial ~15 s, 4 workers ~4 s
SPEEDUP_GATE = 2.5


def _specs():
    return [
        JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "6.0", "n_bits": str(N_BITS)}, seed=i
        )
        for i in range(N_JOBS)
    ]


def _timed_run(tmp_path, workers):
    config = CampaignConfig(
        n_jobs=workers, cache_dir=tmp_path / f"cache-{workers}w", campaign_seed=3
    )
    started = time.perf_counter()
    result = run_campaign(_specs(), config)
    elapsed = time.perf_counter() - started
    assert all(o.status == "completed" for o in result.outcomes)
    manifest = write_results_manifest(
        tmp_path / f"results-{workers}w.json", result
    )
    return elapsed, manifest, result


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup gate needs at least 4 CPUs",
)
def test_performance_shard_worker_scaling(tmp_path):
    serial_s, serial_manifest, _ = _timed_run(tmp_path, workers=1)
    parallel_s, parallel_manifest, result = _timed_run(tmp_path, workers=4)
    speedup = serial_s / parallel_s

    print(f"\ncampaign worker scaling ({N_JOBS} jobs x {N_BITS:,} bits):")
    print(f"  1 worker : {serial_s:7.2f}s")
    print(f"  4 workers: {parallel_s:7.2f}s  ({speedup:.2f}x)")

    # Identical science first: the merged manifest is byte-for-byte the
    # same regardless of worker count.
    assert serial_manifest.read_bytes() == parallel_manifest.read_bytes()

    # The acceptance gate: four workers at least 2.5x faster than one.
    assert speedup >= SPEEDUP_GATE, (
        f"4-worker speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate "
        f"({serial_s:.2f}s -> {parallel_s:.2f}s)"
    )

    artifact = os.environ.get("SHARD_SCALING_JSON")
    if artifact:
        payload = {
            "jobs": N_JOBS,
            "n_bits": N_BITS,
            "gate": SPEEDUP_GATE,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(speedup, 3),
            "n_jobs": result.manifest.n_jobs,
        }
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  wrote scaling data to {artifact}")
