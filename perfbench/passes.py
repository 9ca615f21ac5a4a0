"""One pass of one benchmark workload, in a fresh interpreter.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/passes.py --workload city --seed 0 \\
        --mode pooled --workdir .perfbench/work/x

``--mode`` is ``pooled`` (``n_jobs = min(2, nproc)``, untraced),
``serial`` (``n_jobs = 1``, untraced) or ``traced`` (``n_jobs = 1`` with
the layer wrappers of :mod:`tracing` installed).  The pass prints one
JSON object on its last stdout line: the wall-clock instant set-up ended
(so the caller can time set-up from process spawn), the timed phases,
the digest of the program's output and the result of its output checks.

Every pass drives only public entry points with the configuration a user
would pass: ``run_deployment`` (with ``region_fault_plan_for`` when
armed), ``run_campaign`` over the public spec builders, and
``export_all``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing

#: The workload seed whose city manifests are pinned below.
DEFAULT_SEED = 0

#: City size: 4 blocks of 4 hubs with 100 devices each, light churn, no
#: fleet LP, 1 s warmup and a 3 s measured window (short passes, so a
#: run holds many of them and its median shrugs off host noise).
CITY_CLUSTERS = 4
CITY_DEVICES_PER_HUB = 100
CITY_WARMUP_S = 1.0
CITY_DURATION_S = 3.0

#: Region fault profile armed on ``city-chaos``.
CHAOS_PROFILE = "metro-chaos"

#: Extra gain-matrix distances (drawn from the seed) that grow the
#: ``campaign all`` job set of ``study`` so each phase is long enough to
#: time steadily: 3 matrix kinds x 100 cells per distance.
STUDY_EXTRA_DISTANCES = 4
STUDY_DISTANCE_RANGE_M = (0.15, 3.0)

GOLDENS = Path("tests/analysis/goldens/export_all.sha256")


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def city_pass(seed: int, n_jobs: int, workdir: Path, armed: bool) -> dict:
    """Build the city (and its fault plan), then deploy it once."""
    import repro.faults as faults
    from repro.deploy.campaign import manifest_json, region_job_specs, run_deployment
    from repro.deploy.scenarios import city_scenario
    from repro.runtime import CampaignConfig

    partition = importlib.import_module("repro.deploy.partition")
    spec = city_scenario(
        "bench-city",
        n_clusters=CITY_CLUSTERS,
        devices_per_hub=CITY_DEVICES_PER_HUB,
        warmup_s=CITY_WARMUP_S,
        duration_s=CITY_DURATION_S,
        lp_plan=False,
        seed=seed,
    )
    plan = faults.region_fault_plan_for(CHAOS_PROFILE, spec) if armed else None
    for job in region_job_specs(spec, partition.partition(spec), fault_plan=plan):
        job.fingerprint()
    cache_dir = workdir / "cache"
    config = CampaignConfig(n_jobs=n_jobs, cache_dir=cache_dir)
    setup_done = time.time()

    started = time.perf_counter()
    run = run_deployment(spec, config, fault_plan=plan)
    run_s = time.perf_counter() - started

    manifest = manifest_json(run.manifest)
    outcomes = run.campaign.outcomes
    return {
        "setup_done": setup_done,
        "run_s": run_s,
        "work": spec.device_count * spec.horizon_s,
        "jobs": len(outcomes),
        "failed_jobs": len(run.campaign.failures),
        "campaign_wall_s": run.campaign.manifest.wall_time_s,
        "busy_s": sum(o.duration_s for o in outcomes),
        "digest": hashlib.sha256(manifest.encode("utf-8")).hexdigest(),
        "checks": 0,
        "mismatches": [],
        "cache_bytes": _tree_bytes(cache_dir),
    }


def study_specs(seed: int) -> list:
    """``campaign all`` plus whole gain matrices at seeded distances."""
    import numpy as np

    from repro.experiments import campaignable_ids
    from repro.runtime import campaign_specs, gain_matrix_specs

    rng = np.random.default_rng(seed)
    low, high = STUDY_DISTANCE_RANGE_M
    distances = np.round(np.sort(rng.uniform(low, high, STUDY_EXTRA_DISTANCES)), 3)
    specs = [job for experiment in campaignable_ids() for job in campaign_specs(experiment)]
    for distance in distances:
        for kind in ("gain.bluetooth", "gain.best_mode", "gain.bidirectional"):
            specs.extend(gain_matrix_specs(kind, distance_m=float(distance)))
    return list(dict.fromkeys(specs))


def study_pass(seed: int, n_jobs: int, workdir: Path) -> dict:
    """Cold campaign, the same campaign warm, then ``export_all``."""
    from repro.experiments import export_all
    from repro.runtime import CampaignConfig

    executor = importlib.import_module("repro.runtime.executor")
    specs = study_specs(seed)
    for job in specs:
        job.fingerprint()
    cache_dir = workdir / "cache"
    config = CampaignConfig(n_jobs=n_jobs, cache_dir=cache_dir, campaign_seed=seed)
    setup_done = time.time()

    started = time.perf_counter()
    cold = executor.run_campaign(specs, config)
    cold_done = time.perf_counter()
    warm = executor.run_campaign(specs, config)
    warm_done = time.perf_counter()
    out = workdir / "export"
    export_all(out)
    export_done = time.perf_counter()

    mismatches = []
    cold_texts = [_canonical(o.metrics) for o in cold.outcomes]
    for index, (a, b) in enumerate(zip(cold.outcomes, warm.outcomes)):
        if a.status != "completed" or b.status != "cached":
            mismatches.append(f"job {index}: statuses {a.status}/{b.status}")
        elif cold_texts[index] != _canonical(b.metrics):
            mismatches.append(f"job {index}: warm metrics differ from cold")
    expected = {
        name: sha for sha, name in (line.split() for line in GOLDENS.read_text().splitlines())
    }
    produced = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    for name in sorted(set(expected) | set(produced)):
        if expected.get(name) != produced.get(name):
            mismatches.append(f"export {name}: does not match the golden")
    digest = hashlib.sha256()
    for text in cold_texts:
        digest.update(text.encode("utf-8"))
    digest.update(_canonical(produced).encode("utf-8"))
    cache_bytes = _tree_bytes(cache_dir)
    return {
        "setup_done": setup_done,
        "run_s": export_done - started,
        "work": len(specs),
        "cold_s": cold_done - started,
        "warm_s": warm_done - cold_done,
        "export_s": export_done - warm_done,
        "jobs": len(cold.outcomes) + len(warm.outcomes),
        "failed_jobs": len(cold.failures) + len(warm.failures),
        "campaign_wall_s": cold.manifest.wall_time_s,
        "busy_s": sum(o.duration_s for o in cold.outcomes),
        "digest": digest.hexdigest(),
        "checks": len(cold.outcomes) + len(expected),
        "mismatches": mismatches,
        "cache_bytes": cache_bytes,
        "export_files": len(produced),
    }


def _reap_children(timeout_s: float = 10.0) -> None:
    """Wait until every worker process this pass started has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(tracing.MUST_FIRE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("pooled", "serial", "traced"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    n_jobs = min(2, os.cpu_count() or 1) if args.mode == "pooled" else 1
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        tracing.install(tracer)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "study":
            result = study_pass(args.seed, n_jobs, args.workdir)
        else:
            result = city_pass(
                args.seed, n_jobs, args.workdir, armed=args.workload == "city-chaos"
            )
    finally:
        _reap_children()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(args.workdir, ignore_errors=True)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    result["n_jobs"] = n_jobs
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer, result["cache_bytes"], result.get("export_files", 0)
        )
        if args.trace_out is not None:
            tracer.write_jsonl(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
