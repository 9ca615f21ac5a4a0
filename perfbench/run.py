"""Benchmark of the Braidio reproduction stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload city --seed 0 --seconds 38 --trace 0

Workloads (see ``perfbench/README.md``):

* ``city`` — a clustered city deployed through ``run_deployment`` with
  pooled workers (per-hub private-kernel region path);
* ``city-chaos`` — the same city with the ``metro-chaos`` region fault
  plan armed (shared-kernel resilient region path, handoffs);
* ``study`` — regenerating the paper: a cold ``run_campaign`` over the
  grown ``campaign all`` job set, the same campaign warm against its
  cache, then ``export_all``.

Every timed pass is a fresh interpreter (:mod:`passes`), because a user
of the command line pays import and the cold module-level caches on
every run.  With ``--trace 0`` the benchmark repeats timed passes
(pooled on the city workloads, serial on ``study``) for ``--seconds``
seconds, with a fixed host load (:mod:`reference`) run before the first
pass and after each, and reports the medians of the end-to-end metrics
with each pass's times scaled to a nominal host speed by the loads
either side of it (the wall-clock medians are printed and stored
alongside);
with ``--trace 1`` it runs one pooled pass and two pairs of an untraced
and a traced serial pass, and reports the per-layer metrics.  Either way it
checks the program's outputs, writes the full result with a machine
fingerprint under ``.perfbench/results/`` and prints, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from passes import DEFAULT_SEED  # noqa: E402

#: ``manifest_json`` digests of the city workloads at ``DEFAULT_SEED``.
PINNED_DIGESTS = {
    "city": "1cb189735ddc29fe52f8b9b544b442bba001f06ebfbd3dd218bed0f63803d6b0",
    "city-chaos": "f44eb2aabd6bb5bde77d3e2e1bedd84bd3b7186c8fd0024dfe6462e55258004c",
}

MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0
TRACED_PAIRS = 2

#: Nominal time of the host load (``reference.py``) on the tuning host.
#: Timed runs report each pass's set-up and run times scaled by this over
#: the mean of the host loads run just before and just after it, i.e. at
#: a fixed host speed, because the shared host's own speed drifts by
#: tens of percent over minutes.
HOST_NOMINAL_S = 0.4


class Gate:
    """Operations attempted and failed: jobs, output checks, crashes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def absorb(self, result: dict, label: str) -> None:
        """Count one pass's jobs and checks, or its crash."""
        if "error" in result:
            self.check(False, f"{label}: pass failed: {result['error']}")
            return
        self.attempted += result["jobs"] + result["checks"]
        self.failed += result["failed_jobs"] + len(result["mismatches"])
        self.problems.extend(f"{label}: {m}" for m in result["mismatches"][:5])


class Runner:
    """Spawns passes as fresh interpreters inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = root / ".perfbench" / f"tmp-{os.getpid()}"
        self.traces = root / ".perfbench" / "traces"
        self._ids = itertools.count()

    def spawn(self, mode: str) -> dict:
        index = next(self._ids)
        command = [
            sys.executable,
            str(HERE / "passes.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--workdir", str(self.scratch / f"pass-{index}"),
        ]
        if mode == "traced":
            stem = f"{self.workload}-seed{self.seed}-{os.getpid()}-{index}.jsonl"
            command += ["--trace-out", str(self.traces / stem)]
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, ["src", path])),
            TMPDIR=str(self.scratch),
        )
        spawned = time.time()
        process = subprocess.Popen(
            command,
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(process.pid)
            out, err = process.communicate()
            return {"error": f"{mode} pass timed out after {PASS_TIMEOUT_S:.0f}s"}
        finally:
            _kill_group(process.pid)
        if process.returncode != 0:
            tail = " | ".join(err.strip().splitlines()[-3:])
            return {"error": f"{mode} pass exited {process.returncode}: {tail}"}
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["setup_done"] - spawned
        return result

    def host_load(self, workers: int) -> float:
        """Mean time of the reference load run once per worker, in parallel."""
        processes = [
            subprocess.Popen(
                [sys.executable, str(HERE / "reference.py")],
                cwd=self.root,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(workers)
        ]
        times = [float(p.communicate(timeout=PASS_TIMEOUT_S)[0]) for p in processes]
        return sum(times) / len(times)

    def __enter__(self) -> "Runner":
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _kill_group(pid: int) -> None:
    """Stop anything a pass left running in its process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def timed_mode(workload: str) -> str:
    """Mode of the timed passes.  ``study`` runs serial: its pooled cold
    phase keeps two workers and a busy coordinator on the host's two
    cores, and the scheduler's share of that made its times unsteady."""
    return "serial" if workload == "study" else "pooled"


def pass_workers(mode: str) -> int:
    return min(2, os.cpu_count() or 1) if mode == "pooled" else 1


def _median(values) -> float:
    return float(statistics.median(values))


def _check_outputs(gate: Gate, runner: Runner, results: "list[tuple[str, dict]]") -> None:
    """Every pass's output bytes equal the first pass's; on the default
    seed the city manifests also equal their pinned digest."""
    good = [(label, r) for label, r in results if "error" not in r]
    if not good:
        return
    reference_label, reference = good[0]
    for label, result in good[1:]:
        gate.check(
            result["digest"] == reference["digest"],
            f"{label}: output digest differs from {reference_label}",
        )
    pinned = PINNED_DIGESTS.get(runner.workload)
    if pinned is not None and runner.seed == DEFAULT_SEED:
        gate.check(
            reference["digest"] == pinned,
            f"{reference_label}: manifest digest differs from the pinned digest",
        )


def timed_run(runner: Runner, seconds: float, gate: Gate) -> "tuple[dict, dict]":
    """Timed passes for ``seconds`` seconds (after a serial reference
    pass on the city workloads), with the host load run before the first
    pass and after each; medians of the end-to-end metrics, each pass's
    times scaled to the nominal host speed by the loads either side of it."""
    results: "list[tuple[str, dict]]" = []
    mode = timed_mode(runner.workload)
    if mode == "pooled":
        reference = runner.spawn("serial")
        gate.absorb(reference, "serial reference")
        results.append(("serial reference", reference))
    workers = pass_workers(mode)
    passes: "list[dict]" = []
    laps: "list[float]" = []
    host_before = runner.host_load(workers)
    started = time.monotonic()
    while len(passes) < MIN_PASSES or (
        time.monotonic() - started + _median(laps) <= seconds
    ):
        lap = time.monotonic()
        result = runner.spawn(mode)
        host_after = runner.host_load(workers)
        result["host_s"] = (host_before + host_after) / 2.0
        host_before = host_after
        label = f"{mode} pass {len(passes)}"
        gate.absorb(result, label)
        results.append((label, result))
        passes.append(result)
        laps.append(time.monotonic() - lap)
    _check_outputs(gate, runner, results)
    good = [p for p in passes if "error" not in p]
    if not good:
        raise RuntimeError(f"no {mode} pass completed: " + "; ".join(gate.problems[:3]))
    primary = "run_s" if runner.workload != "study" else "cold_s"

    def scaled(p: dict, key: str) -> float:
        return p[key] * HOST_NOMINAL_S / p["host_s"]

    metrics = {
        "setup_s": _median(scaled(p, "setup_s") for p in good),
        "run_s": _median(scaled(p, "run_s") for p in good),
        "throughput_per_s": _median(p["work"] / scaled(p, primary) for p in good),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in good),
    }
    if runner.workload == "study":
        extras = {
            "jobs_per_s": (_median(p["work"] / p["cold_s"] for p in good), "jobs/s"),
            "cached_jobs_per_s": (_median(p["work"] / p["warm_s"] for p in good), "jobs/s"),
            "export_s": (_median(p["export_s"] for p in good), "s"),
        }
    else:
        extras = {
            "device_s_per_s": (_median(p["work"] / p["run_s"] for p in good), "device_s/s"),
            "jobs_per_s": (_median(p["jobs"] / p["campaign_wall_s"] for p in good), "jobs/s"),
        }
    extras["wall_setup_s"] = (_median(p["setup_s"] for p in good), "s")
    extras["wall_run_s"] = (_median(p["run_s"] for p in good), "s")
    extras["host_load_s"] = (_median(p["host_s"] for p in good), "s")
    extras["passes"] = (len(good), "count")
    sampled = ("setup_s", "run_s", "cold_s", "warm_s", "export_s", "peak_rss_mb", "host_s")
    detail = {
        "extras": extras,
        "samples": [{k: p[k] for k in sampled if k in p} for p in good],
    }
    return metrics, detail


def traced_run(runner: Runner, gate: Gate) -> "tuple[dict, dict]":
    """One pooled pass, then pairs of an untraced and a traced serial
    pass; each pair runs back to back, so its ratio sees one host speed."""
    pooled = runner.spawn("pooled")
    pairs = [(runner.spawn("serial"), runner.spawn("traced")) for _ in range(TRACED_PAIRS)]
    results = [("pooled pass", pooled)]
    for index, (serial, traced) in enumerate(pairs):
        results += [(f"serial pass {index}", serial), (f"traced pass {index}", traced)]
    for label, result in results:
        gate.absorb(result, label)
    _check_outputs(gate, runner, results)
    if any("error" in r for _, r in results):
        raise RuntimeError("traced run incomplete: " + "; ".join(gate.problems[:3]))
    traced_passes = [traced for _, traced in pairs]
    for index, result in enumerate(traced_passes):
        calls = result["layers"]["calls"]
        for name in tracing.MUST_FIRE[runner.workload]:
            fired = calls.get(name, 0) > 0
            if not fired:
                print(f"error: wrapper {name} recorded zero calls", file=sys.stderr)
            gate.check(fired, f"traced pass {index}: wrapper {name} recorded zero calls")
    layer_runs = [t["layers"]["metrics"] for t in traced_passes]
    counts = {name: layer_runs[0][name] for name in tracing.EXACT_COUNTS}
    for name in tracing.EXACT_COUNTS:
        gate.check(
            all(run[name] == counts[name] for run in layer_runs),
            f"{name} differs across traced passes: {[run[name] for run in layer_runs]}",
        )
    metrics = {name: _median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["runtime.pool.idle_ratio"] = 1.0 - pooled["busy_s"] / (
        pooled["campaign_wall_s"] * pooled["n_jobs"]
    )
    metrics["trace.overhead_ratio"] = _median(
        traced["run_s"] / serial["run_s"] for serial, traced in pairs
    ) - 1.0
    detail = {
        "exact_counts": counts,
        "slowest_export": traced_passes[0]["layers"]["slowest_export"],
    }
    return metrics, detail


def machine_fingerprint(workers: int) -> dict:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workers": workers,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(tracing.MUST_FIRE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    gate = Gate()
    with Runner(root, args.workload, args.seed) as runner:
        if args.trace:
            values, detail = traced_run(runner, gate)
        else:
            values, detail = timed_run(runner, args.seconds, gate)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")

    fingerprint = machine_fingerprint(
        pass_workers("serial" if args.trace else timed_mode(args.workload))
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed_ratio = gate.failed / gate.attempted if gate.attempted else 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": fingerprint,
        "detail": detail,
        "failed_ratio": failed_ratio,
        "problems": gate.problems,
        "metrics": metrics,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"# machine {json.dumps(fingerprint, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in detail.get("extras", {}).items():
        print(f"#   {name:<36} {value:.6g} {unit}")
    for name in ("exact_counts", "slowest_export"):
        if name in detail:
            print(f"#   {name:<36} {json.dumps(detail[name], sort_keys=True)}")
    print(f"#   {'failed_ratio':<36} {failed_ratio:.6g} ratio ({gate.failed}/{gate.attempted})")
    for problem in gate.problems[:10]:
        print(f"#   problem: {problem}")
    for name, entry in metrics.items():
        print(f"#   {name:<36} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
