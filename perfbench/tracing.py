"""In-memory span tracer and the layer wrappers of the traced pass.

The wrappers live here, outside the program: each one replaces the
attribute a caller resolves at call time (a module global, a package
re-export or a class method) with a function that records a span around
the original.  They are installed only in the serial traced pass, so the
timed passes run the program untouched.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or ``None``); spans stay in memory and are written out
as JSONL when the pass ends.  A layer's self time is the sum over its
spans of the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: Layers, named after the program's packages.
LAYERS = ("runtime", "deploy", "sim", "net", "faults", "batch", "experiments")

#: Wrappers that must record at least one call on each workload; a zero
#: there means a patch missed its caller, not that the layer is free.
MUST_FIRE = {
    "city": (
        "runtime.campaign", "runtime.execute", "runtime.fingerprint",
        "runtime.cache.get", "runtime.cache.put", "runtime.journal",
        "deploy.partition", "deploy.region", "deploy.hub", "deploy.merge",
        "sim.kernel", "net.hub.init", "net.tdma.init",
    ),
    "city-chaos": (
        "runtime.campaign", "runtime.execute", "runtime.fingerprint",
        "runtime.cache.get", "runtime.cache.put", "runtime.journal",
        "deploy.partition", "deploy.region", "deploy.merge",
        "sim.kernel", "net.hub.init", "net.tdma.init",
        "faults.plan", "faults.arm", "faults.summarize",
    ),
    "study": (
        "runtime.campaign", "runtime.execute", "runtime.fingerprint",
        "runtime.cache.get", "runtime.cache.hit", "runtime.cache.put",
        "runtime.journal", "deploy.region", "deploy.hub", "sim.kernel",
        "sim.session", "net.hub.init", "faults.plan", "batch.grid",
        "batch.phy", "experiments.export",
    ),
}

#: Counts that must repeat exactly across passes of the same code and seed.
EXACT_COUNTS = (
    "sim.kernel.events",
    "net.hub.packets",
    "net.tdma.rebuilds",
    "faults.handoffs",
    "runtime.jobs",
    "batch.grid.cells",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: "list[list]" = []
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.exports: "list[tuple[str, float]]" = []
        self._stack: "list[int]" = []
        self._undo: "list[tuple[object, str, object]]" = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        return span[2] - span[1]

    def wrap(self, owner, attr: str, name: str, before=None, observe=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``before(args)`` runs first and its value reaches
        ``observe(args, result, duration, token)`` afterwards."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = self.end(index)
            if observe is not None:
                observe(args, result, duration, token)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def tally(self, owner, attr: str, name: str) -> None:
        """Count calls and busy time of a hot, tiny call without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                counts[name + ".busy_s"] += time.perf_counter() - started
                counts[name + ".calls"] += 1

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark measures."""
    mod = importlib.import_module
    executor = mod("repro.runtime.executor")
    jobs = mod("repro.runtime.jobs")
    cache = mod("repro.runtime.cache")
    journal = mod("repro.runtime.journal")
    campaign = mod("repro.deploy.campaign")
    partition = mod("repro.deploy.partition")
    region = mod("repro.deploy.region")
    faults = mod("repro.faults")
    faults_region = mod("repro.faults.region")
    faults_deploy = mod("repro.faults.deploy")
    simulator = mod("repro.sim.simulator")
    pair_session = mod("repro.sim.session")
    hub_session = mod("repro.net.session")
    tdma = mod("repro.net.tdma")
    batch = mod("repro.batch")
    pipeline = mod("repro.experiments.pipeline")
    counts = tracer.counts

    def settled(args, result, duration, token):
        counts["runtime.jobs"] += len(result.outcomes)
        counts["runtime.retries"] += result.manifest.retries
        counts["runtime.failed"] += result.manifest.failed

    def cache_hit(args, result, duration, token):
        if result is not None:
            counts["runtime.cache.hit"] += 1

    def kernel_events(args, result, duration, token):
        counts["sim.kernel.events"] += args[0].processed_events - token

    def pair_packets(args, result, duration, token):
        counts["sim.session.packets"] += result.packets_attempted

    def handoffs(args, result, duration, token):
        counts["faults.handoffs"] += result["region"]["handoffs"]
        counts["faults.failed_handoffs"] += result["region"]["failed_handoffs"]

    # A hub session ends through ``run`` (own kernel) or ``finish``
    # (shared kernel); count each session's packets once, without
    # keeping it alive.
    ended = weakref.WeakSet()

    def hub_packets(args, result, duration, token):
        if args[0] not in ended:
            ended.add(args[0])
            counts["net.hub.packets"] += result.packets_attempted
            counts["net.hub.delivered"] += result.packets_delivered

    def grid_cells(args, result, duration, token):
        counts["batch.grid.cells"] += result.size

    # The benchmark's own campaigns resolve ``executor.run_campaign``;
    # ``run_deployment`` resolves the name it imported into its module.
    tracer.wrap(executor, "run_campaign", "runtime.campaign", observe=settled)
    tracer.wrap(campaign, "run_campaign", "runtime.campaign", observe=settled)
    tracer.wrap(executor, "execute_job", "runtime.execute")
    tracer.tally(jobs.JobSpec, "fingerprint", "runtime.fingerprint")
    tracer.wrap(cache.ResultCache, "get", "runtime.cache.get", observe=cache_hit)
    tracer.wrap(cache.ResultCache, "put", "runtime.cache.put")
    for method in ("begin", "dispatched", "done", "failed", "interrupted", "end"):
        tracer.wrap(journal.CampaignJournal, method, "runtime.journal")

    tracer.wrap(partition, "partition", "deploy.partition")
    tracer.wrap(campaign, "partition", "deploy.partition")
    tracer.wrap(region, "simulate_region", "deploy.region")
    tracer.wrap(region, "simulate_hub", "deploy.hub")
    tracer.wrap(campaign, "merge_region_reports", "deploy.merge")

    tracer.wrap(faults, "region_fault_plan_for", "faults.plan")
    tracer.wrap(faults_region, "region_fault_plan_for", "faults.plan")
    tracer.wrap(faults_deploy.RegionFaultDriver, "arm", "faults.arm")
    tracer.wrap(region.HandoffCoordinator, "summarize", "faults.summarize", observe=handoffs)

    tracer.wrap(
        simulator.Simulator,
        "run",
        "sim.kernel",
        before=lambda args: args[0].processed_events,
        observe=kernel_events,
    )
    tracer.wrap(pair_session.CommunicationSession, "run", "sim.session", observe=pair_packets)

    tracer.wrap(hub_session.HubSession, "__init__", "net.hub.init")
    tracer.wrap(hub_session.HubSession, "run", "net.hub.run", observe=hub_packets)
    tracer.wrap(hub_session.HubSession, "finish", "net.hub.finish", observe=hub_packets)
    tracer.wrap(tdma.TdmaSchedule, "__init__", "net.tdma.init")
    tracer.wrap(tdma.TdmaSchedule, "without", "net.tdma.without")
    tracer.wrap(tdma.TdmaSchedule, "with_client", "net.tdma.with_client")

    tracer.wrap(batch, "gain_matrix_grid", "batch.grid", observe=grid_cells)
    tracer.wrap(batch, "distance_gain_curve_grid", "batch.grid", observe=grid_cells)
    tracer.wrap(batch, "link_ber", "batch.phy")

    tracer.wrap(
        pipeline,
        "export_experiment",
        "experiments.export",
        observe=lambda args, result, duration, token: tracer.exports.append(
            (str(args[0]), duration)
        ),
    )


def _prefixes(name: str) -> "tuple[str, ...]":
    parts = name.split(".")
    return tuple(".".join(parts[: i + 1]) for i in range(len(parts)))


def summarize(tracer: Tracer) -> "dict[str, object]":
    """Busy time and calls per span-name prefix, layer self times, and
    the per-call samples the layer metrics need.

    A span adds to a prefix's busy time only when no enclosing span
    already carries that prefix, so re-entrant layers are not counted
    twice.
    """
    spans = tracer.spans
    busy: "defaultdict[str, float]" = defaultdict(float)
    calls: "defaultdict[str, int]" = defaultdict(int)
    child_time = [0.0] * len(spans)
    open_prefixes: "list[frozenset[str]]" = []
    regions: "list[float]" = []
    kernel_in_hub = 0.0
    for name, start, end, parent in spans:
        duration = end - start
        inherited = open_prefixes[parent] if parent is not None else frozenset()
        own = _prefixes(name)
        for prefix in own:
            if prefix not in inherited:
                busy[prefix] += duration
                calls[prefix] += 1
        open_prefixes.append(inherited | frozenset(own))
        if parent is not None:
            child_time[parent] += duration
        if name == "deploy.region" and "deploy.region" not in inherited:
            regions.append(duration)
        if name == "sim.kernel" and "deploy.hub" in inherited and "sim.kernel" not in inherited:
            kernel_in_hub += duration
    self_time = dict.fromkeys(LAYERS, 0.0)
    for index, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_time[layer] += (end - start) - child_time[index]
    calls["runtime.fingerprint"] += int(tracer.counts["runtime.fingerprint.calls"])
    busy["runtime.fingerprint"] += tracer.counts["runtime.fingerprint.busy_s"]
    return {
        "busy": dict(busy),
        "calls": dict(calls),
        "self": self_time,
        "regions": regions,
        "kernel_in_hub": kernel_in_hub,
    }


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def layer_metrics(tracer: Tracer, cache_bytes: int, export_files: int) -> "dict[str, object]":
    """The per-layer metrics of one traced pass (those that need the
    untraced passes are filled in by the caller), the calls per wrapper,
    and the id of the slowest export."""
    summary = summarize(tracer)
    busy, calls = summary["busy"], summary["calls"]
    counts = tracer.counts
    b = lambda name: float(busy.get(name, 0.0))  # noqa: E731
    c = lambda name: int(calls.get(name, 0))  # noqa: E731
    jobs = int(counts["runtime.jobs"])
    regions = summary["regions"]
    packets = int(counts["net.hub.packets"])
    handoffs = int(counts["faults.handoffs"])
    failed_handoffs = int(counts["faults.failed_handoffs"])
    exports = sorted(tracer.exports, key=lambda item: item[1])
    metrics = {
        "runtime.jobs": jobs,
        "runtime.execute.busy_s": b("runtime.execute"),
        "runtime.retries": int(counts["runtime.retries"]),
        "runtime.failed": int(counts["runtime.failed"]),
        "runtime.overhead_per_job_ms": _ratio(
            b("runtime.campaign") - b("runtime.execute"), jobs
        ) * 1e3,
        "runtime.fingerprint.calls_per_job": _ratio(c("runtime.fingerprint"), jobs),
        "runtime.fingerprint.busy_s": b("runtime.fingerprint"),
        "runtime.cache.put.calls": c("runtime.cache.put"),
        "runtime.cache.put.busy_s": b("runtime.cache.put"),
        "runtime.cache.bytes": int(cache_bytes),
        "runtime.journal.records": c("runtime.journal"),
        "runtime.journal.busy_s": b("runtime.journal"),
        "runtime.cache.get.calls": c("runtime.cache.get"),
        "runtime.cache.get.busy_s": b("runtime.cache.get"),
        "runtime.cache.hit_ratio": _ratio(counts["runtime.cache.hit"], c("runtime.cache.get")),
        "deploy.partition.busy_s": b("deploy.partition"),
        "deploy.region.calls": c("deploy.region"),
        "deploy.region.busy_s": b("deploy.region"),
        "deploy.region.p50_s": statistics.median(regions) if regions else 0.0,
        "deploy.region.max_s": max(regions, default=0.0),
        "deploy.hub.calls": c("deploy.hub"),
        "deploy.hub.busy_s": b("deploy.hub"),
        "deploy.hub.build_s": b("deploy.hub") - summary["kernel_in_hub"],
        "deploy.merge.busy_s": b("deploy.merge"),
        "faults.plan.busy_s": b("faults.plan"),
        "faults.handoffs": handoffs,
        "faults.failed_handoffs": failed_handoffs,
        "faults.handoff_success_ratio": _ratio(
            handoffs, handoffs + failed_handoffs, empty=1.0
        ),
        "sim.kernel.runs": c("sim.kernel"),
        "sim.kernel.busy_s": b("sim.kernel"),
        "sim.kernel.events": int(counts["sim.kernel.events"]),
        "sim.kernel.events_per_s": _ratio(counts["sim.kernel.events"], b("sim.kernel")),
        "sim.session.runs": c("sim.session"),
        "sim.session.busy_s": b("sim.session"),
        "sim.session.packets_per_s": _ratio(counts["sim.session.packets"], b("sim.session")),
        "net.hub.packets": packets,
        "net.hub.packets_per_s": _ratio(packets, b("sim.kernel")),
        "net.hub.delivery_ratio": _ratio(counts["net.hub.delivered"], packets, empty=1.0),
        "net.tdma.rebuilds": c("net.tdma.init"),
        "net.tdma.busy_s": b("net.tdma"),
        "batch.grid.calls": c("batch.grid"),
        "batch.grid.cells": int(counts["batch.grid.cells"]),
        "batch.grid.cells_per_s": _ratio(counts["batch.grid.cells"], b("batch.grid")),
        "batch.phy.busy_s": b("batch.phy"),
        "experiments.export.files": export_files,
        "experiments.export.busy_s": b("experiments.export"),
        "experiments.export.max_s": exports[-1][1] if exports else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = float(summary["self"][layer])
    return {
        "metrics": metrics,
        "calls": {**calls, "runtime.cache.hit": int(counts["runtime.cache.hit"])},
        "slowest_export": exports[-1][0] if exports else None,
    }
