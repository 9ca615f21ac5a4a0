"""Command-line runner: regenerate any of the paper's tables/figures.

Usage::

    python -m repro list                 # registry capability table
    python -m repro show fig15           # print a figure's rows
    python -m repro export fig13 out/    # write one experiment's CSV
    python -m repro export all out/      # write every experiment's CSV
    python -m repro export all out/ --cache-dir .cache/  # cache deploy regions
    python -m repro campaign fig15 fig18 --jobs 4   # engine-only run
    python -m repro campaign all --cache-dir .cache --resume  # crash-safe continuation
    python -m repro campaign mc-ber --cache-dir .cache \
        --jobs 4 --lease-s 10                       # 4 workers, 10 s job timeout
    python -m repro profile fig18 --top 30          # cProfile an experiment
    python -m repro profile sweep-gain-matrix       # cProfile a sweep
    python -m repro deploy --list                   # scenario catalog
    python -m repro deploy city-10k --jobs 8 --cache-dir .cache \
        --manifest out/city.json --csv out/city.csv # city-scale deployment
    python -m repro energy braidio-arq              # ledger breakdown table
    python -m repro faults chaos                    # chaos run + recovery table

Every subcommand is driven by the declarative experiment registry
(:mod:`repro.experiments`): argparse choices, the ``list`` table, the
``show``/``export``/``profile`` dispatch and the ``campaign``
decompositions all come from the registered
:class:`~repro.experiments.registry.ExperimentDef` entries, so adding an
experiment is one registration (DESIGN.md §13).  Each subcommand
registers its one handler with ``set_defaults(run=...)``; ``main``
parses and calls it.

``--cache-dir`` drives the campaign engine's result cache
(:mod:`repro.runtime`): completed jobs are cached on disk keyed by
content fingerprint + calibration version, so a warm re-run skips all
simulation (verifiable from the printed run manifest's ``cached``
count); without it nothing is cached.  ``campaign`` and ``deploy``
share the engine flags: ``--cache-dir``, ``--resume``, ``--jobs``, the
worker processes their jobs fan across (the only setting that shapes
the fleet), and ``--lease-s``, the job timeout.  ``export`` computes
the gain sweeps with the batch engine; only its two deploy exporters
run engine jobs, which a cache keeps.  Cached campaigns also keep a
write-ahead journal, so a killed sweep continues with ``campaign ...
--resume`` (bit-identical results; see DESIGN.md §10), and
``--max-failures N`` turns a failure storm into an early, non-zero-exit
abort.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable


def _number(convert: "type[int] | type[float]", noun: str, minimum: int, above: bool = False):
    """An argparse ``type=`` accepting ``convert(value)`` when it is at
    least ``minimum`` (greater, with ``above``) and, for floats, finite;
    anything else exits 2 naming the flag."""
    finite = convert is float
    bound = ("finite and " if finite else "") + (">" if above else ">=") + f" {minimum}"

    def parse(value: str):
        try:
            number = convert(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {value!r}")
        if (
            (finite and not math.isfinite(number))
            or number < minimum
            or (above and number == minimum)
        ):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return number

    return parse


_positive_int = _number(int, "an integer", 1)
#: The type of every ``--seed``: numpy seed sequences reject negatives.
_seed = _number(int, "an integer", 0)


def _one_of(noun: str, names: "Callable[[], Iterable[str]]", extra: "str | None" = None):
    """An argparse ``type=`` accepting a registered name (``names()``,
    looked up only when a value is parsed) or ``extra``: anything else
    exits 2 listing the choices, instead of failing mid-run."""

    def parse(value: str) -> str:
        known = tuple(names())
        if value in known or value == extra:
            return value
        choices = ", ".join(known) + (f", or {extra!r}" if extra else "")
        raise argparse.ArgumentTypeError(f"unknown {noun} {value!r} (choose from {choices})")

    return parse


def _fault_profiles() -> "tuple[str, ...]":
    from .faults import REGION_FAULT_PROFILES

    return REGION_FAULT_PROFILES


def _engine_config(args: argparse.Namespace, seed: int, max_failures: "int | None" = None):
    """The ``campaign``/``deploy`` engine config from their shared flags
    (``--jobs`` capped at the CPU count, with a warning), or ``None``
    after one ``error:`` line: the flag types check every other key, so
    the config refuses only ``--resume`` without a cache."""
    from .runtime import CampaignConfig

    cpus = os.cpu_count() or 1
    if args.jobs > cpus:
        print(
            f"warning: --jobs {args.jobs} exceeds the {cpus} available CPUs; "
            f"capping at {cpus}",
            file=sys.stderr,
        )
    try:
        return CampaignConfig(
            n_jobs=min(args.jobs, cpus),
            cache_dir=args.cache_dir,
            campaign_seed=seed,
            resume=args.resume,
            max_failures=max_failures,
            timeout_s=args.lease_s,
        )
    except ValueError:
        print(
            "error: --resume needs --cache-dir (the journal and the results "
            "being resumed live there)",
            file=sys.stderr,
        )
        return None


def _make_output_dirs(outputs: "dict[str, Path | None]") -> bool:
    """Create each output file's directory before any work starts, so a
    long run is not lost to an unwritable path at the end; report the
    first path that is a directory, or whose directory cannot be
    created, as one ``error:`` line."""
    for flag, path in outputs.items():
        if path is None:
            continue
        if path.is_dir():
            print(f"error: {flag} {path} is a directory, not a file", file=sys.stderr)
            return False
        if not _make_dir(path.parent, f"{flag} {path}"):
            return False
    return True


def _make_dir(directory: Path, purpose: str) -> bool:
    """Create ``directory`` and its parents, or print one ``error:`` line
    naming it and what it was for."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        print(
            f"error: cannot create directory '{directory}' for {purpose}: "
            f"{error.strerror}",
            file=sys.stderr,
        )
        return False
    return True


def _write_merged_manifest(path: "Path | None", report: Callable) -> None:
    """Merge the manifests of the campaigns just run, ``report`` the
    merged one, and persist it (with per-run resume lineage) to ``path``
    when one is given; nothing happens when no campaign ran."""
    from .runtime import drain_manifests
    from .runtime.progress import write_campaign_manifest

    merged = write_campaign_manifest(path, drain_manifests())
    if merged is None:
        return
    report(merged)
    if path is not None:
        print(f"manifest written to {path}", file=sys.stderr)


def _print_engine_summary(merged) -> None:
    resumed = f", {merged.resumed} resumed" if merged.resumed else ""
    print(
        f"campaign engine: {merged.total} jobs "
        f"({merged.completed} run, {merged.cached} cached, "
        f"{merged.failed} failed{resumed}) in {merged.wall_time_s:.2f}s",
        file=sys.stderr,
    )


def _progress_printer():
    """A fleet ``on_progress`` that prints the settled count to stderr,
    at most once a second, for interactive runs."""
    import time

    last = [0.0]

    def on_progress(progress) -> None:
        now = time.monotonic()
        if now - last[0] >= 1.0:
            last[0] = now
            print(
                f"{progress.settled}/{progress.total} settled "
                f"({progress.failed} failed) in {progress.elapsed_s():.1f}s",
                file=sys.stderr,
            )

    return on_progress


def _list_command(args: argparse.Namespace) -> int:
    from .experiments import capability_table

    print(capability_table())
    return 0


def _report_command(args: argparse.Namespace) -> int:
    from .analysis.summary import render_report, reproduction_report

    rows = reproduction_report()
    print(render_report(rows))
    return 0 if all(row.within_tolerance for row in rows) else 1


def _show_command(args: argparse.Namespace) -> int:
    from .experiments import render_show

    print(render_show(args.experiment))
    return 0


def _export_command(args: argparse.Namespace) -> int:
    from .experiments import export_all, export_experiment
    from .runtime import CampaignConfig, drain_manifests

    if not _make_dir(args.directory, "the export"):
        return 2
    # Only the deploy exporters run engine jobs: a cache keeps their
    # region results for the next export, next to their merged manifest.
    config = manifest = None
    if args.cache_dir is not None:
        config = CampaignConfig(cache_dir=args.cache_dir)
        manifest = args.directory / "campaign_manifest.json"
    drain_manifests()
    if args.experiment == "all":
        for path in export_all(args.directory, config):
            print(path)
    else:
        print(export_experiment(args.experiment, args.directory, config))
    _write_merged_manifest(manifest, _print_engine_summary)
    return 0


def _profile_command(args: argparse.Namespace) -> int:
    """Run one experiment — its registered sweep workload when it has
    one, its exporter otherwise — under cProfile and print the top-N
    entries, so perf work can locate the next bottleneck."""
    import cProfile
    import pstats

    from .experiments import export_experiment, get

    defn = get(args.experiment)
    profiler = cProfile.Profile()
    if defn.profile is not None:
        profiler.enable()
        defn.profile()
        profiler.disable()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
            profiler.enable()
            export_experiment(args.experiment, Path(tmp))
            profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _variant_command(args: argparse.Namespace) -> int:
    """Print one profile of the ``energy`` subcommand (the per-device,
    per-category ledger breakdown of a profiled session) or of the
    ``faults`` one (a fault timeline and its recovery metrics)."""
    from .experiments import get

    experiment = args.command
    defn = get(experiment)
    assert defn.render_variant is not None  # registry consistency
    if args.list_profiles:
        for name in defn.variants:
            print(name)
        return 0
    if args.experiment is None:
        print(
            f"error: a {experiment} profile name is required "
            "(use --list-profiles to see them)",
            file=sys.stderr,
        )
        return 2
    from .core.offload import InfeasibleOffloadError

    try:
        report = defn.render_variant(args.experiment, args.distance, args.packets, args.seed)
    except InfeasibleOffloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(report)
    return 0


def _campaign_command(args: argparse.Namespace) -> int:
    from .experiments import campaignable_ids
    from .runtime import drain_manifests, run_campaign, write_results_manifest
    from .runtime.workloads import campaign_specs

    config = _engine_config(args, args.seed, args.max_failures)
    if config is None:
        return 2
    experiments = args.experiments or ["all"]
    if "all" in experiments:
        experiments = list(campaignable_ids())
    if args.results is not None and len(experiments) != 1:
        print(
            "error: --results records exactly one experiment's outcomes "
            f"(got {len(experiments)})",
            file=sys.stderr,
        )
        return 2
    if not _make_output_dirs({"--manifest": args.manifest, "--results": args.results}):
        return 2
    drain_manifests()
    failed = 0
    for experiment in experiments:
        specs = campaign_specs(experiment)
        on_progress = _progress_printer() if sys.stderr.isatty() else None
        result = run_campaign(specs, config, on_progress=on_progress)
        if args.results is not None:
            write_results_manifest(args.results, result)
            print(f"results manifest written to {args.results}", file=sys.stderr)
        failed += len(result.failures)
        manifest = result.manifest
        resumed = f", {manifest.resumed} resumed" if manifest.resumed else ""
        print(
            f"{experiment}: {manifest.total} jobs, {manifest.completed} run, "
            f"{manifest.cached} cached, {manifest.failed} failed{resumed}, "
            f"{manifest.wall_time_s:.2f}s ({manifest.jobs_per_s:.0f} jobs/s)"
        )
        if args.max_failures is not None and manifest.failed >= args.max_failures:
            print(
                f"aborted: {manifest.failed} failures reached "
                f"--max-failures {args.max_failures}",
                file=sys.stderr,
            )
            failed = max(failed, 1)
            break
    _write_merged_manifest(args.manifest, lambda merged: print(merged.to_json()))
    return 1 if failed else 0


def _resolve_scenario(target: str, seed: "int | None"):
    """A scenario by catalog name or JSON file path (``--seed`` override
    re-fingerprints the spec, so derived streams change with it).

    Raises:
        ValueError: naming the file, for a missing file, a file that is
            not JSON or a spec that fails validation.
    """
    from .deploy import SCENARIOS, DeploymentSpec, scenario

    if target in SCENARIOS:
        spec = scenario(target)
    else:
        path = Path(target)
        if not path.is_file():
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(
                f"{target!r} is neither a known scenario ({known}) nor a "
                "scenario JSON file"
            )
        try:
            spec = DeploymentSpec.from_json(path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise ValueError(f"scenario file {target!r}: {error}") from None
    if seed is not None and seed != spec.seed:
        spec = spec.scaled(seed=seed)
    return spec


def _deploy_command(args: argparse.Namespace) -> int:
    """Partition a deployment scenario, fan its regions across the
    campaign engine, and print/persist the merged manifest."""
    from .deploy import SCENARIOS, partition, run_deployment, scenario, write_manifest
    from .faults import region_fault_plan_for
    from .runtime import CampaignError

    if args.list_profiles:
        for name in _fault_profiles():
            print(name)
        return 0
    if args.list:
        for name in sorted(SCENARIOS):
            spec = scenario(name)
            regions = len(partition(spec).regions)
            print(
                f"{name}: {spec.hub_count} hubs, {spec.device_count} devices, "
                f"{regions} regions, {spec.horizon_s:g}s horizon"
            )
        return 0
    if args.scenario is None:
        print("error: a scenario name or JSON path is required", file=sys.stderr)
        return 2
    try:
        spec = _resolve_scenario(args.scenario, args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = _engine_config(args, spec.seed)
    if config is None:
        return 2
    if not _make_output_dirs({"--manifest": args.manifest, "--csv": args.csv}):
        return 2
    fault_plan = None if args.faults is None else region_fault_plan_for(args.faults, spec)
    try:
        run = run_deployment(spec, config, fault_plan=fault_plan)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    manifest = run.manifest
    engine = run.campaign.manifest
    resumed = f", {engine.resumed} resumed" if engine.resumed else ""
    print(
        f"{spec.name}: {manifest['hub_count']} hubs, "
        f"{manifest['device_count']} devices in "
        f"{manifest['region_count']} regions "
        f"({engine.completed} run, {engine.cached} cached{resumed}) "
        f"in {engine.wall_time_s:.2f}s"
    )
    print(
        f"  delivered {manifest['bits_delivered']} bits "
        f"(goodput {manifest['goodput_bps']:.0f} bps, "
        f"delivery ratio {manifest['delivery_ratio']:.4f}, "
        f"{manifest['interfered_hubs']} interfered hubs, "
        f"{manifest['suspensions']} churn suspensions)"
    )
    if "resilience" in manifest:
        block = manifest["resilience"]
        print(
            f"  faults ({args.faults}): coverage "
            f"{block['coverage_ratio']:.4f}, "
            f"{block['orphaned_device_s']:.1f} orphaned device-s, "
            f"{block['handoffs']} handoffs "
            f"({block['failed_handoffs']} failed, "
            f"mean latency {block['handoff_latency_mean_s']:.3f}s), "
            f"{block['reclaims']} reclaims"
        )
    print(f"  fingerprint {manifest['fingerprint']}")
    if args.manifest is not None:
        write_manifest(args.manifest, manifest)
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    if args.csv is not None:
        from .experiments import write_rows
        from .experiments.catalog import DEPLOY_HUB_COLUMNS, deployment_hub_rows

        write_rows(args.csv, DEPLOY_HUB_COLUMNS, deployment_hub_rows(manifest))
        print(f"per-hub CSV written to {args.csv}", file=sys.stderr)
    return 0


def _add_variant_subcommand(subparsers, experiment: str, help_text: str) -> None:
    """A subcommand whose positional is one of an experiment's registered
    variants (the ``energy`` / ``faults`` profile names)."""
    from .experiments import get

    parser = subparsers.add_parser(experiment, help=help_text)
    parser.set_defaults(run=_variant_command)
    parser.add_argument(
        "experiment", nargs="?", default=None, metavar="profile",
        type=_one_of(f"{experiment} profile", lambda: get(experiment).variants),
        help=f"registered {experiment} profile (see --list-profiles)",
    )
    parser.add_argument(
        "--list-profiles", action="store_true", help="list the registered profile names and exit"
    )
    parser.add_argument(
        "--distance", type=_number(float, "metres", 0), default=0.5, metavar="M",
        help="device separation in metres (default 0.5)",
    )
    parser.add_argument(
        "--packets", type=_positive_int, default=2000, metavar="N",
        help="packet budget for the session (default 2000)",
    )
    parser.add_argument("--seed", type=_seed, default=0, help="simulation seed (default 0)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .experiments import campaignable_ids, exportable_ids, profileable_ids, showable_ids

    # ``export`` takes the cache flag; ``campaign`` and ``deploy`` take it
    # with the rest of the engine flags.
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="cache campaign job results under DIR (keyed by content "
        "fingerprint + calibration version)",
    )
    engine = argparse.ArgumentParser(add_help=False, parents=[cache])
    engine.add_argument(
        "--resume", action="store_true",
        help="replay the write-ahead journal under --cache-dir and re-run only jobs "
        "without a verified result (crash-safe continuation; results are "
        "bit-identical to an uninterrupted run)",
    )
    engine.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes the engine jobs run on (default 1)",
    )
    engine.add_argument(
        "--lease-s", type=_number(float, "seconds", 0, above=True), default=30.0, metavar="S",
        help="job timeout in seconds for --jobs runs: a job still running this long is "
        "presumed hung, its worker is killed and the job re-run (default 30)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro", description="Regenerate the Braidio paper's tables and figures."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "list", help="list experiments and their registry capabilities"
    ).set_defaults(run=_list_command)
    subparsers.add_parser(
        "report", help="print the paper-vs-measured summary of every headline"
    ).set_defaults(run=_report_command)
    show = subparsers.add_parser("show", help="print an experiment's rows")
    show.set_defaults(run=_show_command)
    show.add_argument("experiment", choices=sorted(showable_ids()))
    export = subparsers.add_parser("export", help="write CSV output", parents=[cache])
    export.set_defaults(run=_export_command)
    export.add_argument("experiment", choices=sorted(exportable_ids()) + ["all"])
    export.add_argument("directory", type=Path)
    profile = subparsers.add_parser(
        "profile",
        help="run one experiment or sweep workload under cProfile and print the hottest entries",
    )
    profile.set_defaults(run=_profile_command)
    profile.add_argument("experiment", choices=sorted(profileable_ids()))
    profile.add_argument(
        "--top", type=_positive_int, default=25, metavar="N",
        help="number of entries to print (default 25)",
    )
    profile.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"], default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    _add_variant_subcommand(
        subparsers, "energy",
        "print the per-device, per-category energy ledger breakdown of a profiled session",
    )
    _add_variant_subcommand(
        subparsers, "faults",
        "run a hardened session under a named fault profile and "
        "print the fault timeline plus recovery metrics",
    )
    campaign = subparsers.add_parser(
        "campaign", parents=[engine],
        help="run experiment campaigns through the parallel engine "
        "(no CSV output; prints the run manifest)",
    )
    campaign.set_defaults(run=_campaign_command)
    campaign.add_argument(
        "experiments", nargs="*", metavar="experiment",
        type=_one_of("campaign experiment", lambda: sorted(campaignable_ids()), "all"),
        help="campaign-able experiment ids (default: all)",
    )
    campaign.add_argument("--seed", type=_seed, default=0, help="campaign seed (default 0)")
    campaign.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="also write the merged run manifest JSON to PATH",
    )
    campaign.add_argument(
        "--max-failures", type=_positive_int, default=None, metavar="N",
        help="abort the campaign (non-zero exit) once N jobs have failed",
    )
    campaign.add_argument(
        "--results", type=Path, default=None, metavar="PATH",
        help="write the canonical results manifest JSON to PATH (byte-identical across "
        "serial, --jobs and resumed runs of the same campaign; exactly one experiment)",
    )
    deploy = subparsers.add_parser(
        "deploy", parents=[engine],
        help="simulate a city-scale deployment scenario: partition into independent "
        "regions, fan out across the engine, merge the deterministic deployment manifest",
    )
    deploy.set_defaults(run=_deploy_command)
    deploy.add_argument(
        "scenario", nargs="?", default=None,
        help="catalog scenario name (see --list) or a scenario JSON path",
    )
    deploy.add_argument(
        "--list", action="store_true", help="list the scenario catalog with sizes and exit"
    )
    deploy.add_argument(
        "--seed", type=_seed, default=None,
        help="override the scenario seed (changes every derived stream)",
    )
    deploy.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write the merged deployment manifest JSON to PATH "
        "(byte-stable: same scenario fingerprint => same bytes)",
    )
    deploy.add_argument(
        "--csv", type=Path, default=None, metavar="PATH", help="write per-hub metrics CSV to PATH"
    )
    deploy.add_argument(
        "--faults", type=_one_of("fault profile", _fault_profiles), default=None,
        metavar="PROFILE",
        help="arm a named region fault profile (hub blackouts with handoff, brownouts, "
        "churn storms, noise surges) and report the degradation block; see --list-profiles",
    )
    deploy.add_argument(
        "--list-profiles", action="store_true", help="list the fault profile names and exit"
    )

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    try:
        code = main()
        sys.stdout.flush()  # surface a closed pipe here, not at exit
    except BrokenPipeError:
        # The reader left early (``list | head -1``).  Point stdout at
        # devnull so the exit flush cannot raise again, and exit 1 as
        # Python does on EPIPE, without the traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
