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
experiment is one registration (DESIGN.md §13).

The ``--cache-dir`` / ``--no-cache`` flags drive the campaign engine's
result cache (:mod:`repro.runtime`): completed jobs are cached on disk
keyed by content fingerprint + calibration version, so a warm re-run
skips all simulation (verifiable from the printed run manifest's
``cached`` count).  ``campaign`` and ``deploy`` also take ``--jobs``, the
worker processes their jobs fan across (the only setting that shapes
the fleet), and ``--lease-s``, the job timeout.  ``export`` computes the
gain sweeps with the batch engine; only its two deploy exporters run
engine jobs, which a cache keeps.  Cached campaigns also keep a
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


def _show(experiment: str) -> int:
    from .experiments import render_show

    print(render_show(experiment))
    return 0


def _energy(args: argparse.Namespace) -> int:
    """Print the per-device, per-category ledger breakdown of one
    profiled session (the ``energy`` subcommand)."""
    return _render_variant("energy", args)


def _faults(args: argparse.Namespace) -> int:
    """Print one chaos profile's fault timeline and recovery metrics
    (the ``faults`` subcommand)."""
    return _render_variant("faults", args)


def _render_variant(experiment: str, args: argparse.Namespace) -> int:
    from .experiments import get

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
        report = defn.render_variant(
            args.experiment, args.distance, args.packets, args.seed
        )
    except InfeasibleOffloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(report)
    return 0


def _profile(experiment: str, top: int, sort: str) -> int:
    """Run one experiment — its registered sweep workload when it has
    one, its exporter otherwise — under cProfile and print the top-N
    entries, so perf work can locate the next bottleneck."""
    import cProfile
    import pstats

    from .experiments import export_experiment, get

    defn = get(experiment)
    profiler = cProfile.Profile()
    if defn.profile is not None:
        profiler.enable()
        defn.profile()
        profiler.disable()
    else:
        with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
            profiler.enable()
            export_experiment(experiment, Path(tmp))
            profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(sort).print_stats(top)
    return 0


def _capped_jobs(jobs: int) -> int:
    """Cap a worker request at the machine's CPU count, with a warning."""
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        print(
            f"warning: --jobs {jobs} exceeds the {cpus} available CPUs; "
            f"capping at {cpus}",
            file=sys.stderr,
        )
        return cpus
    return jobs


def _campaign_config(args: argparse.Namespace, seed: int):
    """The ``campaign``/``deploy`` engine config from their flags."""
    from .runtime import CampaignConfig

    return CampaignConfig(
        n_jobs=_capped_jobs(args.jobs),
        cache_dir=None if args.no_cache else args.cache_dir,
        campaign_seed=seed,
        resume=args.resume,
        max_failures=getattr(args, "max_failures", None),
        timeout_s=args.lease_s,
    )


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


def _summarize_engine_runs(manifest_path: Path | None) -> None:
    """Merge manifests of the campaigns the exporters just ran, print a
    one-line summary, and optionally persist the merged manifest (with
    per-run resume lineage)."""
    from .runtime import drain_manifests
    from .runtime.progress import write_campaign_manifest

    merged = write_campaign_manifest(manifest_path, drain_manifests())
    if merged is None:
        return
    resumed = f", {merged.resumed} resumed" if merged.resumed else ""
    print(
        f"campaign engine: {merged.total} jobs "
        f"({merged.completed} run, {merged.cached} cached, "
        f"{merged.failed} failed{resumed}) in {merged.wall_time_s:.2f}s",
        file=sys.stderr,
    )
    if manifest_path is not None:
        print(f"manifest written to {manifest_path}", file=sys.stderr)


def _campaign_experiment_id(value: str) -> str:
    """Argparse-time validation of ``campaign`` experiment ids against
    the registry: unknown ids exit 2 with the known choices, instead of
    failing mid-run inside ``campaign_specs``."""
    from .experiments import campaignable_ids

    known = campaignable_ids()
    if value == "all" or value in known:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown campaign experiment {value!r} "
        f"(choose from {', '.join(sorted(known))}, or 'all')"
    )


def _fault_profile(value: str) -> str:
    """Argparse-time validation of deploy fault-profile names: unknown
    profiles exit 2 with the known choices, instead of failing after the
    scenario has been resolved."""
    from .faults import REGION_FAULT_PROFILES

    if value in REGION_FAULT_PROFILES:
        return value
    raise argparse.ArgumentTypeError(
        f"unknown fault profile {value!r} "
        f"(choose from {', '.join(REGION_FAULT_PROFILES)})"
    )


def _resume_without_cache(config) -> bool:
    """Report (and return whether) ``--resume`` was asked of a campaign
    that, once ``--no-cache`` is applied, has no cache to resume from."""
    if config.resume and config.cache_dir is None:
        print(
            "error: --resume needs --cache-dir, without --no-cache (the "
            "journal and the results being resumed live there)",
            file=sys.stderr,
        )
        return True
    return False


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


def _run_campaign_command(args: argparse.Namespace) -> int:
    from .experiments import campaignable_ids
    from .runtime import drain_manifests, run_campaign, write_results_manifest
    from .runtime.progress import write_campaign_manifest
    from .runtime.workloads import campaign_specs

    config = _campaign_config(args, seed=args.seed)
    if _resume_without_cache(config):
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
    if not _make_output_dirs(
        {"--manifest": args.manifest, "--results": args.results}
    ):
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
        if (
            args.max_failures is not None
            and manifest.failed >= args.max_failures
        ):
            print(
                f"aborted: {manifest.failed} failures reached "
                f"--max-failures {args.max_failures}",
                file=sys.stderr,
            )
            failed = max(failed, 1)
            break
    merged = write_campaign_manifest(args.manifest, drain_manifests())
    if merged is not None:
        print(merged.to_json())
        if args.manifest is not None:
            print(f"manifest written to {args.manifest}", file=sys.stderr)
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


def _run_deploy_command(args: argparse.Namespace) -> int:
    """Partition a deployment scenario, fan its regions across the
    campaign engine, and print/persist the merged manifest."""
    from .deploy import SCENARIOS, partition, run_deployment, scenario, write_manifest
    from .faults import REGION_FAULT_PROFILES, region_fault_plan_for
    from .runtime import CampaignError

    if args.list_profiles:
        for name in REGION_FAULT_PROFILES:
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
    config = _campaign_config(args, seed=spec.seed)
    if _resume_without_cache(config):
        return 2
    if not _make_output_dirs({"--manifest": args.manifest, "--csv": args.csv}):
        return 2
    fault_plan = (
        region_fault_plan_for(args.faults, spec)
        if args.faults is not None
        else None
    )
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


def _int_at_least(minimum: int):
    """An argparse ``type=`` accepting integers >= ``minimum``."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return number

    return parse


_positive_int = _int_at_least(1)
#: The type of every ``--seed``: numpy seed sequences reject negatives.
_seed = _int_at_least(0)


def _positive_seconds(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {value!r}")
    if not (math.isfinite(seconds) and seconds > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return seconds


def _metres(value: str) -> float:
    """The type of ``--distance``: a finite separation of at least 0 m."""
    try:
        metres = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected metres, got {value!r}")
    if not (math.isfinite(metres) and metres >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return metres


def _add_fleet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes the engine jobs run on (default 1)",
    )
    parser.add_argument(
        "--lease-s", type=_positive_seconds, default=30.0, metavar="S",
        help="job timeout in seconds for --jobs runs: a job still running "
        "this long is presumed hung, its worker is killed and the job "
        "re-run (default 30)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="cache campaign job results under DIR (keyed by content "
        "fingerprint + calibration version)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the result cache even when --cache-dir is set",
    )


def _variant_name(experiment: str):
    """An argparse ``type=`` validator over one experiment's registered
    variant names: unknown profiles exit 2 listing the valid ones."""
    from .experiments import get

    known = tuple(get(experiment).variants)

    def validate(value: str) -> str:
        if value in known:
            return value
        raise argparse.ArgumentTypeError(
            f"unknown {experiment} profile {value!r} "
            f"(choose from {', '.join(known)})"
        )

    return validate


def _add_variant_subcommand(
    subparsers, experiment: str, help_text: str
) -> None:
    """A subcommand whose positional is one of an experiment's registered
    variants (the ``energy`` / ``faults`` profile names)."""
    parser = subparsers.add_parser(experiment, help=help_text)
    parser.add_argument(
        "experiment", nargs="?", default=None, type=_variant_name(experiment),
        metavar="profile",
        help=f"registered {experiment} profile (see --list-profiles)",
    )
    parser.add_argument(
        "--list-profiles", action="store_true",
        help="list the registered profile names and exit",
    )
    parser.add_argument(
        "--distance", type=_metres, default=0.5, metavar="M",
        help="device separation in metres (default 0.5)",
    )
    parser.add_argument(
        "--packets", type=_positive_int, default=2000, metavar="N",
        help="packet budget for the session (default 2000)",
    )
    parser.add_argument(
        "--seed", type=_seed, default=0, help="simulation seed (default 0)"
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .experiments import exportable_ids, profileable_ids, showable_ids

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Braidio paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser(
        "list", help="list experiments and their registry capabilities"
    )
    subparsers.add_parser(
        "report", help="print the paper-vs-measured summary of every headline"
    )
    show = subparsers.add_parser("show", help="print an experiment's rows")
    show.add_argument("experiment", choices=sorted(showable_ids()))
    export = subparsers.add_parser("export", help="write CSV output")
    export.add_argument("experiment", choices=sorted(exportable_ids()) + ["all"])
    export.add_argument("directory", type=Path)
    _add_cache_flags(export)
    profile = subparsers.add_parser(
        "profile",
        help="run one experiment or sweep workload under cProfile and "
        "print the hottest entries",
    )
    profile.add_argument("experiment", choices=sorted(profileable_ids()))
    profile.add_argument(
        "--top", type=_positive_int, default=25, metavar="N",
        help="number of entries to print (default 25)",
    )
    profile.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative", help="pstats sort key (default cumulative)",
    )
    _add_variant_subcommand(
        subparsers, "energy",
        "print the per-device, per-category energy ledger breakdown "
        "of a profiled session",
    )
    _add_variant_subcommand(
        subparsers, "faults",
        "run a hardened session under a named fault profile and "
        "print the fault timeline plus recovery metrics",
    )
    campaign = subparsers.add_parser(
        "campaign",
        help="run experiment campaigns through the parallel engine "
        "(no CSV output; prints the run manifest)",
    )
    campaign.add_argument(
        "experiments",
        nargs="*",
        type=_campaign_experiment_id,
        metavar="experiment",
        help="campaign-able experiment ids (default: all)",
    )
    campaign.add_argument(
        "--seed", type=_seed, default=0, help="campaign seed (default 0)"
    )
    campaign.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="also write the merged run manifest JSON to PATH",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="replay the write-ahead journal under --cache-dir and "
        "re-dispatch only jobs without a verified result (crash-safe "
        "continuation; results are bit-identical to an uninterrupted run)",
    )
    campaign.add_argument(
        "--max-failures", type=_positive_int, default=None, metavar="N",
        help="abort the campaign (non-zero exit) once N jobs have failed",
    )
    campaign.add_argument(
        "--results", type=Path, default=None, metavar="PATH",
        help="write the canonical results manifest JSON to PATH "
        "(byte-identical across serial, --jobs and resumed runs of the "
        "same campaign; exactly one experiment)",
    )
    _add_cache_flags(campaign)
    _add_fleet_flags(campaign)
    deploy = subparsers.add_parser(
        "deploy",
        help="simulate a city-scale deployment scenario: partition into "
        "independent regions, fan out across the engine, merge the "
        "deterministic deployment manifest",
    )
    deploy.add_argument(
        "scenario", nargs="?", default=None,
        help="catalog scenario name (see --list) or a scenario JSON path",
    )
    deploy.add_argument(
        "--list", action="store_true",
        help="list the scenario catalog with sizes and exit",
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
        "--csv", type=Path, default=None, metavar="PATH",
        help="write per-hub metrics CSV to PATH",
    )
    deploy.add_argument(
        "--faults", type=_fault_profile, default=None, metavar="PROFILE",
        help="arm a named region fault profile (hub blackouts with "
        "handoff, brownouts, churn storms, noise surges) and report the "
        "degradation block; see --list-profiles",
    )
    deploy.add_argument(
        "--list-profiles", action="store_true",
        help="list the fault profile names and exit",
    )
    deploy.add_argument(
        "--resume", action="store_true",
        help="replay the write-ahead journal under --cache-dir and "
        "re-simulate only regions without a verified result",
    )
    _add_cache_flags(deploy)
    _add_fleet_flags(deploy)

    args = parser.parse_args(argv)
    if args.command == "list":
        from .experiments import capability_table

        print(capability_table())
        return 0
    if args.command == "report":
        from .analysis.summary import render_report, reproduction_report

        rows = reproduction_report()
        print(render_report(rows))
        return 0 if all(row.within_tolerance for row in rows) else 1
    if args.command == "show":
        return _show(args.experiment)
    if args.command == "profile":
        return _profile(args.experiment, args.top, args.sort)
    if args.command == "energy":
        return _energy(args)
    if args.command == "faults":
        return _faults(args)
    if args.command == "campaign":
        return _run_campaign_command(args)
    if args.command == "deploy":
        return _run_deploy_command(args)

    from .experiments import export_all, export_experiment
    from .runtime import CampaignConfig, drain_manifests

    if not _make_dir(args.directory, "the export"):
        return 2
    # Only the deploy exporters run engine jobs: a cache keeps their
    # region results for the next export.
    config = (
        None
        if args.cache_dir is None or args.no_cache
        else CampaignConfig(cache_dir=args.cache_dir)
    )
    drain_manifests()
    if args.experiment == "all":
        for path in export_all(args.directory, config):
            print(path)
    else:
        print(export_experiment(args.experiment, args.directory, config))
    manifest_path = (
        args.directory / "campaign_manifest.json"
        if args.cache_dir is not None
        else None
    )
    _summarize_engine_runs(manifest_path)
    return 0


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
