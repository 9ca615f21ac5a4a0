"""Built-in experiment defs: every paper figure/table/sweep, registered.

This module is the single place an experiment is wired into the system.
Each :func:`~repro.experiments.registry.register` call below replaces
what used to be five parallel hand-maintained registries (``EXPORTERS``,
``CAMPAIGN_AWARE``, ``PROFILE_WORKLOADS``,
``CAMPAIGN_EXPERIMENTS``, the energy/fault profile choice lists) plus a
~60-line ``show`` dispatch ladder in ``__main__``.  Adding an experiment
is now: write a runner/table builder, register one
:class:`~repro.experiments.registry.ExperimentDef`.

Hooks import their heavy dependencies lazily so the registry stays cheap
to *consult* (argparse choices, capability listings); only running an
experiment pays for its stack.  The CSV builders reproduce the former
``export_figN`` functions row-for-row — ``tests/analysis`` pins the
``export all`` output byte-identically against pre-registry goldens.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..analysis.energy_report import ENERGY_PROFILES
from ..faults import FAULT_PROFILES
from .pipeline import write_rows
from .registry import CsvTable, ExperimentDef, register

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..analysis.gain_matrix import GainMatrix
    from ..runtime import CampaignConfig
    from ..runtime.jobs import JobSpec


# --------------------------------------------------------------------------
# Table and show builders: static tables (Fig 1, Tables 1/2/5)

def _fig1_tables() -> tuple[CsvTable, ...]:
    from ..analysis.tables import fig1_rows

    return (
        CsvTable(
            "fig1_battery_capacity.csv",
            ("device", "class", "battery_wh"),
            fig1_rows(),
        ),
    )


def _table1_tables() -> tuple[CsvTable, ...]:
    from ..analysis.tables import table1_rows

    return (
        CsvTable(
            "table1_bluetooth.csv",
            ("chip", "transmit", "receive", "tx_rx_ratio"),
            table1_rows(),
        ),
    )


def _table2_tables() -> tuple[CsvTable, ...]:
    from ..analysis.tables import table2_rows

    return (
        CsvTable(
            "table2_readers.csv",
            ("model", "total_power", "rx_power", "cost", "vs_braidio"),
            table2_rows(),
        ),
    )


def _table5_tables() -> tuple[CsvTable, ...]:
    from ..analysis.tables import table5_rows

    return (
        CsvTable(
            "table5_switching.csv",
            ("mode", "tx", "rx", "total_j"),
            table5_rows(),
        ),
    )


def _show_fig1() -> str:
    from ..analysis import render_fig1

    return render_fig1()


def _show_table1() -> str:
    from ..analysis import render_table1

    return render_table1()


def _show_table2() -> str:
    from ..analysis import render_table2

    return render_table2()


def _show_table5() -> str:
    from ..analysis import render_table5

    return render_table5()


# --------------------------------------------------------------------------
# Circuit and PHY figures (Fig 3, 4, 6, 12, 13, 14)

def _fig3_tables() -> tuple[CsvTable, ...]:
    from ..analysis.charge_pump_fig import charge_pump_figure

    result = charge_pump_figure().result
    return (
        CsvTable(
            "fig3_charge_pump.csv",
            ("time_us", "input_v", "between_diodes_v", "output_v"),
            tuple(
                zip(
                    result.time_s * 1e6,
                    result.input_v,
                    result.internal_v,
                    result.output_v,
                )
            ),
        ),
    )


def _fig4_tables() -> tuple[CsvTable, ...]:
    from ..analysis.phase_maps import line_profile, phase_cancellation_map

    result = phase_cancellation_map(resolution=100)
    map_rows = []
    for yi, y in enumerate(result.y_m):
        for xi, x in enumerate(result.x_m):
            map_rows.append([x, y, result.signal_db[yi, xi]])
    x_line, profile = line_profile(resolution=400)
    return (
        CsvTable("fig4b_phase_map.csv", ("x_m", "y_m", "signal_db"), map_rows),
        CsvTable(
            "fig4c_line_profile.csv",
            ("x_m", "signal_db"),
            tuple(zip(x_line, profile)),
        ),
    )


def _fig6_tables() -> tuple[CsvTable, ...]:
    from ..analysis.phase_maps import diversity_comparison

    result = diversity_comparison()
    return (
        CsvTable(
            "fig6_antenna_diversity.csv",
            ("distance_m", "without_db", "with_db"),
            tuple(zip(result.distances_m, result.without_db, result.with_db)),
        ),
    )


def _fig12_tables() -> tuple[CsvTable, ...]:
    from ..analysis.ber_sweep import reader_comparison_curves

    curves, _ = reader_comparison_curves()
    by_label = {c.label: c for c in curves}
    return (
        CsvTable(
            "fig12_reader_comparison.csv",
            ("distance_m", "braidio_ber", "commercial_ber"),
            tuple(
                zip(
                    by_label["Braidio"].distances_m,
                    by_label["Braidio"].ber,
                    by_label["Commercial"].ber,
                )
            ),
        ),
    )


def _fig13_tables() -> tuple[CsvTable, ...]:
    from ..analysis.ber_sweep import mode_ber_curves

    curves = mode_ber_curves()
    header = ["distance_m"] + [c.label for c in curves]
    stacked = np.column_stack([curves[0].distances_m] + [c.ber for c in curves])
    return (CsvTable("fig13_ber_modes.csv", header, stacked.tolist()),)


def _show_fig13() -> str:
    from ..analysis import format_series, mode_ber_curves

    curves = mode_ber_curves()
    return format_series(
        "distance_m",
        [round(float(d), 2) for d in curves[0].distances_m],
        {c.label: [f"{v:.1e}" for v in c.ber] for c in curves},
        title="fig13: BER over distance",
    )


def _fig14_tables() -> tuple[CsvTable, ...]:
    from ..analysis.region import region_sweep

    rows = [
        [r.distance_m, r.regime.value, r.shape, r.min_ratio, r.max_ratio,
         r.span_orders]
        for r in region_sweep()
    ]
    return (
        CsvTable(
            "fig14_regions.csv",
            ("distance_m", "regime", "shape", "min_ratio", "max_ratio",
             "span_orders"),
            rows,
        ),
    )


def _show_fig14() -> str:
    from ..analysis import region_sweep

    return "\n".join(
        f"{region.distance_m:5.1f} m  regime {region.regime.value}  "
        f"{region.shape:8s}  ratios {region.min_ratio:.6g} .. "
        f"{region.max_ratio:.6g}  ({region.span_orders:.2f} oom)"
        for region in region_sweep()
    )


# --------------------------------------------------------------------------
# Gain matrices and distance sweeps (Fig 15-18)

def _matrix_table(filename: str, matrix: "GainMatrix") -> CsvTable:
    header = ["rx\\tx"] + matrix.labels
    rows = [
        [label, *(float(v) for v in row)]
        for label, row in zip(matrix.labels, matrix.gains)
    ]
    return CsvTable(filename, header, rows)


def _fig15_tables() -> tuple[CsvTable, ...]:
    from ..analysis.gain_matrix import bluetooth_gain_matrix

    matrix = bluetooth_gain_matrix()
    return (_matrix_table("fig15_gain_matrix.csv", matrix),)


def _fig16_tables() -> tuple[CsvTable, ...]:
    from ..analysis.gain_matrix import best_mode_gain_matrix

    matrix = best_mode_gain_matrix()
    return (_matrix_table("fig16_vs_best_mode.csv", matrix),)


def _fig17_tables() -> tuple[CsvTable, ...]:
    from ..analysis.gain_matrix import bidirectional_gain_matrix

    matrix = bidirectional_gain_matrix()
    return (_matrix_table("fig17_bidirectional.csv", matrix),)


def _matrix_show(experiment_id: str) -> str:
    from ..analysis import (
        best_mode_gain_matrix,
        bidirectional_gain_matrix,
        bluetooth_gain_matrix,
        format_matrix,
    )

    matrix = {
        "fig15": bluetooth_gain_matrix,
        "fig16": best_mode_gain_matrix,
        "fig17": bidirectional_gain_matrix,
    }[experiment_id]()
    return format_matrix(
        matrix.labels,
        matrix.labels,
        [[round(float(v), 2) for v in row] for row in matrix.gains],
        title=f"{experiment_id}: gain matrix (column transmits to row)",
    )


def _fig18_tables() -> tuple[CsvTable, ...]:
    from ..analysis.distance_sweep import paper_distance_curves

    curves = paper_distance_curves()
    header = ["distance_m"] + [c.label for c in curves]
    stacked = np.column_stack(
        [curves[0].distances_m] + [c.gains for c in curves]
    )
    return (CsvTable("fig18_distance.csv", header, stacked.tolist()),)


def _matrix_campaign(kind: str) -> "list[JobSpec]":
    from ..runtime.workloads import gain_matrix_specs

    return gain_matrix_specs(kind)


def _fig18_campaign() -> "list[JobSpec]":
    from ..analysis.distance_sweep import PAPER_PAIRS
    from ..runtime.workloads import distance_curve_specs

    distances = np.linspace(0.3, 6.0, 39)
    specs: "list[JobSpec]" = []
    for a, b in PAPER_PAIRS:
        specs.extend(distance_curve_specs(a, b, distances))
        specs.extend(distance_curve_specs(b, a, distances))
    return specs


def _mc_ber_campaign() -> "list[JobSpec]":
    from ..runtime.jobs import JobSpec

    return [
        JobSpec.with_params(
            "ber.montecarlo",
            {"snr_db": f"{snr_db:.1f}", "n_bits": 20000},
        )
        for snr_db in np.arange(4.0, 16.5, 0.5)
    ]


# --------------------------------------------------------------------------
# Energy ledger and fault-injection reports

def _energy_tables() -> tuple[CsvTable, ...]:
    from ..analysis.energy_report import breakdown_rows

    header, rows = breakdown_rows()
    return (CsvTable("energy_breakdown.csv", header, rows),)


def _energy_campaign() -> "list[JobSpec]":
    from ..runtime.workloads import energy_breakdown_specs

    return energy_breakdown_specs()


def _render_energy_variant(
    variant: str, distance_m: float, packets: int, seed: int
) -> str:
    from ..analysis.energy_report import render_energy

    return render_energy(
        variant, distance_m=distance_m, packets=packets, seed=seed
    )


def _faults_tables() -> tuple[CsvTable, ...]:
    from ..faults import recovery_rows

    header, rows = recovery_rows()
    return (CsvTable("fault_recovery.csv", header, rows),)


def _faults_campaign() -> "list[JobSpec]":
    from ..runtime.workloads import fault_profile_specs

    return fault_profile_specs()


def _render_faults_variant(
    variant: str, distance_m: float, packets: int, seed: int
) -> str:
    from ..faults import render_faults

    return render_faults(
        variant, distance_m=distance_m, packets=packets, seed=seed
    )


# --------------------------------------------------------------------------
# City-scale deployment (custom exporter: CSV + JSON manifest)

#: Column order of the per-hub deployment CSV (one row per hub).
DEPLOY_HUB_COLUMNS: tuple[str, ...] = (
    "scenario", "region", "hub", "channel", "devices", "interfered",
    "co_channel_neighbors", "bits_delivered", "packets_delivered",
    "packets_attempted", "delivery_ratio", "goodput_bps",
    "client_energy_j", "hub_energy_j", "suspensions", "resumes",
    "suspended_s", "lp_bits",
)


def deployment_hub_rows(manifest: Mapping[str, Any]) -> list[list[object]]:
    """Flatten a merged deployment manifest into per-hub CSV rows,
    ordered by (region, hub) so the CSV is as deterministic as the
    manifest itself."""
    rows: list[list[object]] = []
    for region in manifest["regions"]:
        for hub in sorted(region["hubs"], key=lambda h: h["hub"]):
            rows.append(
                [
                    manifest["scenario"],
                    region["region"],
                    hub["hub"],
                    hub["channel"],
                    hub["devices"],
                    int(hub["interfered"]),
                    hub["co_channel_neighbors"],
                    hub["bits_delivered"],
                    hub["packets_delivered"],
                    hub["packets_attempted"],
                    hub["delivery_ratio"],
                    hub["goodput_bps"],
                    hub["client_energy_j"],
                    hub["hub_energy_j"],
                    hub["suspensions"],
                    hub["resumes"],
                    hub["suspended_s"],
                    hub.get("lp_bits", ""),
                ]
            )
    return rows


def _deploy_export(directory: Path, config: "CampaignConfig | None") -> Path:
    """Per-hub metrics of the ``smoke`` deployment scenario (the tiny
    catalog entry, so ``export all`` stays fast); the merged deployment
    manifest lands next to the CSV.  Use ``python -m repro deploy`` for
    the larger scenarios."""
    from ..deploy import run_deployment, scenario, write_manifest

    run = run_deployment(scenario("smoke"), config)
    write_manifest(directory / "deploy_smoke_manifest.json", run.manifest)
    return write_rows(
        directory / "deploy_hubs.csv",
        DEPLOY_HUB_COLUMNS,
        deployment_hub_rows(run.manifest),
    )


#: Column order of the per-hub resilience CSV (one row per hub of an
#: armed deployment run).
DEPLOY_RESILIENCE_COLUMNS: tuple[str, ...] = (
    "scenario", "profile", "region", "hub", "channel", "devices",
    "coverage_ratio", "orphaned_device_s", "dark_s", "handoffs_out",
    "handoffs_in", "failed_handoffs", "reboots", "fault_events",
    "bits_delivered", "delivery_ratio",
)


def deployment_resilience_rows(
    manifest: Mapping[str, Any], profile: str
) -> list[list[object]]:
    """Flatten an armed deployment manifest's degradation metrics into
    per-hub CSV rows, ordered by (region, hub)."""
    rows: list[list[object]] = []
    for region in manifest["regions"]:
        for hub in sorted(region["hubs"], key=lambda h: h["hub"]):
            rows.append(
                [
                    manifest["scenario"],
                    profile,
                    region["region"],
                    hub["hub"],
                    hub["channel"],
                    hub["devices"],
                    hub["coverage_ratio"],
                    hub["orphaned_device_s"],
                    hub["dark_s"],
                    hub["handoffs_out"],
                    hub["handoffs_in"],
                    hub["failed_handoffs"],
                    hub["reboots"],
                    hub["fault_events"],
                    hub["bits_delivered"],
                    hub["delivery_ratio"],
                ]
            )
    return rows


def _deploy_faults_export(
    directory: Path, config: "CampaignConfig | None"
) -> Path:
    """Degradation metrics of the ``smoke`` scenario under the
    ``blackout`` chaos profile: hubs go dark mid-run, their devices
    re-associate to neighbor hubs, coverage dips and recovers.  The
    armed manifest lands next to the CSV."""
    from ..deploy import run_deployment, scenario, write_manifest
    from ..faults import region_fault_plan_for

    spec = scenario("smoke")
    plan = region_fault_plan_for("blackout", spec)
    run = run_deployment(spec, config, fault_plan=plan)
    write_manifest(directory / "deploy_blackout_manifest.json", run.manifest)
    return write_rows(
        directory / "deploy_resilience.csv",
        DEPLOY_RESILIENCE_COLUMNS,
        deployment_resilience_rows(run.manifest, "blackout"),
    )


# --------------------------------------------------------------------------
# Profiler sweep workloads (no CSV; exercised under cProfile)

def _profile_gain_matrix() -> None:
    from ..analysis.gain_matrix import bluetooth_gain_matrix

    bluetooth_gain_matrix()


def _profile_distance() -> None:
    from ..analysis.distance_sweep import paper_distance_curves

    paper_distance_curves()


def _profile_ber() -> None:
    from ..analysis.ber_sweep import mode_ber_curves

    mode_ber_curves()


def _profile_sensitivity() -> None:
    from ..analysis.sensitivity import (
        bluetooth_power_sweep,
        reader_power_sweep,
    )

    reader_power_sweep()
    bluetooth_power_sweep()


# --------------------------------------------------------------------------
# Registration (order fixes `export all` file order and `campaign all`)

register(ExperimentDef(
    id="fig1", kind="figure",
    title="Battery capacities across the device-class spectrum",
    tables=_fig1_tables, csv_names=("fig1_battery_capacity.csv",),
    show=_show_fig1,
))
register(ExperimentDef(
    id="table1", kind="table",
    title="Bluetooth chip transmit/receive power ratios",
    tables=_table1_tables, csv_names=("table1_bluetooth.csv",),
    show=_show_table1,
))
register(ExperimentDef(
    id="table2", kind="table",
    title="Commercial reader power and cost versus Braidio",
    tables=_table2_tables, csv_names=("table2_readers.csv",),
    show=_show_table2,
))
register(ExperimentDef(
    id="fig3", kind="figure",
    title="Charge-pump waveforms of the passive receiver",
    tables=_fig3_tables, csv_names=("fig3_charge_pump.csv",),
))
register(ExperimentDef(
    id="fig4", kind="figure",
    title="Phase-cancellation map and line profile",
    tables=_fig4_tables,
    csv_names=("fig4b_phase_map.csv", "fig4c_line_profile.csv"),
))
register(ExperimentDef(
    id="fig6", kind="figure",
    title="Antenna-diversity comparison over distance",
    tables=_fig6_tables, csv_names=("fig6_antenna_diversity.csv",),
))
register(ExperimentDef(
    id="fig12", kind="figure",
    title="Braidio versus commercial reader BER",
    tables=_fig12_tables, csv_names=("fig12_reader_comparison.csv",),
))
register(ExperimentDef(
    id="fig13", kind="figure",
    title="Per-mode BER curves over distance",
    tables=_fig13_tables, csv_names=("fig13_ber_modes.csv",),
    show=_show_fig13,
))
register(ExperimentDef(
    id="fig14", kind="figure",
    title="Efficiency-region sweep across regimes",
    tables=_fig14_tables, csv_names=("fig14_regions.csv",),
    show=_show_fig14,
))
register(ExperimentDef(
    id="table5", kind="table",
    title="Mode-switching energy overheads",
    tables=_table5_tables, csv_names=("table5_switching.csv",),
    show=_show_table5,
))
register(ExperimentDef(
    id="fig15", kind="figure",
    title="Gain matrix: Braidio over Bluetooth",
    tables=_fig15_tables, csv_names=("fig15_gain_matrix.csv",),
    campaign=lambda: _matrix_campaign("gain.bluetooth"),
    show=lambda: _matrix_show("fig15"),
))
register(ExperimentDef(
    id="fig16", kind="figure",
    title="Gain matrix: Braidio over the best single mode",
    tables=_fig16_tables, csv_names=("fig16_vs_best_mode.csv",),
    campaign=lambda: _matrix_campaign("gain.best_mode"),
    show=lambda: _matrix_show("fig16"),
))
register(ExperimentDef(
    id="fig17", kind="figure",
    title="Gain matrix: bidirectional traffic over Bluetooth",
    tables=_fig17_tables, csv_names=("fig17_bidirectional.csv",),
    campaign=lambda: _matrix_campaign("gain.bidirectional"),
    show=lambda: _matrix_show("fig17"),
))
register(ExperimentDef(
    id="fig18", kind="figure",
    title="Gain versus distance for the paper's device pairs",
    tables=_fig18_tables, csv_names=("fig18_distance.csv",),
    campaign=_fig18_campaign,
))
register(ExperimentDef(
    id="mc-ber", kind="campaign",
    title="Monte-Carlo OOK envelope BER samples (engine-only)",
    campaign=_mc_ber_campaign,
))
register(ExperimentDef(
    id="energy", kind="report",
    title="Ledger-attributed energy breakdown of profiled sessions",
    tables=_energy_tables, csv_names=("energy_breakdown.csv",),
    campaign=_energy_campaign,
    variants=ENERGY_PROFILES, render_variant=_render_energy_variant,
))
register(ExperimentDef(
    id="faults", kind="report",
    title="Recovery metrics of the named chaos profiles",
    tables=_faults_tables, csv_names=("fault_recovery.csv",),
    campaign=_faults_campaign,
    variants=FAULT_PROFILES, render_variant=_render_faults_variant,
))
register(ExperimentDef(
    id="deploy", kind="scenario",
    title="City-scale smoke deployment: per-hub metrics + manifest",
    export=_deploy_export,
    csv_names=("deploy_hubs.csv", "deploy_smoke_manifest.json"),
))
register(ExperimentDef(
    id="deploy-faults", kind="scenario",
    title="Smoke deployment under the blackout profile: degradation CSV",
    export=_deploy_faults_export,
    csv_names=("deploy_resilience.csv", "deploy_blackout_manifest.json"),
))
register(ExperimentDef(
    id="sweep-gain-matrix", kind="sweep",
    title="Profiler workload: the Fig 15 gain-matrix sweep",
    profile=_profile_gain_matrix,
))
register(ExperimentDef(
    id="sweep-distance", kind="sweep",
    title="Profiler workload: the Fig 18 distance sweep",
    profile=_profile_distance,
))
register(ExperimentDef(
    id="sweep-ber", kind="sweep",
    title="Profiler workload: the Fig 13 BER sweep",
    profile=_profile_ber,
))
register(ExperimentDef(
    id="sweep-sensitivity", kind="sweep",
    title="Profiler workload: the calibration-sensitivity sweeps",
    profile=_profile_sensitivity,
))
