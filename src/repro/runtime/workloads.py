"""Built-in campaign job runners and spec builders.

Each runner is a pure function of its spec — and, for the one runner
that draws (``ber.montecarlo``), of the job's generator: it reconstructs
whatever model objects it needs from the spec's primitive fields (device
*names*, distance, bitrate) under the default paper calibration, so
specs stay picklable and results cacheable by content.  The other
runners take the spec alone, so the executor builds them no generator.
The shared :class:`~repro.core.regimes.LinkMap` is memoized per process —
workers pay its construction cost once, not per job — and so are the
device budgets; the Eq 1 solutions the gain cells share are memoized on
the map (:mod:`repro.sim.lifetime`).
"""

from __future__ import annotations

import functools

import numpy as np

from .jobs import JobSpec, register_job_runner


@functools.lru_cache(maxsize=1)
def _link_map():
    from ..core.regimes import LinkMap

    return LinkMap()


#: Device budgets memoized per process; the catalog has ten devices.
_BUDGET_MEMO_MAX = 64


@functools.lru_cache(maxsize=_BUDGET_MEMO_MAX)
def _energy_budget(device_name: str) -> float:
    """The joules of a fresh catalog device's nameplate battery.

    Memoized by name, so the cells that name a device skip the catalog
    lookup.
    """
    from ..hardware.battery import JOULES_PER_WATT_HOUR
    from ..hardware.devices import device

    return device(device_name).battery_wh * JOULES_PER_WATT_HOUR


@register_job_runner("gain.bluetooth")
def run_bluetooth_gain(spec: JobSpec) -> dict:
    """Fig 15 cell: Braidio over Bluetooth, one-way saturated traffic."""
    from ..sim.lifetime import bluetooth_unidirectional, braidio_unidirectional

    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, _link_map())
    baseline = bluetooth_unidirectional(e_tx, e_rx)
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "limited_by": braidio.limited_by,
    }


@register_job_runner("gain.best_mode")
def run_best_mode_gain(spec: JobSpec) -> dict:
    """Fig 16 cell: Braidio over the best single mode in isolation."""
    from ..sim.lifetime import (
        best_single_mode_unidirectional,
        braidio_unidirectional,
    )

    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, _link_map())
    mode, baseline = best_single_mode_unidirectional(
        e_tx, e_rx, spec.distance_m, _link_map()
    )
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "best_mode": mode.value,
    }


@register_job_runner("gain.bidirectional")
def run_bidirectional_gain(spec: JobSpec) -> dict:
    """Fig 17 cell: Braidio over Bluetooth with equal data both ways."""
    from ..sim.lifetime import bluetooth_bidirectional, braidio_bidirectional

    e_a = _energy_budget(spec.tx_device)
    e_b = _energy_budget(spec.rx_device)
    braidio = braidio_bidirectional(e_a, e_b, spec.distance_m, _link_map())
    baseline = bluetooth_bidirectional(e_a, e_b)
    return {
        "gain": braidio.total_bits / baseline,
        "braidio_bits": braidio.total_bits,
        "baseline_bits": baseline,
        "limited_by": braidio.limited_by,
    }


@register_job_runner("gain.distance")
def run_distance_gain(spec: JobSpec) -> dict:
    """Fig 18 point: gain over Bluetooth at one distance (NaN out of
    range, matching the sweep's plotting convention)."""
    from ..sim.lifetime import bluetooth_unidirectional, braidio_unidirectional

    link_map = _link_map()
    if not link_map.available_powers(spec.distance_m):
        return {"gain": float("nan")}
    e_tx = _energy_budget(spec.tx_device)
    e_rx = _energy_budget(spec.rx_device)
    braidio = braidio_unidirectional(e_tx, e_rx, spec.distance_m, link_map)
    return {"gain": braidio.total_bits / bluetooth_unidirectional(e_tx, e_rx)}


@register_job_runner("ber.montecarlo")
def run_montecarlo_ber(spec: JobSpec, rng: np.random.Generator) -> dict:
    """Monte-Carlo OOK envelope BER sample — the stochastic workload that
    exercises the content-derived seeding (params: ``snr_db``,
    ``n_bits``)."""
    from ..phy.baseband import simulate_ook_envelope_ber

    snr_db = float(spec.param("snr_db", "10.0"))
    n_bits = int(spec.param("n_bits", "10000"))
    measurement = simulate_ook_envelope_ber(snr_db, n_bits, rng)
    low, high = measurement.confidence_interval()
    return {
        "ber": measurement.ber,
        "errors": float(measurement.errors),
        "bits": float(measurement.bits),
        "ci_low": low,
        "ci_high": high,
    }


@register_job_runner("session.energy")
def run_session_energy(spec: JobSpec) -> dict:
    """Ledger-attributed energy breakdown of one profiled DES session
    (params: ``profile``, ``packets``, ``seed``; deterministic in the
    spec alone, like the gain runners)."""
    from ..analysis.energy_report import run_energy_session, snapshot_report

    profile = spec.param("profile", "braidio")
    packets = int(spec.param("packets", "2000"))
    seed = int(spec.param("seed", "0"))
    metrics = run_energy_session(
        profile, distance_m=spec.distance_m, packets=packets, seed=seed
    )
    report = snapshot_report(metrics.ledger_snapshot())
    report.update(
        {
            "profile": profile,
            "packets_attempted": metrics.packets_attempted,
            "packets_delivered": metrics.packets_delivered,
            "duration_s": metrics.duration_s,
            "energy_a_j": metrics.energy_a_j,
            "energy_b_j": metrics.energy_b_j,
        }
    )
    return report


@register_job_runner("faults.session")
def run_faults_session(spec: JobSpec) -> dict:
    """Recovery metrics of one hardened session under a named fault
    profile (params: ``profile``, ``packets``, ``seed``; deterministic in
    the spec alone — the injector derives its own content-addressed
    stream, so results are identical at any worker count)."""
    from ..faults import recovery_report, run_fault_session

    profile = spec.param("profile", "chaos")
    packets = int(spec.param("packets", "2000"))
    seed = int(spec.param("seed", "0"))
    metrics, injector = run_fault_session(
        profile, distance_m=spec.distance_m, packets=packets, seed=seed
    )
    report = recovery_report(metrics)
    report.update(
        {
            "profile": profile,
            "fault_timeline": [list(entry) for entry in injector.timeline],
        }
    )
    return report


@register_job_runner("deploy.region")
def run_deploy_region(spec: JobSpec) -> dict:
    """One region of a city-scale deployment (params: ``scenario`` —
    the full scenario JSON — ``region``, and optionally ``faults`` — a
    serialized :class:`~repro.faults.region.RegionFaultPlan`; the param
    is only present for non-empty plans, so unarmed job fingerprints
    never change).

    The runner takes no job generator: every stream inside the region
    derives content-addressed from the *scenario* fingerprint (and, when
    armed, the fault plan's), so the merged deployment manifest is
    bit-identical at any worker count, chunking, execution order or
    journal resume.
    """
    from ..deploy.partition import partition
    from ..deploy.region import simulate_region
    from ..deploy.spec import DeploymentSpec
    from ..faults.region import RegionFaultPlan

    scenario_json = spec.param("scenario")
    if scenario_json is None:
        raise ValueError("deploy.region job needs a 'scenario' param")
    scenario = DeploymentSpec.from_json(scenario_json)
    region_index = int(spec.param("region", "0"))
    part = partition(scenario)  # pure function of the spec
    if not 0 <= region_index < len(part.regions):
        raise ValueError(
            f"region {region_index} out of range: scenario "
            f"{scenario.name!r} partitions into {len(part.regions)} regions"
        )
    faults_json = spec.param("faults")
    fault_plan = (
        RegionFaultPlan.from_json(faults_json) if faults_json is not None else None
    )
    return simulate_region(
        scenario, part.regions[region_index], fault_plan=fault_plan
    )


def fault_profile_specs(
    distance_m: float = 0.5, packets: int = 2000, seed: int = 0
) -> "list[JobSpec]":
    """One ``faults.session`` job per named fault profile."""
    from ..faults import FAULT_PROFILES

    return [
        JobSpec.with_params(
            "faults.session",
            {"profile": profile, "packets": packets, "seed": seed},
            distance_m=float(distance_m),
        )
        for profile in FAULT_PROFILES
    ]


def energy_breakdown_specs(
    distance_m: float = 0.5, packets: int = 2000, seed: int = 0
) -> "list[JobSpec]":
    """One ``session.energy`` job per named energy profile."""
    from ..analysis.energy_report import ENERGY_PROFILES

    return [
        JobSpec.with_params(
            "session.energy",
            {"profile": profile, "packets": packets, "seed": seed},
            distance_m=float(distance_m),
        )
        for profile in ENERGY_PROFILES
    ]


def gain_matrix_specs(
    kind: str, distance_m: float = 0.3, device_names: "list[str] | None" = None
) -> list[JobSpec]:
    """Row-major specs for one gain-matrix campaign (one per (rx, tx))."""
    if device_names is None:
        from ..hardware.devices import DEVICES

        device_names = [d.name for d in DEVICES]
    traffic = "bidirectional" if kind == "gain.bidirectional" else "saturated"
    return [
        JobSpec(
            kind=kind,
            tx_device=tx,
            rx_device=rx,
            distance_m=float(distance_m),
            traffic=traffic,
        )
        for rx in device_names
        for tx in device_names
    ]


def distance_curve_specs(
    tx_device: str, rx_device: str, distances_m
) -> list[JobSpec]:
    """Specs for one directed gain-vs-distance curve."""
    return [
        JobSpec(
            kind="gain.distance",
            tx_device=tx_device,
            rx_device=rx_device,
            distance_m=float(d),
        )
        for d in distances_m
    ]


def campaign_specs(experiment: str) -> list[JobSpec]:
    """The job list behind one campaign-able experiment id: the
    experiment's registered :data:`~repro.experiments.registry.CampaignHook`
    (:mod:`repro.experiments.catalog`), one job per gain cell for the gain
    sweeps (fig15-18).

    Raises:
        ValueError: for ids with no campaign decomposition.
    """
    from ..experiments import campaignable_ids, get

    try:
        defn = get(experiment)
    except KeyError:
        defn = None
    if defn is None or defn.campaign is None:
        raise ValueError(
            f"no campaign decomposition for {experiment!r} "
            f"(supported: {', '.join(campaignable_ids())})"
        )
    return defn.campaign()
