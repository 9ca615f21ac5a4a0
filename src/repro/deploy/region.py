"""Simulate one region of a deployment: hubs, devices, churn, coupling.

A region (:class:`~repro.deploy.partition.Region`) is a set of hubs with
no RF path to the rest of the city, so it simulates independently.
Inside the region each hub runs a full packet-level
:class:`~repro.net.session.HubSession` — its own event calendar, TDMA
rotation, shared hub battery and per-client offload controllers: a
private kernel when the region is unarmed, a lane of the region kernel
(:meth:`~repro.sim.simulator.Simulator.lane`) when a fault plan arms it,
so that faults and hub-to-hub handoff, which run on the region kernel,
see every hub at their instant.  Cross-hub coupling otherwise enters
through the channel model: a hub that shares a
reuse channel with a neighbor sees that neighbor's TDMA bursts as a
:class:`~repro.sim.interference.BurstyInterferer`, attenuated by the
hub-to-hub path loss, on every one of its client links
(:class:`~repro.sim.interference.InterferedLink`, which memoizes per
burst state).  Orthogonal or isolated hubs keep the plain memoizing
:class:`~repro.sim.link.SimulatedLink`.  Every link, controller and LP
bound of a region uses one shared, default-configured
:class:`~repro.core.regimes.LinkMap`.

Churn runs *through the DES*: each device's join/leave/sleep timeline is
pre-sampled from its own content-addressed stream and compiled into
``suspend_client`` / ``resume_client`` events before the kernel starts,
so event interleaving can never perturb the draws.

Every random stream is derived from (scenario fingerprint, hub index,
device name, purpose) via :meth:`DeploymentSpec.stream` — never from the
executor's job RNG — which is what makes the merged deployment manifest
bit-identical at any worker count, chunking, execution order or resume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.braidio import BraidioRadio
from ..core.controller import DynamicOffloadController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.region import RegionFaultPlan
from ..core.regimes import LinkMap
from ..net.session import HubClient, HubSession
from ..net.tdma import TdmaSchedule
from ..phy.propagation import log_distance_path_loss_db
from ..sim.interference import BurstyInterferer, InterferedLink
from ..sim.link import SimulatedLink
from ..sim.mobility import MobilityDriver, RandomWaypoint1D
from ..sim.policies import BraidioPolicy
from ..sim.simulator import Simulator
from .partition import Region, quantize_distance
from .spec import ChurnProcess, DeploymentSpec

#: Seconds between mobility-model samples pushed into links/policies.
MOBILITY_TICK_S = 0.25

#: Mean burst length of a co-channel neighbor's TDMA activity (s).
NEIGHBOR_BURST_ON_S = 0.05

#: Mean quiet gap of a single co-channel neighbor (s); divided by the
#: neighbor count, so denser co-channel neighborhoods burst more often.
NEIGHBOR_BURST_OFF_S = 0.5

#: Reference hub separation (m) at which the scenario's nominal
#: interference penalty applies; closer neighbors hit harder.
PENALTY_REFERENCE_M = 10.0


def neighbor_penalty_db(
    spec: DeploymentSpec, neighbor_distances_m: "tuple[float, ...]"
) -> float:
    """SNR penalty a hub's co-channel neighbors inflict, in dB.

    The scenario's nominal ``interference_penalty_db`` is anchored at
    :data:`PENALTY_REFERENCE_M` and rolls off with the *nearest*
    co-channel neighbor's path loss (the dominant interferer), clamped
    to be non-negative.
    """
    if not neighbor_distances_m:
        return 0.0
    nearest = min(neighbor_distances_m)
    roll_off = log_distance_path_loss_db(
        nearest, path_loss_exponent=spec.path_loss_exponent
    ) - log_distance_path_loss_db(
        PENALTY_REFERENCE_M, path_loss_exponent=spec.path_loss_exponent
    )
    return max(0.0, spec.interference_penalty_db - roll_off)


@dataclass(frozen=True)
class DevicePlan:
    """One device's resolved identity within its hub.

    Attributes:
        name: globally unique device id (``h<hub>-<class><k>``).
        class_name: the device class it was drawn from.
        distance_m: initial hub separation (cm-quantized).
        timeline: churn events as (time_s, ``"suspend"``/``"resume"``).
    """

    name: str
    class_name: str
    distance_m: float
    timeline: "tuple[tuple[float, str], ...]"


def churn_timeline(
    rng, churn: ChurnProcess, horizon_s: float
) -> "tuple[tuple[float, str], ...]":
    """Pre-sample one device's suspend/resume events over the horizon.

    The draw order is fixed (join uniform, join delay, lifetime, then
    alternating awake/asleep dwells) so a device's timeline depends only
    on its own stream.  Events beyond the horizon are dropped; a
    permanent leave truncates everything after it.
    """
    events: "list[tuple[float, str]]" = []
    joins_late = float(rng.random()) < churn.late_join_fraction
    join_at = float(rng.exponential(churn.mean_join_delay_s))
    lifetime = (
        float(rng.exponential(churn.mean_lifetime_s))
        if churn.mean_lifetime_s > 0.0
        else math.inf
    )
    t = 0.0
    if joins_late:
        events.append((0.0, "suspend"))
        t = min(join_at, horizon_s)
        if t < horizon_s and t < lifetime:
            events.append((t, "resume"))
    leave_at = lifetime
    if churn.mean_awake_s > 0.0:
        while t < horizon_s:
            awake = float(rng.exponential(churn.mean_awake_s))
            asleep = float(rng.exponential(churn.mean_asleep_s))
            t += awake
            if t >= horizon_s or t >= leave_at:
                break
            events.append((t, "suspend"))
            t += asleep
            if t >= horizon_s or t >= leave_at:
                break
            events.append((t, "resume"))
    if leave_at < horizon_s:
        # Truncate at the permanent departure and suspend for good.
        events = [(ts, kind) for ts, kind in events if ts < leave_at]
        if not events or events[-1][1] == "resume" or events[-1][0] < leave_at:
            events.append((leave_at, "suspend"))
    return tuple(events)


def plan_hub_devices(
    spec: DeploymentSpec, global_hub_index: int
) -> "tuple[DevicePlan, ...]":
    """Resolve one hub's device population, deterministically.

    Class counts come from the spec's largest-remainder split; each
    device draws its placement and churn timeline from its own
    content-addressed stream (labels ``hub<g>:place:<name>`` /
    ``hub<g>:churn:<name>``).
    """
    counts = spec.class_counts()
    plans: "list[DevicePlan]" = []
    for device_class in spec.classes:
        for k in range(counts[device_class.name]):
            name = f"h{global_hub_index}-{device_class.name}{k}"
            place_rng = spec.stream(f"hub{global_hub_index}:place:{name}")
            distance = quantize_distance(
                float(
                    place_rng.uniform(
                        device_class.min_distance_m, device_class.max_distance_m
                    )
                )
            )
            if spec.churn.is_static:
                timeline: "tuple[tuple[float, str], ...]" = ()
            else:
                churn_rng = spec.stream(f"hub{global_hub_index}:churn:{name}")
                timeline = churn_timeline(churn_rng, spec.churn, spec.horizon_s)
            plans.append(
                DevicePlan(
                    name=name,
                    class_name=device_class.name,
                    distance_m=distance,
                    timeline=timeline,
                )
            )
    return tuple(plans)


def _lp_upper_bound(
    spec: DeploymentSpec, plans: "tuple[DevicePlan, ...]", link_map: LinkMap
) -> float:
    """Fleet-LP bits for this hub (analytic upper bound, Eq 1 form)."""
    from ..hardware.devices import device
    from ..net.hub import ClientPlacement, HubNetwork

    placements = [
        ClientPlacement(
            name=plan.name,
            spec=device(spec.device_class(plan.class_name).device),
            distance_m=plan.distance_m,
        )
        for plan in plans
    ]
    network = HubNetwork(spec.hub_device, placements, link_map=link_map)
    return network.plan(objective="total").total_bits


@functools.lru_cache(maxsize=1)
def _region_link_map(region: Region) -> LinkMap:
    """The default-configured :class:`LinkMap` a region shares.

    Every link, controller (hub clients and handoff twins alike) and LP
    bound of the region uses it.  Its budget, availability and plan
    memos are pure functions of the calibrated profiles and their keys,
    so sharing them changes no output; it spares each controller its own
    cold availability scans and plan solves at start and on every
    resume.  Only the region simulated last is kept, which bounds the
    plan memo to one region.
    """
    return LinkMap()


@dataclass
class _HubRuntime:
    """One hub's live simulation objects, kernel-agnostic.

    Built identically whether the hub runs on its own private kernel
    (the unarmed fast path) or on its own lane of the region kernel
    (the fault-armed path, where mid-run hub-to-hub handoff needs every
    session on one timeline).  Either way every event of the hub's
    calendar touches only this hub's session, clients, links, policies
    and batteries.
    """

    local_index: int
    global_index: int
    plans: "tuple[DevicePlan, ...]"
    clients: "list[HubClient]"
    session: HubSession
    hub_radio: BraidioRadio
    drivers: "list[MobilityDriver]"
    interfered: bool
    neighbor_count: int


def _build_hub(
    spec: DeploymentSpec,
    region: Region,
    local_index: int,
    sim: Simulator,
) -> _HubRuntime:
    """Instantiate one hub's session, clients, mobility and churn on
    ``sim``.

    Every random stream is content-addressed from the scenario
    fingerprint (placement, churn, links, mobility), so the build is
    independent of which kernel hosts it.  Churn is compiled into
    kernel events here — BEFORE the session starts — so a t=0
    late-join suspend lands before the first served packet.
    """
    global_index = region.hub_indices[local_index]
    plans = plan_hub_devices(spec, global_index)

    neighbor_distances = region.neighbor_distances_m(local_index)
    interferer = None
    if neighbor_distances:
        penalty_db = neighbor_penalty_db(spec, neighbor_distances)
        if penalty_db > 0.0:
            interferer = BurstyInterferer(
                spec.stream(f"hub{global_index}:interference"),
                mean_on_s=NEIGHBOR_BURST_ON_S,
                mean_off_s=NEIGHBOR_BURST_OFF_S / len(neighbor_distances),
                snr_penalty_db=penalty_db,
                horizon_s=spec.horizon_s,
            )

    hub_radio = BraidioRadio.for_device(spec.hub_device)
    clients: "list[HubClient]" = []
    weights: "dict[str, float]" = {}
    drivers: "list[MobilityDriver]" = []
    link_map = _region_link_map(region)

    for plan in plans:
        device_class = spec.device_class(plan.class_name)
        radio = BraidioRadio.for_device(device_class.device)
        link_rng = spec.stream(f"hub{global_index}:link:{plan.name}")
        if interferer is not None:
            link: SimulatedLink = InterferedLink(
                link_map, plan.distance_m, link_rng, interferer
            )
        else:
            link = SimulatedLink(link_map, plan.distance_m, link_rng)
        policy = BraidioPolicy(DynamicOffloadController(link_map))
        client = HubClient(name=plan.name, radio=radio, link=link, policy=policy)
        clients.append(client)
        weights[plan.name] = device_class.tdma_weight
        if device_class.mobility == "waypoint":
            model = RandomWaypoint1D(
                spec.stream(f"hub{global_index}:mobility:{plan.name}"),
                start_m=plan.distance_m,
                min_m=device_class.min_distance_m,
                max_m=device_class.max_distance_m,
                horizon_s=spec.horizon_s,
            )
            drivers.append(
                MobilityDriver(
                    sim, link, [policy], model, update_interval_s=MOBILITY_TICK_S
                )
            )

    tdma = TdmaSchedule(weights, round_packets=max(128, 2 * len(clients)))
    session = HubSession(
        sim,
        hub_radio,
        clients,
        tdma,
        payload_bytes=spec.payload_bytes,
        max_time_s=spec.horizon_s,
    )

    for plan in plans:
        for when, kind in plan.timeline:
            action = (
                session.suspend_client if kind == "suspend" else session.resume_client
            )
            sim.schedule_at(when, functools.partial(action, plan.name))

    return _HubRuntime(
        local_index=local_index,
        global_index=global_index,
        plans=plans,
        clients=clients,
        session=session,
        hub_radio=hub_radio,
        drivers=drivers,
        interfered=interferer is not None,
        neighbor_count=len(neighbor_distances),
    )


def _hub_kernel_seed(spec: DeploymentSpec, global_index: int) -> int:
    """Seed of a hub's kernel (or lane), from its ``hub<g>:kernel``
    stream."""
    return int(spec.stream(f"hub{global_index}:kernel").integers(2**31))


def simulate_hub(
    spec: DeploymentSpec, region: Region, local_index: int
) -> "dict[str, object]":
    """Run one hub's full DES session and report post-warmup metrics.

    The reported counters cover only the measured window
    ``[warmup_s, warmup_s + duration_s]`` — the warmup (controllers
    converging, TDMA rotations filling) is simulated but excluded, in
    the classic warmup/measure shape.
    """
    global_index = region.hub_indices[local_index]
    sim = Simulator(seed=_hub_kernel_seed(spec, global_index))
    runtime = _build_hub(spec, region, local_index, sim)
    clients = runtime.clients
    session = runtime.session

    counter_base: "list[tuple[int, int, int]]" = []
    hub_energy_base: "list[float]" = []
    client_energy_base: "dict[str, float]" = {}

    def snapshot() -> None:
        counter_base.append(_hub_counters(runtime))
        hub_energy_base.append(session.hub_metrics.energy_b_j)
        for client in clients:
            client_energy_base[client.name] = client.metrics.energy_a_j

    # Due before the horizon (a spec's duration_s is positive), and the
    # run includes events at its bound, so the snapshot always fires.
    sim.schedule_at(spec.warmup_s, snapshot)
    for driver in runtime.drivers:
        driver.start()
    session.run()
    # Drop the calendar (churn, mobility ticks and packets due past the
    # horizon): it links the kernel to the session in reference cycles,
    # which would keep the whole hub alive until the next GC pass.
    sim.stop()

    client_energy = 0.0
    for client in clients:
        client_energy += client.metrics.energy_a_j - client_energy_base[client.name]
    hub_energy = session.hub_metrics.energy_b_j - hub_energy_base[0]
    return _hub_report(
        spec, region, runtime, counter_base[0], client_energy, hub_energy
    )


def _hub_counters(runtime: _HubRuntime) -> "tuple[int, int, int]":
    """A hub's (bits delivered, packets delivered, packets attempted)."""
    metrics = runtime.session.hub_metrics
    return (
        metrics.bits_delivered,
        metrics.packets_delivered,
        metrics.packets_attempted,
    )


def _hub_report(
    spec: DeploymentSpec,
    region: Region,
    runtime: _HubRuntime,
    counters_at_warmup: "tuple[int, int, int]",
    client_energy_j: float,
    hub_energy_j: float,
) -> "dict[str, object]":
    """The per-hub report keys both region paths share.

    Counters are the measured window's deltas (now minus
    ``counters_at_warmup``); each path measures the window's client and
    hub energy its own way and passes it in.  ``lp_bits`` rides along
    when the spec solves the fleet LP.
    """
    bits, delivered, attempted = (
        now - then for now, then in zip(_hub_counters(runtime), counters_at_warmup)
    )
    session = runtime.session
    report: "dict[str, object]" = {
        "hub": runtime.global_index,
        "region": region.index,
        "channel": region.channels[runtime.local_index],
        "devices": len(runtime.plans),
        "co_channel_neighbors": runtime.neighbor_count,
        "interfered": runtime.interfered,
        "bits_delivered": int(bits),
        "packets_delivered": int(delivered),
        "packets_attempted": int(attempted),
        "delivery_ratio": (delivered / attempted) if attempted else 1.0,
        "goodput_bps": bits / spec.duration_s,
        "client_energy_j": float(client_energy_j),
        "hub_energy_j": float(hub_energy_j),
        "suspensions": session.churn_suspensions,
        "resumes": session.churn_resumes,
        "suspended_s": session.suspended_time_s,
        "terminated_by": session.hub_metrics.terminated_by,
    }
    if spec.lp_plan:
        report["lp_bits"] = _lp_upper_bound(
            spec, runtime.plans, _region_link_map(region)
        )
    return report


def simulate_region(
    spec: DeploymentSpec,
    region: Region,
    fault_plan: "RegionFaultPlan | None" = None,
) -> "dict[str, object]":
    """Simulate every hub of one region; returns the region report.

    Unarmed (no plan, or an empty one) hubs share the region's
    :func:`_region_link_map` (its availability cache is the controllers'
    hot path) and run sequentially on their own kernels — the
    parallelism lever is *regions across worker processes*, not hubs
    within a region.  An empty :class:`~repro.faults.region.RegionFaultPlan`
    takes exactly this path, so it is bit-identical to a run with the
    fault machinery absent.

    A non-empty plan routes through the resilient path
    (:func:`_simulate_region_resilient`): every hub rides its own lane
    of one region kernel, which runs the faults and the handoffs, so a
    blackout on one hub can hand its devices to a live neighbor mid-run.
    """
    if fault_plan is None or fault_plan.is_empty:
        hubs = [
            simulate_hub(spec, region, local_index)
            for local_index in range(region.hub_count)
        ]
        return _region_report(spec, region, hubs)
    return _simulate_region_resilient(spec, region, fault_plan)


def _region_report(
    spec: DeploymentSpec, region: Region, hubs: "list[dict[str, object]]"
) -> "dict[str, object]":
    """Fold per-hub reports into the region report (shared by both
    paths; resilience keys ride on top only when armed)."""
    report: "dict[str, object]" = {
        "region": region.index,
        "hubs": hubs,
        "hub_count": region.hub_count,
        "devices": int(sum(h["devices"] for h in hubs)),  # type: ignore[misc]
        "bits_delivered": int(sum(h["bits_delivered"] for h in hubs)),  # type: ignore[misc]
        "packets_delivered": int(sum(h["packets_delivered"] for h in hubs)),  # type: ignore[misc]
        "packets_attempted": int(sum(h["packets_attempted"] for h in hubs)),  # type: ignore[misc]
        "client_energy_j": float(sum(h["client_energy_j"] for h in hubs)),  # type: ignore[misc]
        "hub_energy_j": float(sum(h["hub_energy_j"] for h in hubs)),  # type: ignore[misc]
        "suspensions": int(sum(h["suspensions"] for h in hubs)),  # type: ignore[misc]
        "resumes": int(sum(h["resumes"] for h in hubs)),  # type: ignore[misc]
        "interfered_hubs": int(sum(1 for h in hubs if h["interfered"])),
    }
    if spec.lp_plan:
        report["lp_bits"] = float(sum(h["lp_bits"] for h in hubs))  # type: ignore[misc]
    return report


# -- resilient (fault-armed) path ---------------------------------------


@dataclass(frozen=True)
class _DeviceHome:
    """One device's failover identity: where it lives and what it
    weighs."""

    name: str
    home_local: int
    home_global: int
    #: Separation from the home hub (cm-quantized, as planned).
    distance_m: float
    tdma_weight: float
    radio: BraidioRadio


class HandoffCoordinator:
    """Executes hub-to-hub failover for one region under fault pressure.

    When a hub goes dark (:meth:`hub_down`), every device it was
    actively serving becomes an *orphan* and retries association with
    the nearest live neighbor hub under deterministic exponential
    backoff; a viable neighbor (the link budget must close at the
    device-to-hub distance — at city hub spacings only the active
    radio reaches, which is exactly Braidio's asymmetric-energy story)
    adopts a *twin* client sharing the device's battery.  The rebooting
    hub (:meth:`hub_up`) reclaims its flock: twins are released and the
    home session re-plans.  Orphan time, handoff counts/latency and
    dark-hub time accrue for the degradation metrics.

    Determinism: backoff jitter draws from a content-addressed region
    fault stream consumed in DES order, each twin link draws from its
    own scenario stream (``hub<g>:handoff:<name>:<n>``), and a device's
    position, drawn on its first handoff attempt, from its
    ``hub<g>:angle:<name>`` stream — never from worker or wall-clock
    state.  Every method runs as a region-kernel event: it may touch
    several hubs, so each hub's lane has run up to its instant.
    """

    #: Re-association attempts before a device waits for its home hub.
    MAX_ATTEMPTS = 3
    #: Base re-admission backoff (doubles per attempt).
    BACKOFF_BASE_S = 0.05
    #: Jitter span added to each backoff (de-synchronizes the flock).
    JITTER_S = 0.02

    def __init__(
        self,
        spec: DeploymentSpec,
        region: Region,
        sim: Simulator,
        runtimes: "list[_HubRuntime]",
        rng,
    ) -> None:
        self._spec = spec
        self._region = region
        self._sim = sim
        self._runtimes = runtimes
        self._link_map = _region_link_map(region)
        self._rng = rng
        self._devices: "dict[str, _DeviceHome]" = {}
        for runtime in runtimes:
            for plan, client in zip(runtime.plans, runtime.clients):
                self._devices[plan.name] = _DeviceHome(
                    name=plan.name,
                    home_local=runtime.local_index,
                    home_global=runtime.global_index,
                    distance_m=plan.distance_m,
                    tdma_weight=spec.device_class(plan.class_name).tdma_weight,
                    radio=client.radio,
                )
        self._neighbor_orders: "dict[str, tuple[tuple[float, int], ...]]" = {}
        # Failover state.
        self._adopted_at: "dict[str, int]" = {}
        self._adoption_counts: "dict[str, int]" = {}
        self._orphan_since: "dict[str, float]" = {}
        self._orphan_windows: "list[tuple[int, float, float]]" = []
        self._down_since: "dict[int, float]" = {}
        self._down_windows: "list[tuple[int, float, float]]" = []
        self._surges: "list[tuple[float, int | None]]" = []
        # Aggregate counters.
        self.handoffs = 0
        self.failed_handoffs = 0
        self.reclaims = 0
        self._latency_total_s = 0.0
        self._handoffs_out = {rt.local_index: 0 for rt in runtimes}
        self._handoffs_in = {rt.local_index: 0 for rt in runtimes}
        self._failed_by_home = {rt.local_index: 0 for rt in runtimes}

    # -- driver-facing surface -------------------------------------------

    @property
    def simulator(self) -> Simulator:
        """The region kernel, whose lanes carry the hubs."""
        return self._sim

    def runtime(self, local_index: int) -> _HubRuntime:
        """One hub's live objects, by local index."""
        return self._runtimes[local_index]

    def local_index_of(self, global_hub: int) -> int:
        """Map a global hub index into this region.

        Raises:
            ValueError: for hubs outside the region.
        """
        return self._region.hub_indices.index(global_hub)

    def hub_down(self, local_index: int) -> None:
        """Blackout onset: power the hub down and orphan its flock."""
        runtime = self._runtimes[local_index]
        session = runtime.session
        if session.finished or session.powered_down:
            return
        now = self._sim.now_s
        # Devices this hub had adopted from an earlier blackout are
        # orphaned anew (cascading failures).
        for name, host in list(self._adopted_at.items()):
            if host == local_index:
                session.release_client(name)
                del self._adopted_at[name]
                self._begin_orphan(name, now)
        session.power_down()
        self._down_since[local_index] = now
        for client in runtime.clients:
            name = client.name
            if (
                name in session.suspended_clients
                or name in session.exhausted_clients
                or name in self._adopted_at
                or name in self._orphan_since
            ):
                continue
            self._begin_orphan(name, now)

    def hub_up(self, local_index: int) -> None:
        """Blackout end: the hub reboots and reclaims its flock."""
        runtime = self._runtimes[local_index]
        session = runtime.session
        now = self._sim.now_s
        for name, host in list(self._adopted_at.items()):
            if self._devices[name].home_local == local_index:
                self._runtimes[host].session.release_client(name)
                del self._adopted_at[name]
                self.reclaims += 1
        for name in list(self._orphan_since):
            if self._devices[name].home_local == local_index:
                self._end_orphan(name, now)
        session.power_up()
        started = self._down_since.pop(local_index, None)
        if started is not None:
            self._down_windows.append((local_index, started, now))

    def begin_brownout(self, local_index: int) -> None:
        """Carrier brownout onset: envelope-detector modes fail on this
        hub (its adopted twins included — they ride the same carrier)."""
        self._runtimes[local_index].session.begin_brownout()

    def end_brownout(self, local_index: int) -> None:
        """Carrier brownout cleared."""
        self._runtimes[local_index].session.end_brownout()

    def begin_surge(self, magnitude_db: float, local_index: "int | None" = None) -> None:
        """Noise-floor surge onset: every in-scope link (twins included)
        loses ``magnitude_db`` of SNR; twins adopted mid-surge inherit
        the active offset."""
        self._surges.append((magnitude_db, local_index))
        for link in self._scoped_links(local_index):
            link.snr_offset_db = link.snr_offset_db - magnitude_db

    def end_surge(self, magnitude_db: float, local_index: "int | None" = None) -> None:
        """Noise-floor surge cleared."""
        self._surges.remove((magnitude_db, local_index))
        for link in self._scoped_links(local_index):
            link.snr_offset_db = link.snr_offset_db + magnitude_db

    def storm_suspend(self, name: str) -> None:
        """Flash-churn: the device flaps off the air wherever it is
        currently served.  An orphan that flaps stops accruing orphan
        time (an asleep device demands no coverage)."""
        now = self._sim.now_s
        if name in self._orphan_since:
            self._end_orphan(name, now)
        self._session_serving(name).suspend_client(name)

    def storm_resume(self, name: str) -> None:
        """Flash-churn nap over: wake the device wherever it sleeps; if
        its home hub is still dark and nobody adopted it, it re-enters
        the orphan pool."""
        session = self._session_serving(name)
        if name not in session.suspended_clients:
            for runtime in self._runtimes:
                if name in runtime.session.suspended_clients:
                    session = runtime.session
                    break
        if name in session.suspended_clients:
            session.resume_client(name)
        home = self._runtimes[self._devices[name].home_local].session
        if (
            home.powered_down
            and name not in self._adopted_at
            and name not in self._orphan_since
            and name not in home.suspended_clients
        ):
            self._begin_orphan(name, self._sim.now_s)

    # -- handoff state machine -------------------------------------------

    def _session_serving(self, name: str) -> HubSession:
        host = self._adopted_at.get(name)
        if host is not None:
            return self._runtimes[host].session
        return self._runtimes[self._devices[name].home_local].session

    def _scoped_links(self, local_index: "int | None") -> "list[SimulatedLink]":
        links: "list[SimulatedLink]" = []
        for runtime in self._runtimes:
            if local_index is not None and runtime.local_index != local_index:
                continue
            links.extend(client.link for client in runtime.clients)
            for name, host in self._adopted_at.items():
                if host == runtime.local_index:
                    links.append(runtime.session.client(name).link)
        return links

    def _surge_db_for(self, local_index: int) -> float:
        return sum(
            db
            for db, scope in self._surges
            if scope is None or scope == local_index
        )

    def _neighbor_order(self, record: _DeviceHome) -> "tuple[tuple[float, int], ...]":
        """(distance_m, local_index) per other hub of the region, nearest
        first.  Computed on the device's first handoff attempt and kept:
        its angle stream is content-addressed, so when it is drawn
        changes no value."""
        order = self._neighbor_orders.get(record.name)
        if order is None:
            positions = self._region.positions_m
            hx, hy = positions[record.home_local]
            theta = float(
                self._spec.stream(
                    f"hub{record.home_global}:angle:{record.name}"
                ).uniform(0.0, 2.0 * math.pi)
            )
            x = hx + record.distance_m * math.cos(theta)
            y = hy + record.distance_m * math.sin(theta)
            order = tuple(
                sorted(
                    (
                        quantize_distance(
                            math.hypot(
                                x - positions[other.local_index][0],
                                y - positions[other.local_index][1],
                            )
                        ),
                        other.local_index,
                    )
                    for other in self._runtimes
                    if other.local_index != record.home_local
                )
            )
            self._neighbor_orders[record.name] = order
        return order

    def _begin_orphan(self, name: str, now: float) -> None:
        self._orphan_since[name] = now
        self._schedule_attempt(name, 0)

    def _end_orphan(self, name: str, now: float) -> None:
        started = self._orphan_since.pop(name)
        self._orphan_windows.append(
            (self._devices[name].home_local, started, now)
        )

    def _schedule_attempt(self, name: str, attempt: int) -> None:
        jitter = float(self._rng.random()) * self.JITTER_S
        delay = self.BACKOFF_BASE_S * (2 ** attempt) + jitter
        self._sim.schedule_in(
            delay, functools.partial(self._attempt_handoff, name, attempt)
        )

    def _attempt_handoff(self, name: str, attempt: int) -> None:
        if name not in self._orphan_since:
            return  # adopted, reclaimed or napping meanwhile
        record = self._devices[name]
        home = self._runtimes[record.home_local].session
        if not home.powered_down:
            return  # home is back; reclaim already settled the orphan
        if name in home.suspended_clients:
            return  # asleep through the blackout: it never notices
        for distance_m, local_index in self._neighbor_order(record):
            host = self._runtimes[local_index].session
            if host.powered_down or host.finished:
                continue
            if not self._link_map.available_powers(distance_m):
                continue
            self._adopt(name, record, local_index, distance_m)
            return
        self.failed_handoffs += 1
        self._failed_by_home[record.home_local] += 1
        if attempt + 1 < self.MAX_ATTEMPTS:
            self._schedule_attempt(name, attempt + 1)

    def _adopt(
        self, name: str, record: _DeviceHome, local_index: int, distance_m: float
    ) -> None:
        count = self._adoption_counts.get(name, 0)
        self._adoption_counts[name] = count + 1
        link = SimulatedLink(
            self._link_map,
            distance_m,
            self._spec.stream(f"hub{record.home_global}:handoff:{name}:{count}"),
        )
        surge_db = self._surge_db_for(local_index)
        if surge_db:
            link.snr_offset_db = -surge_db
        policy = BraidioPolicy(DynamicOffloadController(self._link_map))
        twin = HubClient(name=name, radio=record.radio, link=link, policy=policy)
        host = self._runtimes[local_index].session
        host.adopt_client(twin, weight=record.tdma_weight)
        self._adopted_at[name] = local_index
        now = self._sim.now_s
        started = self._orphan_since.pop(name)
        self._orphan_windows.append((record.home_local, started, now))
        self._latency_total_s += now - started
        self.handoffs += 1
        self._handoffs_out[record.home_local] += 1
        self._handoffs_in[local_index] += 1

    # -- degradation metrics ---------------------------------------------

    def summarize(self) -> "dict[str, object]":
        """Clipped degradation metrics for the measured window.

        Orphan and dark-hub intervals are clipped to
        ``[warmup_s, horizon_s]``; windows still open at the horizon
        (a hub that never rebooted) are closed there.
        """
        warmup = self._spec.warmup_s
        horizon = self._spec.horizon_s
        duration = self._spec.duration_s

        def clipped(start: float, end: float) -> float:
            return max(0.0, min(end, horizon) - max(start, warmup))

        orphan_windows = list(self._orphan_windows) + [
            (self._devices[name].home_local, started, horizon)
            for name, started in self._orphan_since.items()
        ]
        down_windows = list(self._down_windows) + [
            (local, started, horizon)
            for local, started in self._down_since.items()
        ]
        per_hub: "dict[int, dict[str, object]]" = {}
        for runtime in self._runtimes:
            local = runtime.local_index
            orphan_s = sum(
                clipped(start, end)
                for home, start, end in orphan_windows
                if home == local
            )
            dark_s = sum(
                clipped(start, end)
                for where, start, end in down_windows
                if where == local
            )
            devices = len(runtime.plans)
            per_hub[local] = {
                "orphaned_device_s": orphan_s,
                "dark_s": dark_s,
                "handoffs_out": self._handoffs_out[local],
                "handoffs_in": self._handoffs_in[local],
                "failed_handoffs": self._failed_by_home[local],
                "coverage_ratio": 1.0 - orphan_s / (devices * duration),
            }
        total_orphan = float(
            sum(hub["orphaned_device_s"] for hub in per_hub.values())  # type: ignore[misc]
        )
        total_devices = sum(len(rt.plans) for rt in self._runtimes)
        region = {
            "coverage_ratio": 1.0 - total_orphan / (total_devices * duration),
            "orphaned_device_s": total_orphan,
            "dark_hub_s": float(
                sum(hub["dark_s"] for hub in per_hub.values())  # type: ignore[misc]
            ),
            "handoffs": self.handoffs,
            "failed_handoffs": self.failed_handoffs,
            "reclaims": self.reclaims,
            "handoff_latency_mean_s": (
                self._latency_total_s / self.handoffs if self.handoffs else 0.0
            ),
        }
        return {"per_hub": per_hub, "region": region}


def _simulate_region_resilient(
    spec: DeploymentSpec, region: Region, fault_plan: "RegionFaultPlan"
) -> "dict[str, object]":
    """Armed path: faults and hub-to-hub handoff cross hub boundaries
    mid-run.

    Each hub runs on its own lane of one region kernel, seeded from its
    ``hub<g>:kernel`` stream as :func:`simulate_hub` seeds its private
    kernel, so its serve chains run inline up to the next cross-hub
    event.  Only what touches several hubs runs on the region kernel:
    the fault driver's edges, the handoff coordinator and the warmup
    snapshot.  The kernel orders the two kinds of event as one calendar
    would (:meth:`~repro.sim.simulator.Simulator.lane`).

    Energy here is accounted by *battery deltas* over the measured
    window (a device adopted by a neighbor drains the same physical
    battery through its twin), and throughput by the serving hub's
    session counters — a device handed off mid-blackout counts toward
    its adoptive hub's bits.
    """
    from ..faults.deploy import RegionFaultDriver
    from ..faults.seeding import region_fault_rng

    sim_seed = int(spec.stream(f"region{region.index}:kernel").integers(2**31))
    sim = Simulator(seed=sim_seed)
    runtimes = [
        _build_hub(
            spec,
            region,
            local_index,
            sim.lane(_hub_kernel_seed(spec, region.hub_indices[local_index])),
        )
        for local_index in range(region.hub_count)
    ]
    handoff_rng = region_fault_rng(
        spec.fingerprint(), fault_plan, f"region{region.index}:handoff", spec.seed
    )
    coordinator = HandoffCoordinator(spec, region, sim, runtimes, handoff_rng)
    driver = RegionFaultDriver(spec, region, fault_plan, coordinator)
    driver.arm()

    counter_base: "dict[int, tuple[int, int, int]]" = {}
    battery_base: "dict[str, float]" = {}
    hub_battery_base: "dict[int, float]" = {}

    def snapshot() -> None:
        for runtime in runtimes:
            counter_base[runtime.local_index] = _hub_counters(runtime)
            hub_battery_base[runtime.local_index] = (
                runtime.hub_radio.battery.remaining_j
            )
            for client in runtime.clients:
                battery_base[client.name] = client.radio.battery.remaining_j

    sim.schedule_at(spec.warmup_s, snapshot)  # always fires, as in simulate_hub
    for runtime in runtimes:
        for driver_ in runtime.drivers:
            driver_.start()
    for runtime in runtimes:
        runtime.session.start()
    sim.run(until_s=spec.horizon_s)
    sim.stop()  # as in simulate_hub: free the region by reference counting
    for runtime in runtimes:
        runtime.session.finish("time")

    resilience = coordinator.summarize()
    hubs: "list[dict[str, object]]" = []
    for runtime in runtimes:
        client_energy = sum(
            battery_base[client.name] - client.radio.battery.remaining_j
            for client in runtime.clients
        )
        hub_energy = (
            hub_battery_base[runtime.local_index]
            - runtime.hub_radio.battery.remaining_j
        )
        report = _hub_report(
            spec, region, runtime,
            counter_base[runtime.local_index], client_energy, hub_energy,
        )
        metrics = runtime.session.hub_metrics
        report["fault_events"] = metrics.fault_events
        report["reboots"] = metrics.reboots
        report.update(resilience["per_hub"][runtime.local_index])  # type: ignore[index, call-overload]
        hubs.append(report)
    region_report = _region_report(spec, region, hubs)
    region_block = dict(resilience["region"])  # type: ignore[arg-type, call-overload]
    region_block["fault_events"] = driver.fault_events
    region_report["resilience"] = region_block
    return region_report
