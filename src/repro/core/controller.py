"""Dynamic carrier-offload controller.

This is the runtime half of §4.2: the static optimization
(:mod:`repro.core.offload`) picks mode fractions, and this controller

* prunes candidate modes by link availability (distance/SNR) and by
  observed failures,
* turns the solution into a packet schedule,
* falls back to the active mode when the current mode performs poorly
  ("Braidio simply falls back to the active mode if the current operating
  mode is performing poorly"),
* re-probes failed modes after a back-off, and
* periodically re-computes the fractions as batteries drain or the link
  changes ("Braidio also periodically re-computes the ratio of using
  different modes depending on observed dynamics").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.power_models import ModePower
from ..mac.scheduler import ModeSchedule
from .modes import LinkMode
from .offload import InfeasibleOffloadError, OffloadSolution, solve_offload
from .regimes import LinkMap, Regime


# Read once: an enum member lookup costs about 0.1 us on the per-packet
# outcome path.
_ACTIVE = LinkMode.ACTIVE

#: Entries a LinkMap's plan memo holds before it is dropped wholesale.  A
#: deployment region needs a few hundred; the bound only matters for a
#: map that outlives many re-plans on drifting energies, which never hit.
_PLAN_MEMO_MAX = 4096


@dataclass(frozen=True)
class OffloadPlan:
    """A committed operating plan.

    Attributes:
        solution: the optimizer output (fractions over operating points).
        schedule: the packet-level realization of those fractions.
        regime: operating regime at plan time.
        bitrates: per-mode bitrate the plan uses.
    """

    solution: OffloadSolution
    schedule: ModeSchedule
    regime: Regime
    bitrates: dict[LinkMode, int]

    def power_for(self, mode: LinkMode) -> ModePower:
        """The operating point for ``mode`` under this plan.

        Prefers the point the solution actually mixes; for a mode the plan
        knows (it was a candidate) but assigns zero share — which happens
        transiently when a re-plan lands between schedule lookup and power
        lookup — the candidate point is returned instead.

        Raises:
            KeyError: if ``mode`` was not even a candidate.
        """
        for point, fraction in zip(self.solution.points, self.solution.fractions):
            if point.mode is mode and fraction > 1e-12:
                return point
        for point in self.solution.points:
            if point.mode is mode:
                return point
        from ..hardware.power_models import paper_mode_power

        if mode in self.bitrates:
            return paper_mode_power(mode, self.bitrates[mode])
        raise KeyError(f"plan has no candidate for mode {mode}")


@dataclass
class _ModeHealth:
    """Sliding failure statistics for one mode.

    Beyond the failure window (the last ``failure_window`` outcomes in
    ``outcomes``), each mode carries a blacklist state: ``strikes``
    counts consecutive exclusions (the back-off doubles per strike) and
    ``clean_streak`` counts successes since the last failure (a full
    window of clean packets decays one strike).  ``window_ok`` counts
    the successes in ``outcomes``, so the failure rate costs no pass
    over the window.  :meth:`DynamicOffloadController.record_outcome`
    updates all of it in place.
    """

    successes: int = 0
    failures: int = 0
    excluded_until_packet: int | None = None
    outcomes: list[bool] = field(default_factory=list)
    strikes: int = 0
    clean_streak: int = 0
    window_ok: int = 0

    def clear_window(self) -> None:
        self.outcomes.clear()
        self.window_ok = 0


class DynamicOffloadController:
    """Stateful carrier-offload decision engine for one link pair.

    Args:
        link_map: per-distance mode availability (defaults to the
            paper-calibrated map).
        period_packets: scheduling-round length.
        recompute_interval_packets: packets between periodic re-plans.
        failure_window: sliding window for per-mode failure statistics.
        failure_threshold: recent failure rate that triggers fallback.
        reprobe_packets: back-off before a failed mode is retried; doubles
            with each consecutive strike, up to ``max_backoff_doublings``.
        max_backoff_doublings: cap on the exponential back-off growth (a
            mode with ``n`` strikes waits
            ``reprobe_packets * 2**min(n - 1, cap)`` packets).
    """

    def __init__(
        self,
        link_map: LinkMap | None = None,
        period_packets: int = 64,
        recompute_interval_packets: int = 4096,
        failure_window: int = 16,
        failure_threshold: float = 0.5,
        reprobe_packets: int = 2048,
        max_backoff_doublings: int = 4,
    ) -> None:
        if period_packets <= 0 or recompute_interval_packets <= 0:
            raise ValueError("packet intervals must be positive")
        if failure_window <= 0 or reprobe_packets <= 0:
            raise ValueError("window and back-off must be positive")
        if max_backoff_doublings < 0:
            raise ValueError("back-off doubling cap must be non-negative")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure threshold must be in (0, 1]")

        self._link_map = link_map if link_map is not None else LinkMap()
        self._period = period_packets
        self._recompute_interval = recompute_interval_packets
        self._failure_window = failure_window
        self._failure_threshold = failure_threshold
        self._reprobe_packets = reprobe_packets
        self._max_backoff_doublings = max_backoff_doublings

        self._plan: OffloadPlan | None = None
        self._packet_index = 0
        self._last_plan_packet = 0
        self._distance_m = 0.0
        self._e1_j = 0.0
        self._e2_j = 0.0
        self._health: dict[LinkMode, _ModeHealth] = {
            mode: _ModeHealth() for mode in LinkMode
        }
        # No blacklisted mode can be readmitted before this packet index
        # (None: nothing is excluded), so next_packet_mode skips the
        # exclusion scan until then.
        self._next_readmit_packet: int | None = None
        # The committed schedule's modes for the packets from
        # _round_start up to _round_end (one scheduling round); every new
        # plan empties the span.
        self._round_modes: tuple[LinkMode, ...] = ()
        self._round_start = 0
        self._round_end = 0
        self.replans = 0
        self.fallbacks = 0
        self.forced_active = 0

    @property
    def plan(self) -> OffloadPlan | None:
        """The committed plan, or ``None`` before :meth:`start`."""
        return self._plan

    @property
    def link_map(self) -> LinkMap:
        """The availability map the controller plans against."""
        return self._link_map

    def start(self, distance_m: float, e1_j: float, e2_j: float) -> OffloadPlan:
        """Initial negotiation: prune, solve, schedule.

        ``e1_j``/``e2_j`` are the joules left at the data transmitter and
        the data receiver (e.g. each battery's ``remaining_j``).

        Raises:
            InfeasibleOffloadError: if no mode works at ``distance_m``.
        """
        self._distance_m = distance_m
        self._e1_j = e1_j
        self._e2_j = e2_j
        self._commit(self._compute_plan())
        return self._plan

    def start_from_reports(
        self, reports, e1_j: float, e2_j: float, max_ber: float | None = None
    ) -> OffloadPlan:
        """Negotiate from *measured* link quality instead of the oracle
        availability map — the §4.2 flow where probe packets determine the
        SNR/bitrate parameters.

        Args:
            reports: iterable of :class:`~repro.mac.protocol.ProbeReport`
                (e.g. from :class:`~repro.sim.estimation.LinkProber`).
            e1_j / e2_j: end-point energies.
            max_ber: prune reports above this measured BER (defaults to
                the availability map's operational threshold).

        Raises:
            InfeasibleOffloadError: if no probed link is viable.
        """
        from ..hardware.power_models import paper_mode_power

        threshold = self._link_map.target_ber if max_ber is None else max_ber
        best: dict[LinkMode, int] = {}
        for report in reports:
            if report.ber > threshold:
                continue
            current = best.get(report.mode)
            if current is None or report.bitrate_bps > current:
                best[report.mode] = report.bitrate_bps
        if not best:
            raise InfeasibleOffloadError("no probed link meets the BER threshold")

        candidates = [
            paper_mode_power(mode, bitrate) for mode, bitrate in best.items()
        ]
        self._e1_j = e1_j
        self._e2_j = e2_j
        solution = solve_offload(candidates, e1_j, e2_j)
        schedule = ModeSchedule(dict(solution.mode_fractions()), self._period)
        self.replans += 1
        self._commit(
            OffloadPlan(
                solution=solution,
                schedule=schedule,
                regime=self._regime_from_modes(set(best)),
                bitrates=dict(best),
            )
        )
        return self._plan

    @staticmethod
    def _regime_from_modes(modes: set[LinkMode]) -> Regime:
        if LinkMode.BACKSCATTER in modes:
            return Regime.A
        if LinkMode.PASSIVE in modes:
            return Regime.B
        return Regime.C

    def _candidate_powers(self) -> list[ModePower]:
        candidates = []
        for availability in self._link_map.available_modes(self._distance_m):
            if not availability.available:
                continue
            health = self._health[availability.mode]
            if (
                health.excluded_until_packet is not None
                and self._packet_index < health.excluded_until_packet
            ):
                continue
            candidates.append(availability.power())
        return candidates

    def _forced_active_candidates(self) -> list[ModePower]:
        """Last-resort candidate set when exclusions empty the normal one:
        whatever the link still physically offers, preferring the
        self-powered active mode (the §4.2 "simply falls back to the
        active mode" contract must hold even mid-blacklist)."""
        available = [
            a for a in self._link_map.available_modes(self._distance_m) if a.available
        ]
        if not available:
            return []
        self.forced_active += 1
        active = [a.power() for a in available if a.mode is LinkMode.ACTIVE]
        return active if active else [a.power() for a in available]

    def _compute_plan(self) -> OffloadPlan:
        candidates = self._candidate_powers()
        if not candidates:
            candidates = self._forced_active_candidates()
        if not candidates:
            raise InfeasibleOffloadError(
                f"no operating mode available at {self._distance_m} m"
            )
        # The solution, schedule and bitrates are a pure function of the
        # candidates, both energies and the period, so every controller
        # planning against this map shares one computation per input.
        memo = self._link_map.plan_memo
        key = (tuple(candidates), self._e1_j, self._e2_j, self._period)
        planned = memo.get(key)
        if planned is None:
            solution = solve_offload(candidates, self._e1_j, self._e2_j)
            planned = (
                solution,
                ModeSchedule(dict(solution.mode_fractions()), self._period),
                {p.mode: p.bitrate_bps for p in candidates},
            )
            if len(memo) >= _PLAN_MEMO_MAX:
                memo.clear()
            memo[key] = planned
        self.replans += 1
        solution, schedule, bitrates = planned
        return OffloadPlan(
            solution=solution,
            schedule=schedule,
            regime=self._link_map.classify(self._distance_m),
            bitrates=bitrates,
        )

    def _commit(self, plan: OffloadPlan) -> None:
        """Adopt ``plan`` from the current packet on."""
        self._plan = plan
        self._last_plan_packet = self._packet_index
        self._round_end = 0

    def next_packet_mode(self) -> tuple[LinkMode, int]:
        """(mode, bitrate) for the next packet; advances the schedule.

        The mode is ``plan.schedule.mode_for_packet(index)``, read from
        the current round's modes, which are loaded once per round and
        plan.

        Raises:
            RuntimeError: if :meth:`start` has not been called.
        """
        plan = self._plan
        if plan is None:
            raise RuntimeError("controller not started")
        index = self._packet_index
        if index >= self._round_end:
            schedule = plan.schedule
            period = schedule.period_packets
            round_index = index // period
            self._round_modes = schedule.round_modes(round_index)
            self._round_start = round_index * period
            self._round_end = self._round_start + period
        mode = self._round_modes[index - self._round_start]
        index += 1
        self._packet_index = index
        if index - self._last_plan_packet >= self._recompute_interval:
            self._replan()
        else:
            readmit = self._next_readmit_packet
            if readmit is not None and index >= readmit and self._clear_expired_exclusions():
                # A blacklisted mode's back-off just lapsed: readmit it
                # now instead of waiting for the periodic recompute.
                self._replan()
        return mode, self._plan.bitrates[mode]

    def _clear_expired_exclusions(self) -> bool:
        """Readmit every mode whose back-off lapsed by the current
        packet; ``True`` if any did."""
        cleared = False
        pending = None
        for health in self._health.values():
            until = health.excluded_until_packet
            if until is None:
                continue
            if self._packet_index >= until:
                health.excluded_until_packet = None
                cleared = True
            elif pending is None or until < pending:
                pending = until
        self._next_readmit_packet = pending
        return cleared

    def record_outcome(self, mode: LinkMode, success: bool) -> None:
        """Feed back a packet outcome; may trigger active-mode fallback.

        Clean traffic also decays the blacklist: a full failure window of
        consecutive successes forgives one strike, so a mode that failed
        during a transient fault earns its short back-off again.
        """
        health = self._health[mode]
        window = self._failure_window
        outcomes = health.outcomes
        outcomes.append(success)
        if len(outcomes) > window and outcomes.pop(0):
            health.window_ok -= 1
        if success:
            health.window_ok += 1
            health.successes += 1
            health.clean_streak += 1
            if health.strikes > 0 and health.clean_streak >= window:
                health.strikes -= 1
                health.clean_streak = 0
        else:
            health.failures += 1
            health.clean_streak = 0
        if (
            mode is not _ACTIVE
            and len(outcomes) >= window
            and 1.0 - health.window_ok / len(outcomes) >= self._failure_threshold
        ):
            self._exclude(mode)

    def _exclude(self, mode: LinkMode) -> None:
        health = self._health[mode]
        health.strikes += 1
        doublings = min(health.strikes - 1, self._max_backoff_doublings)
        backoff = self._reprobe_packets * (2 ** doublings)
        until = self._packet_index + backoff
        health.excluded_until_packet = until
        if self._next_readmit_packet is None or until < self._next_readmit_packet:
            self._next_readmit_packet = until
        health.clear_window()
        health.clean_streak = 0
        self.fallbacks += 1
        self._replan()

    def update_energy(self, e1_j: float, e2_j: float) -> None:
        """Refresh battery levels (joules); re-plans when the ratio drifts
        by more than 10% (the paper re-computes "if SNR or loss rate
        changes significantly"; energy drift matters on the same
        grounds)."""
        if e1_j <= 0.0 or e2_j <= 0.0:
            raise ValueError("energies must stay positive while operating")
        if self._plan is None:
            # Nothing planned yet: start() (or a re-plan) uses these.
            self._e1_j = e1_j
            self._e2_j = e2_j
            return
        old_ratio = self._e1_j / self._e2_j
        self._e1_j = e1_j
        self._e2_j = e2_j
        if abs(e1_j / e2_j / old_ratio - 1.0) > 0.1:
            self._replan()

    def update_distance(self, distance_m: float) -> None:
        """Refresh the separation estimate; re-plans if the regime or any
        mode's availability changed."""
        if distance_m < 0.0:
            raise ValueError("distance must be non-negative")
        old_distance = self._distance_m
        self._distance_m = distance_m
        if self._plan is None:
            return
        old_regime = self._plan.regime
        if self._link_map.classify(distance_m) is not old_regime:
            self._replan()
            return
        # Same regime, but a bitrate step change also warrants a re-plan.
        self._distance_m = old_distance
        old_candidates = {(p.mode, p.bitrate_bps) for p in self._candidate_powers()}
        self._distance_m = distance_m
        new_candidates = {(p.mode, p.bitrate_bps) for p in self._candidate_powers()}
        if old_candidates != new_candidates:
            self._replan()

    def _replan(self) -> None:
        if self._e1_j <= 0.0 or self._e2_j <= 0.0:
            return
        try:
            plan = self._compute_plan()
        except InfeasibleOffloadError:
            # Keep the old plan; the session layer decides when to give up.
            return
        self._commit(plan)
