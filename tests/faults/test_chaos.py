"""Chaos-style end-to-end tests: seeded fault scenarios must complete,
recover, attribute their cost, and replay bit-identically."""

import csv

import pytest

from repro.core.braidio import BraidioRadio
from repro.core.regimes import LinkMap
from repro.energy import ChargeCategory, conservation_residual_j
from repro.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    fault_plan_for,
    recovery_report,
    run_fault_session,
)
from repro.hardware.battery import Battery, JOULES_PER_WATT_HOUR
from repro.sim.link import SimulatedLink
from repro.sim.policies import BraidioPolicy
from repro.sim.session import CommunicationSession
from repro.sim.simulator import Simulator


def _hardened_session(seed=0, packets=2000, watchdog=24):
    sim = Simulator(seed=seed)
    a = BraidioRadio.for_device("Apple Watch")
    a.battery = Battery(1.0)
    b = BraidioRadio.for_device("iPhone 6S")
    b.battery = Battery(1.0)
    link = SimulatedLink(LinkMap(), 0.5, sim.rng)
    return CommunicationSession(
        sim,
        a,
        b,
        link,
        BraidioPolicy(),
        arq=True,
        max_packets=packets,
        watchdog_packets=watchdog,
        max_resyncs=6,
        resync_backoff_s=0.02,
    )


class TestChaosScenario:
    def test_chaos_completes_and_recovers(self):
        # The acceptance scenario: outage + crash/reboot + carrier loss
        # in one seeded run, finishing without a hang.
        metrics, injector = run_fault_session("chaos", seed=0)
        assert metrics.terminated_by == "packets"
        assert metrics.fault_events == 3
        assert metrics.reboots == 1
        assert metrics.recoveries >= 1
        assert metrics.outage_s > 0.0
        assert metrics.recovery_latency_s > 0.0
        assert metrics.retransmit_energy_j > 0.0
        assert metrics.packets_delivered < metrics.packets_attempted
        labels = [label for _, label in injector.timeline]
        assert labels[0] == "link_outage begin"
        assert "node_crash:b end" in labels

    def test_faults_after_the_session_ends_never_fire(self, capsys):
        # 50 packets end the session before the 0.12 s outage: the
        # session drops its calendar, so no fault fires or is counted.
        metrics, injector = run_fault_session("chaos", packets=50)
        assert metrics.terminated_by == "packets"
        assert metrics.duration_s < 0.12
        assert metrics.fault_events == 0
        assert injector.timeline == []
        from repro.__main__ import main

        assert main(["faults", "chaos", "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "fault timeline: (the session ended before the first fault)" in out

    def test_chaos_replays_bit_identically(self):
        first, _ = run_fault_session("chaos", seed=42)
        second, _ = run_fault_session("chaos", seed=42)
        assert first._comparable_state() == second._comparable_state()
        assert recovery_report(first) == recovery_report(second)

    def test_seed_changes_the_run(self):
        # ack-storm draws corruption from the injector's private stream,
        # so the seed visibly changes the run (the chaos blockades are
        # deterministic at 0.5 m and would mask it).
        a, _ = run_fault_session("ack-storm", seed=1)
        b, _ = run_fault_session("ack-storm", seed=2)
        assert a._comparable_state() != b._comparable_state()
        assert a.corrupted_acks != b.corrupted_acks


class TestEmptyPlanIdentity:
    def test_armed_empty_plan_matches_unarmed_run(self):
        # Arming a no-fault injector must not perturb anything: results
        # stay bit-identical to the plain hardened session.
        armed = _hardened_session(seed=7)
        FaultInjector(FaultPlan.empty(), seed=7).arm(armed)
        plain = _hardened_session(seed=7)
        assert armed.run()._comparable_state() == (
            plain.run()._comparable_state()
        )

    def test_none_profile_is_fault_free(self):
        metrics, injector = run_fault_session("none", packets=500)
        assert metrics.fault_events == 0
        assert injector.timeline == []
        assert metrics.fault_energy_j == 0.0
        assert metrics.retransmit_energy_j == 0.0


class TestProfiles:
    def test_every_profile_has_a_plan(self):
        for profile in FAULT_PROFILES:
            plan = fault_plan_for(profile)
            assert plan.is_empty == (profile == "none")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            fault_plan_for("gremlins")

    def test_ack_storm_corrupts_acks(self):
        metrics, _ = run_fault_session("ack-storm")
        assert metrics.corrupted_acks > 0
        assert metrics.retransmissions > 0

    def test_stuck_switch_pins_the_path(self):
        metrics, _ = run_fault_session("stuck-switch")
        assert metrics.stuck_switch_packets > 0

    def test_brownout_books_the_step_drain(self):
        metrics, _ = run_fault_session("brownout")
        assert metrics.fault_energy_j == pytest.approx(40.0)

    def test_crash_reboots_once(self):
        metrics, _ = run_fault_session("crash")
        assert metrics.reboots == 1


class TestStepDrainOnSwitchBoundary:
    def test_ledger_conserves_across_boundary_drain(self):
        # ISSUE regression: a step drain landing at the exact simulation
        # time of a mode-switch boundary must keep the ledger's
        # attribution reconciled with the battery delta.
        probe = _hardened_session(seed=0, packets=2000)
        observed = []
        original = SimulatedLink.packet_success

        def recording(self, mode, bitrate_bps, bits, time_s=0.0):
            observed.append((probe.simulator.now_s, mode))
            return original(self, mode, bitrate_bps, bits, time_s)

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(SimulatedLink, "packet_success", recording)
            probe.run()
        boundary_s = next(
            now
            for (_, prev), (now, mode) in zip(observed, observed[1:])
            if mode is not prev
        )
        assert boundary_s > 0.0

        drain_j = 5.0
        plan = FaultPlan.of(
            FaultSpec(
                FaultKind.BATTERY_STEP_DRAIN,
                start_s=boundary_s,
                magnitude=drain_j,
                target="a",
            )
        )
        session = _hardened_session(seed=0, packets=2000)
        FaultInjector(plan, seed=0).arm(session)
        metrics = session.run()
        assert metrics.terminated_by == "packets"
        assert metrics.fault_events == 1
        assert metrics.mode_switches > 0
        account_a = metrics.ledger.account("a")
        assert account_a.category_j(ChargeCategory.FAULT) == pytest.approx(drain_j)
        tolerance = 1e-8 * max(metrics.total_energy_j, drain_j)
        assert conservation_residual_j(
            account_a, 1.0 * JOULES_PER_WATT_HOUR
        ) == pytest.approx(0.0, abs=tolerance)


class TestCampaignDeterminism:
    def test_fault_campaign_parity_across_worker_counts(self):
        from repro.runtime.executor import CampaignConfig, run_campaign
        from repro.runtime.workloads import fault_profile_specs

        specs = fault_profile_specs(packets=1200)
        serial = run_campaign(specs, CampaignConfig(n_jobs=1, campaign_seed=11))
        parallel = run_campaign(specs, CampaignConfig(n_jobs=4, campaign_seed=11))
        assert all(o.status == "completed" for o in parallel.outcomes)
        assert serial.metrics == parallel.metrics


class TestSurfacing:
    def test_cli_renders_timeline_and_table(self, capsys):
        from repro.__main__ import main

        assert main(["faults", "outage", "--packets", "1200"]) == 0
        out = capsys.readouterr().out
        assert "outage" in out
        assert "fault timeline" in out
        assert "recoveries" in out
        assert "retransmit_energy_j" in out

    def test_faults_exporter_writes_profile_rows(self, tmp_path):
        from repro.experiments import export_experiment

        path = export_experiment("faults", tmp_path)
        assert path.name == "fault_recovery.csv"
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["profile", "seed"]
        assert [row[0] for row in rows[1:]] == list(FAULT_PROFILES)
