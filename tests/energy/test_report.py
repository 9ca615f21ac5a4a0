"""End-to-end surface tests: the energy report builder, its CSV
exporter, the CLI subcommand and the campaign-manifest embedding."""

import csv

import pytest

from repro.__main__ import main
from repro.analysis.energy_report import (
    DEFAULT_DEVICES,
    ENERGY_PROFILES,
    breakdown_rows,
    render_energy,
    run_energy_session,
    snapshot_report,
)
from repro.energy import CATEGORIES, LEGACY_CATEGORIES

FAST = dict(packets=200)


class TestEnergySessions:
    @pytest.mark.parametrize("profile", ENERGY_PROFILES)
    def test_every_profile_runs(self, profile):
        metrics = run_energy_session(profile, **FAST)
        assert metrics.packets_attempted > 0 or profile == "idle"
        assert metrics.total_energy_j > 0.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_energy_session("warp-drive")

    def test_deterministic_in_seed(self):
        first = run_energy_session("braidio", seed=3, **FAST)
        second = run_energy_session("braidio", seed=3, **FAST)
        assert first.ledger_snapshot() == second.ledger_snapshot()


class TestBreakdownRows:
    def test_shape(self):
        header, rows = breakdown_rows(profiles=("braidio",), packets=100)
        assert header[:3] == ["experiment", "account", "device"]
        # Pinned to the legacy categories: the fault-injection categories
        # (RETRANSMIT, FAULT) must not widen this CSV's schema.
        assert [h[:-2] for h in header[3 : 3 + len(LEGACY_CATEGORIES)]] == [
            c.label for c in LEGACY_CATEGORIES
        ]
        assert len(rows) == 2  # one per account
        assert rows[0][0] == "braidio"
        assert rows[0][2] == DEFAULT_DEVICES[0]

    def test_exporter_writes_csv(self, tmp_path, monkeypatch):
        import repro.analysis.energy_report as report_module
        from repro.experiments import export_experiment

        monkeypatch.setattr(
            report_module,
            "breakdown_rows",
            lambda: breakdown_rows(profiles=("braidio",), packets=100),
        )
        path = export_experiment("energy", tmp_path)
        with path.open() as handle:
            read = list(csv.reader(handle))
        assert read[0][0] == "experiment"
        assert len(read) == 3


class TestRenderAndCli:
    def test_render_energy_table(self):
        text = render_energy("braidio", **FAST)
        assert "braidio:" in text
        assert "tx_air" in text
        assert DEFAULT_DEVICES[0] in text

    def test_cli_energy_subcommand(self, capsys):
        assert main(["energy", "braidio", "--packets", "100"]) == 0
        out = capsys.readouterr().out
        assert "tx_air" in out
        assert "pooled: mode_switch" in out

    def test_cli_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["energy", "nonesuch"])


class TestManifestEmbedding:
    def test_campaign_manifest_carries_energy_totals(self):
        from repro.runtime.executor import CampaignConfig, run_campaign
        from repro.runtime.workloads import energy_breakdown_specs

        specs = energy_breakdown_specs(packets=100)[:2]
        result = run_campaign(specs, CampaignConfig(n_jobs=1))
        manifest = result.manifest
        assert manifest.energy is not None
        assert manifest.energy["tx_air"] > 0.0
        assert manifest.to_dict()["energy"] == manifest.energy

    def test_manifest_without_energy_omits_key(self):
        from repro.runtime.executor import CampaignConfig, run_campaign
        from repro.runtime.workloads import campaign_specs

        result = run_campaign(
            campaign_specs("mc-ber")[:1], CampaignConfig(n_jobs=1)
        )
        assert result.manifest.energy is None
        assert "energy" not in result.manifest.to_dict()

    def test_merge_accumulates_energy(self):
        from dataclasses import replace

        from repro.runtime.progress import RunManifest

        base = RunManifest(
            total=1, completed=1, failed=0, cached=0, retries=0,
            wall_time_s=1.0, jobs_per_s=1.0, n_jobs=1,
            calibration="", campaign_seed=0, kinds={"session.energy": 1},
        )
        with_energy = replace(base, energy={"tx_air": 1.0, "idle": 0.5})
        merged = RunManifest.merge([with_energy, base, with_energy])
        assert merged.energy == {"tx_air": 2.0, "idle": 1.0}
        assert RunManifest.merge([base, base]).energy is None

    def test_runner_report_includes_breakdown(self):
        metrics = run_energy_session("braidio", **FAST)
        report = snapshot_report(metrics.ledger_snapshot())
        assert set(report["energy_breakdown_j"]) == {c.label for c in CATEGORIES}
        assert len(report["accounts"]) == 2
