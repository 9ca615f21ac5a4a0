"""Registry-consistency contract: every registered experiment must be
usable through each capability it advertises, and campaign decompositions
must be worker-count invariant."""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentDef,
    all_experiments,
    campaignable_ids,
    capability_rows,
    experiment_ids,
    export_experiment,
    exportable_ids,
    get,
    profileable_ids,
    register,
    render_show,
    showable_ids,
)
from repro.runtime import CampaignConfig, run_campaign
from repro.runtime.workloads import campaign_specs


class TestRegistryLookup:
    def test_ids_are_unique_and_sorted_views_consistent(self):
        ids = experiment_ids()
        assert len(ids) == len(set(ids))
        assert set(exportable_ids()) <= set(ids)
        assert set(showable_ids()) <= set(ids)
        assert set(profileable_ids()) <= set(ids)
        assert set(campaignable_ids()) <= set(ids)

    def test_get_unknown_id_lists_known_ids(self):
        with pytest.raises(KeyError, match="fig15"):
            get("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get("fig15"))

    def test_defs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            get("fig15").id = "fig99"

    def test_capability_rows_cover_every_experiment(self):
        header, rows = capability_rows()
        assert header[0] == "experiment"
        assert [row[0] for row in rows] == list(experiment_ids())


class TestAdvertisedCapabilitiesWork:
    @pytest.mark.parametrize("experiment", sorted(showable_ids()))
    def test_every_showable_experiment_renders(self, experiment):
        assert render_show(experiment).strip()

    @pytest.mark.parametrize("experiment", sorted(exportable_ids()))
    def test_every_exportable_experiment_writes_its_csv_names(
        self, experiment, tmp_path
    ):
        defn = get(experiment)
        assert defn.csv_names, "exportable experiments must declare csv_names"
        export_experiment(experiment, tmp_path)
        for name in defn.csv_names:
            target = tmp_path / name
            assert target.is_file() and target.stat().st_size > 0

    @pytest.mark.parametrize("experiment", sorted(profileable_ids()))
    def test_every_profileable_experiment_has_a_workload(self, experiment):
        defn = get(experiment)
        # Either a dedicated sweep workload or an exporter cProfile can wrap.
        assert defn.profile is not None or defn.exportable

    def test_every_variant_experiment_renders_one_variant(self):
        for defn in all_experiments():
            if not defn.variants:
                continue
            assert defn.render_variant is not None
            first = next(iter(defn.variants))
            text = defn.render_variant(first, 0.5, 200, 0)
            assert first in text


class TestCampaignRoundTrip:
    @staticmethod
    def _comparable(manifest):
        data = manifest.to_dict()
        # Execution telemetry.
        for volatile in ("wall_time_s", "jobs_per_s", "n_jobs"):
            data.pop(volatile, None)
        return data

    @pytest.mark.parametrize("experiment", campaignable_ids())
    def test_specs_build_and_fingerprint_uniquely(self, experiment):
        specs = campaign_specs(experiment)
        assert specs
        assert len({s.fingerprint() for s in specs}) == len(specs)

    @pytest.mark.parametrize("experiment", campaignable_ids())
    def test_n_jobs_1_vs_4_identical_manifests_and_metrics(self, experiment):
        specs = campaign_specs(experiment)
        serial = run_campaign(specs, CampaignConfig(n_jobs=1))
        parallel = run_campaign(specs, CampaignConfig(n_jobs=4))
        assert serial.metrics == parallel.metrics
        assert self._comparable(serial.manifest) == self._comparable(
            parallel.manifest
        )

    def test_vectorized_decomposition_also_builds(self):
        for experiment in ("fig15", "fig16", "fig17", "fig18"):
            specs = campaign_specs(experiment, backend="vectorized")
            assert specs
            assert len(specs) < len(campaign_specs(experiment))


class TestDefValidation:
    def test_export_requires_csv_names(self):
        with pytest.raises(ValueError, match="csv_names"):
            ExperimentDef(
                id="bogus", title="Bogus", kind="figure",
                tables=lambda options: (),
            )

    def test_some_hook_required(self):
        with pytest.raises(ValueError, match="hook"):
            ExperimentDef(id="bogus", title="Bogus", kind="figure")

    def test_variants_require_renderer(self):
        with pytest.raises(ValueError, match="render_variant"):
            ExperimentDef(
                id="bogus", title="Bogus", kind="report",
                profile=lambda backend: None, variants=("a",),
            )
