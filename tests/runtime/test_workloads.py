"""Workload runners must reproduce the analysis drivers exactly."""

import math

import numpy as np
import pytest

from repro.analysis.distance_sweep import distance_gain_curve
from repro.analysis.gain_matrix import (
    best_mode_gain_matrix,
    bidirectional_gain_matrix,
    bluetooth_gain_matrix,
)
from repro.core.regimes import LinkMap
from repro.runtime.executor import CampaignConfig, run_campaign
from repro.runtime.jobs import JobSpec
from repro.experiments import campaignable_ids
from repro.runtime.workloads import (
    campaign_specs,
    distance_curve_specs,
    gain_matrix_specs,
)


class TestSpecBuilders:
    def test_gain_matrix_specs_cover_all_pairs(self):
        specs = gain_matrix_specs("gain.bluetooth")
        assert len(specs) == 100
        assert len(set(specs)) == 100

    def test_distance_curve_specs(self):
        specs = distance_curve_specs("iPhone 6S", "Apple Watch", [0.3, 1.0])
        assert [s.distance_m for s in specs] == [0.3, 1.0]
        assert all(s.kind == "gain.distance" for s in specs)

    @pytest.mark.parametrize("experiment", campaignable_ids())
    def test_every_campaign_experiment_builds(self, experiment):
        specs = campaign_specs(experiment)
        assert specs
        assert len(set(specs)) == len(specs)

    @pytest.mark.parametrize(
        "experiment, kind, jobs",
        [
            ("fig15", "gain.bluetooth", 100),
            ("fig16", "gain.best_mode", 100),
            ("fig17", "gain.bidirectional", 100),
            ("fig18", "gain.distance", 234),
        ],
    )
    def test_gain_sweeps_run_one_job_per_cell(self, experiment, kind, jobs):
        specs = campaign_specs(experiment)
        assert len(specs) == jobs
        assert {s.kind for s in specs} == {kind}

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="fig15"):
            campaign_specs("fig99")


class TestRunnersMatchInlinePaths:
    @pytest.mark.parametrize(
        "kind, oracle",
        [
            ("gain.bluetooth", bluetooth_gain_matrix),
            ("gain.best_mode", best_mode_gain_matrix),
            ("gain.bidirectional", bidirectional_gain_matrix),
        ],
    )
    def test_matrix_runner_equals_scalar_oracle(self, kind, oracle):
        # `campaign fig15`-`fig17` run one engine job per cell; passing an
        # explicit LinkMap runs the scalar oracle.  Cells must be
        # bit-identical.
        result = run_campaign(gain_matrix_specs(kind), CampaignConfig())
        gains = np.array([m["gain"] for m in result.raise_on_failure().metrics])
        expected = oracle(link_map=LinkMap()).gains
        assert np.array_equal(gains.reshape(expected.shape), expected)

    def test_distance_runner_equals_scalar_oracle(self):
        distances = np.array([0.3, 1.5, 3.0, 100.0])
        specs = distance_curve_specs("iPhone 6S", "Apple Watch", distances)
        result = run_campaign(specs, CampaignConfig()).raise_on_failure()
        gains = np.array([m["gain"] for m in result.metrics], dtype=float)
        oracle = distance_gain_curve(
            "iPhone 6S", "Apple Watch", distances, link_map=LinkMap()
        )
        assert np.array_equal(gains, oracle.gains, equal_nan=True)
        assert math.isnan(gains[-1])

    def test_montecarlo_runner_uses_derived_rng(self):
        spec = JobSpec.with_params(
            "ber.montecarlo", {"snr_db": "9.0", "n_bits": 2000}
        )
        a = run_campaign([spec], CampaignConfig(campaign_seed=5)).metrics[0]
        b = run_campaign([spec], CampaignConfig(campaign_seed=5)).metrics[0]
        c = run_campaign([spec], CampaignConfig(campaign_seed=6)).metrics[0]
        assert a == b
        assert a != c
        assert 0.0 < a["ber"] < 0.5


class TestCampaignEligibility:
    def test_custom_devices_bypass_engine(self):
        from repro.hardware.devices import DeviceSpec

        customs = (
            DeviceSpec("Tiny Tag", 0.01, "wearable"),
            DeviceSpec("Big Rig", 50.0, "laptop"),
        )
        # Devices outside the catalog have no engine job (workers rebuild
        # devices by name); the batch engine must equal the scalar oracle.
        matrix = bluetooth_gain_matrix(devices=customs)
        assert matrix.gains.shape == (2, 2)
        assert (matrix.gains >= 1.0 - 1e-9).all()
        oracle = bluetooth_gain_matrix(devices=customs, link_map=LinkMap())
        assert np.array_equal(matrix.gains, oracle.gains)
