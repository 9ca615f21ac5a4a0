"""A job's generator is built only for a runner that takes one.

A runner is ``(spec, rng)`` when it draws from the job's generator and
``(spec)`` when its result is deterministic in the spec alone.  The
registry records which at registration, and ``execute_job`` builds
``job_rng(spec, seed)`` only for the first kind, so a ``(spec, rng)``
runner draws exactly the stream it always drew.  The generator spy
wraps ``content_rng`` in :mod:`repro.runtime.seeding`, which
``job_rng`` calls; subsystems that derive streams of their own (a
deploy region's scenario streams) hash other content, so a call with
the job's own fingerprint is a job generator.  Fault streams go through
``content_rng`` under a domain word of their own, which no job stream
carries, so the spy leaves them out.
"""

import hashlib

import pytest

from repro.core.records import canonical_json
from repro.deploy.campaign import region_job_specs
from repro.deploy.scenarios import city_scenario
from repro.hardware.battery import JOULES_PER_WATT_HOUR
from repro.hardware.devices import DEVICES, device
from repro.runtime import seeding, workloads
from repro.runtime.executor import CampaignConfig, execute_job, run_campaign
from repro.runtime.jobs import (
    JobSpec,
    register_job_runner,
    registered_kinds,
    registered_runner,
    spec_fingerprint,
)
from repro.runtime.seeding import job_rng


@register_job_runner("test.generator_stream")
def _stream(spec, rng):
    return {"draws": rng.random(8).tolist()}


@register_job_runner("test.spec_alone")
def _spec_alone(spec):
    return {"seed": spec.seed}


@pytest.fixture
def generators(monkeypatch):
    """Fingerprints ``content_rng`` built a job-namespace generator for
    (no domain word), in call order."""
    built = []
    original = seeding.content_rng

    def spy(fingerprint, campaign_seed=0, domain=None):
        if domain is None:
            built.append(fingerprint)
        return original(fingerprint, campaign_seed, domain)

    monkeypatch.setattr(seeding, "content_rng", spy)
    return built


def _gain_specs():
    return [
        JobSpec(kind=kind, tx_device="Apple Watch", rx_device="iPhone 6S")
        for kind in ("gain.bluetooth", "gain.best_mode", "gain.bidirectional")
    ] + [
        JobSpec(
            kind="gain.distance", tx_device="Apple Watch", rx_device="iPhone 6S",
            distance_m=1.5,
        )
    ]


def _session_specs():
    return [
        JobSpec.with_params(kind, {"profile": profile, "packets": 40, "seed": 1})
        for kind, profile in (("session.energy", "braidio-arq"), ("faults.session", "chaos"))
    ]


def _region_spec():
    scenario = city_scenario(
        "one-hub", n_clusters=1, hubs_per_cluster=1, devices_per_hub=3,
        warmup_s=0.1, duration_s=0.2, lp_plan=False,
    )
    (spec,) = region_job_specs(scenario)
    return spec


class TestRegistry:
    def test_only_the_montecarlo_runner_among_the_built_ins_takes_one(self):
        takes = {
            kind: registered_runner(kind)[1]
            for kind in registered_kinds()
            if registered_runner(kind)[0].__module__ == workloads.__name__
        }
        assert {
            "gain.bluetooth", "gain.best_mode", "gain.bidirectional", "gain.distance",
            "ber.montecarlo", "session.energy", "faults.session", "deploy.region",
        } <= set(takes)
        assert [kind for kind, rng in takes.items() if rng] == ["ber.montecarlo"]

    def test_test_runners_take_one_by_signature(self):
        assert registered_runner("test.generator_stream")[1] is True
        assert registered_runner("test.spec_alone")[1] is False


class TestDeterministicJobs:
    @pytest.mark.parametrize("spec", _gain_specs() + _session_specs(), ids=str)
    def test_gain_and_session_jobs_build_no_generator(self, generators, spec):
        assert execute_job(spec, 3)
        assert generators == []

    def test_a_region_job_builds_no_job_generator(self, generators):
        spec = _region_spec()
        report = execute_job(spec, 0)
        assert report["packets_attempted"] > 0
        # The region's own content-addressed streams are built here too,
        # from the scenario's fingerprints; none is the job's.
        assert spec.fingerprint() not in generators

    def test_a_spec_alone_runner_runs_without_a_generator(self, generators):
        spec = JobSpec(kind="test.spec_alone", seed=4)
        outcome = run_campaign([spec]).raise_on_failure().outcomes[0]
        assert outcome.metrics == {"seed": 4}
        assert generators == []


class TestDrawingJobs:
    @pytest.mark.parametrize("campaign_seed", [0, 7, 2**40])
    def test_montecarlo_draws_the_job_stream(self, generators, campaign_seed):
        spec = JobSpec.with_params(
            "ber.montecarlo", {"snr_db": 8.0, "n_bits": 2000}, seed=2
        )
        expected = workloads.run_montecarlo_ber(spec, job_rng(spec, campaign_seed))
        generators.clear()
        assert execute_job(spec, campaign_seed) == expected
        assert generators == [spec.fingerprint()]

    @pytest.mark.parametrize("campaign_seed", [0, 3, 2**33])
    def test_a_spec_rng_runner_draws_the_job_stream(self, campaign_seed):
        spec = JobSpec(kind="test.generator_stream", seed=5)
        expected = job_rng(spec, campaign_seed).random(8).tolist()
        assert execute_job(spec, campaign_seed) == {"draws": expected}
        config = CampaignConfig(campaign_seed=campaign_seed)
        outcome = run_campaign([spec], config).raise_on_failure().outcomes[0]
        assert outcome.metrics == {"draws": expected}


class TestBudgetMemo:
    def test_one_budget_per_device_name(self):
        for spec in DEVICES:
            budget = workloads._energy_budget(spec.name)
            assert budget is workloads._energy_budget(spec.name)
            assert type(budget) is float
            assert budget == device(spec.name).battery_wh * JOULES_PER_WATT_HOUR

    def test_stays_within_its_bound(self):
        for spec in DEVICES:
            workloads._energy_budget(spec.name)
        info = workloads._energy_budget.cache_info()
        assert info.maxsize == workloads._BUDGET_MEMO_MAX
        assert len(DEVICES) <= info.currsize <= info.maxsize

    def test_unknown_devices_are_not_memoized(self):
        before = workloads._energy_budget.cache_info().currsize
        with pytest.raises(KeyError):
            workloads._energy_budget("no such device")
        assert workloads._energy_budget.cache_info().currsize == before


class TestCanonicalBytes:
    def test_are_what_the_fingerprint_hashes(self):
        spec = JobSpec.with_params(
            "gain.distance", {"b": 2, "a": "x"}, tx_device="Apple Watch",
            distance_m=0.1 + 0.2, bitrate_bps=1000,
        )
        expected = canonical_json(spec.to_dict()).encode("utf-8")
        assert spec.canonical_bytes() == expected
        assert spec.fingerprint() == hashlib.sha256(expected).hexdigest()
        assert spec.fingerprint() == spec_fingerprint(spec.to_dict())

    def test_are_computed_once(self):
        spec = JobSpec(kind="gain.bluetooth", tx_device="Apple Watch")
        assert spec.canonical_bytes() is spec.canonical_bytes()
