"""Pins of ``campaign all``'s per-job results.

The export goldens pin what ``export`` writes, and the export computes
Figs 15-18 on the batch engine, not through campaign jobs.  These pins
cover the jobs themselves, run serially and uncached:

* for every campaignable experiment at campaign seed 0, the SHA-256 of
  the canonical JSON of the list of its jobs' metrics, in spec order;
* the same for ``mc-ber`` at campaign seed 7, whose draws follow the
  campaign seed;
* the kernel's ``processed_events`` after each pair-session job
  (``session.energy`` and ``faults.session``), so packet chaining and
  the fault and watchdog paths keep their event counts.

The values are those of a session loop that put every packet through
the kernel's calendar, an executor that built every job a generator, and
gain cells that each solved their own Eq 1 programs, so they show that
packet chaining, on-demand generators and the shared solves change no
result.
"""

import hashlib

import pytest

from repro.core.records import canonical_json
from repro.experiments import campaignable_ids
from repro.runtime import CampaignConfig, campaign_specs, run_campaign
from repro.sim.session import CommunicationSession

DIGESTS = {
    "fig15": "ecca48a88b5106b394ac1d4bda7cef6b791dcf41d8a1790814a9c843dbc36269",
    "fig16": "0236a245e126c5d4ac9032598d33f8defb3bdc600cb44878c3d7707e941530f1",
    "fig17": "ec00c38015fd2f9f9fb12a405a7ed158c7f71a5c08a22c97f43c3551fb684688",
    "fig18": "b5386a8e94c1acf9764344d6b0f87b523b8f2b3ab197bfadbb906fad5c536006",
    "mc-ber": "6ae03487337f3af96bc866f25aada534bb0fbca155c27b526584cb658801afa1",
    "energy": "48bd7e3ed0f4b56eac76810916bd03bccda9afb3bbd560ef41af0c44498e5fcc",
    "faults": "b328c9cb592ca34e40f8c0d041783b44c833558dd1779180f0349e7be3d8caad",
}

MC_BER_SEED_7 = "04f8889baeb9d3fad1028ed7d82401fbb5c08444acc50c83ce69c50340baf22d"

#: ``processed_events`` of each pair-session job's kernel, in spec order.
SESSION_EVENTS = {
    "energy": [2001] * 7,
    "faults": [2001, 2195, 2018, 2018, 2174, 2004, 2286, 2003, 2349],
}


def _digest(result) -> str:
    metrics = [outcome.metrics for outcome in result.outcomes]
    return hashlib.sha256(canonical_json(metrics).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def campaign_all():
    """Every campaignable experiment at seed 0: (digests, session events)."""
    events: list[int] = []
    original = CommunicationSession.run

    def counted(self):
        metrics = original(self)
        events.append(self.simulator.processed_events)
        return metrics

    digests, session_events = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CommunicationSession, "run", counted)
        for experiment in campaignable_ids():
            events.clear()
            result = run_campaign(campaign_specs(experiment)).raise_on_failure()
            digests[experiment] = _digest(result)
            if events:
                session_events[experiment] = list(events)
    return digests, session_events


def test_every_campaignable_experiment_is_pinned(campaign_all):
    digests, _ = campaign_all
    assert set(digests) == set(DIGESTS)


@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_job_metrics_match_their_pin(campaign_all, experiment):
    digests, _ = campaign_all
    assert digests[experiment] == DIGESTS[experiment]


def test_pair_session_kernels_process_their_pinned_event_counts(campaign_all):
    _, session_events = campaign_all
    assert session_events == SESSION_EVENTS


def test_mc_ber_at_another_campaign_seed_matches_its_pin():
    config = CampaignConfig(campaign_seed=7)
    result = run_campaign(campaign_specs("mc-ber"), config).raise_on_failure()
    assert _digest(result) == MC_BER_SEED_7
    assert MC_BER_SEED_7 != DIGESTS["mc-ber"]
