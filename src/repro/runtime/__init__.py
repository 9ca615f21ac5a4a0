"""Parallel campaign engine.

Fans embarrassingly-parallel simulation jobs (gain-matrix cells,
distance-sweep points, Monte-Carlo samples) across a fleet of forked
worker processes that a coordinator feeds over pipes, with content-derived
deterministic seeding, an on-disk result cache keyed by job fingerprint
+ calibration version (checksummed, with corruption quarantine), a
write-ahead journal enabling crash-safe ``--resume``, bounded retries
and a structured run manifest.  See DESIGN.md §3 for the module
inventory and §10 for the executor contract.
"""

from .cache import ResultCache, calibration_fingerprint
from .executor import (
    CampaignConfig,
    CampaignError,
    CampaignResult,
    JobOutcome,
    drain_manifests,
    execute_job,
    run_campaign,
)
from .jobs import JobSpec, job_runner, register_job_runner, registered_kinds
from .journal import (
    CampaignJournal,
    JournalReplay,
    campaign_fingerprint,
    metrics_checksum,
    replay_journal,
)
from .progress import (
    CampaignProgress,
    RunManifest,
    results_manifest,
    write_results_manifest,
)
from .seeding import campaign_seed_sequence, job_rng, job_seed_sequence
from .workloads import (
    batch_distance_spec,
    batch_matrix_spec,
    campaign_specs,
    distance_curve_specs,
    gain_matrix_specs,
)

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CampaignJournal",
    "CampaignProgress",
    "CampaignResult",
    "JobOutcome",
    "JobSpec",
    "JournalReplay",
    "ResultCache",
    "RunManifest",
    "batch_distance_spec",
    "batch_matrix_spec",
    "calibration_fingerprint",
    "campaign_fingerprint",
    "campaign_seed_sequence",
    "campaign_specs",
    "distance_curve_specs",
    "drain_manifests",
    "execute_job",
    "gain_matrix_specs",
    "job_rng",
    "job_runner",
    "job_seed_sequence",
    "metrics_checksum",
    "register_job_runner",
    "registered_kinds",
    "replay_journal",
    "results_manifest",
    "run_campaign",
    "write_results_manifest",
]
