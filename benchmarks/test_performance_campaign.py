"""Performance bench: campaign engine overhead and cache effectiveness.

Not a paper figure — this times a reduced gain-matrix campaign (a 5x5
device sub-matrix, 25 independent lifetime jobs) four ways: serial
in-process, on a 2-worker fleet, cold against a fresh cache, and a
warm-cache re-run.  A cached warm-up campaign runs first, so imports
and module-level caches are paid before any timed run.  The cold cached
run's per-job overhead over the uncached serial run is printed, not
bounded (the journal's fsync-count test guards the cached path).  The
fleet's speedup depends on host core count (single-core CI boxes will
see its overhead instead), so only the cache invariants are asserted: a
warm run must execute zero jobs and beat the cold run's wall time
outright.
"""

import time

from repro.hardware.devices import DEVICES
from repro.runtime import CampaignConfig, gain_matrix_specs, run_campaign

SUBSET = [d.name for d in DEVICES[:5]]


def _specs():
    return gain_matrix_specs("gain.bluetooth", device_names=SUBSET)


def _timed(config):
    started = time.perf_counter()
    result = run_campaign(_specs(), config)
    return result, time.perf_counter() - started


def test_performance_campaign_serial_vs_parallel_vs_cached(tmp_path):
    run_campaign(_specs(), CampaignConfig(cache_dir=tmp_path / "warm-up"))
    serial, serial_s = _timed(CampaignConfig(n_jobs=1))
    pooled, pooled_s = _timed(CampaignConfig(n_jobs=2))
    cold_config = CampaignConfig(n_jobs=1, cache_dir=tmp_path / "cache")
    cold, cold_s = _timed(cold_config)
    warm, warm_s = _timed(cold_config)

    jobs = len(_specs())
    print(f"\ncampaign of {jobs} gain jobs:")
    print(f"  serial    {serial_s * 1e3:8.1f} ms  ({jobs / serial_s:,.0f} jobs/s)")
    print(f"  2 workers {pooled_s * 1e3:8.1f} ms  ({jobs / pooled_s:,.0f} jobs/s)")
    print(f"  cold+cache{cold_s * 1e3:8.1f} ms  "
          f"({(cold_s - serial_s) / jobs * 1e3:+.3f} ms/job over serial)")
    print(f"  warm cache{warm_s * 1e3:8.1f} ms  "
          f"({cold_s / warm_s:,.1f}x faster than cold)")

    assert serial.manifest.completed == jobs
    assert pooled.metrics == serial.metrics  # worker count never changes results
    assert cold.manifest.completed == jobs
    # The whole point of the cache: the second run executes nothing and is
    # strictly faster than the run that did the work.
    assert warm.manifest.cached == jobs
    assert warm.manifest.completed == 0
    assert warm.metrics == cold.metrics
    assert warm_s < cold_s


def test_performance_campaign_benchmark_warm_cache(tmp_path, benchmark):
    config = CampaignConfig(n_jobs=1, cache_dir=tmp_path)
    run_campaign(_specs(), config)  # populate

    result = benchmark(run_campaign, _specs(), config)
    assert result.manifest.cached == len(_specs())
    mean_s = benchmark.stats.stats.mean
    print(f"\nwarm-cache campaign: {len(_specs()) / mean_s:,.0f} cached jobs/s")
