"""Regression guard for the noise-floor cache under large sweeps.

The cache is keyed on ``(noise model, detector floor, bitrate)`` — never
on distance — so a 10k-point distance sweep must stay cache-hit after the
first evaluation per (budget, bitrate), and the bound (4096) must dwarf
the distinct keys any realistic sweep can produce.  The batch engine
bypasses the cache entirely; that is asserted too.
"""

import numpy as np

from repro.batch import link_ber
from repro.phy.link_budget import (
    _NOISE_FLOOR_CACHE_MAX,
    _cached_noise_floor_dbm,
    paper_link_profiles,
)


def test_cache_bound_dwarfs_realistic_key_count():
    """Every (profile, supported bitrate) pair together claims a handful
    of keys; the bound leaves two orders of magnitude of headroom."""
    profiles = paper_link_profiles()
    assert _NOISE_FLOOR_CACHE_MAX >= 100 * len(profiles)


def test_10k_point_sweep_stays_cache_hit():
    """A 10k-point scalar BER sweep misses once per (noise, floor,
    bitrate) key and hits for every remaining point — no thrash."""
    profiles = paper_link_profiles()
    budget = profiles[("backscatter", 100_000)]
    distances = np.linspace(0.05, 50.0, 10_000)

    _cached_noise_floor_dbm.cache_clear()
    for d in distances:
        budget.ber(float(d), 100_000)
    info = _cached_noise_floor_dbm.cache_info()
    assert info.misses <= 2  # one per distinct key this sweep touches
    assert info.hits >= len(distances) - info.misses
    assert info.currsize <= info.misses  # nothing evicted, nothing retried


def test_vectorized_sweep_bypasses_cache():
    """The batch engine computes its own noise floor in-array; a grid
    evaluation must not touch the scalar cache at all."""
    profiles = paper_link_profiles()
    budget = profiles[("backscatter", 100_000)]
    budget.ber(0.3, 100_000)  # ensure the budget itself is warm
    _cached_noise_floor_dbm.cache_clear()
    link_ber(budget, np.linspace(0.05, 50.0, 10_000), 100_000)
    info = _cached_noise_floor_dbm.cache_info()
    assert info.hits == 0 and info.misses == 0


def test_full_profile_sweep_fits_without_eviction():
    """Sweeping every paper profile at every distance keeps the cache
    below its bound, so nothing can thrash mid-campaign."""
    _cached_noise_floor_dbm.cache_clear()
    profiles = paper_link_profiles()
    for (name, bitrate), budget in profiles.items():
        for d in np.linspace(0.05, 30.0, 500):
            budget.ber(float(d), bitrate)
    info = _cached_noise_floor_dbm.cache_info()
    assert info.currsize < _NOISE_FLOOR_CACHE_MAX
    assert info.currsize == info.misses  # every key still resident
