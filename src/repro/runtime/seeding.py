"""Deterministic per-job RNG derivation.

Every job draws randomness from a :class:`numpy.random.SeedSequence` child
derived from the campaign seed and the job's content fingerprint — the
same mechanism ``SeedSequence.spawn`` uses (a ``spawn_key`` extension),
but keyed by *content* instead of spawn order.  Consequences:

* a job's random stream depends only on (campaign seed, spec), never on
  which worker ran it, how the campaign was chunked, or what ran before —
  ``n_jobs=1`` and ``n_jobs=64`` produce bit-identical results;
* distinct jobs get statistically independent streams (SeedSequence's
  hashing guarantees, the same ones backing ``spawn``).
"""

from __future__ import annotations

import numpy as np

from .jobs import JobSpec

#: Number of 32-bit words of the fingerprint folded into the spawn key.
_FINGERPRINT_WORDS = 4

#: Words in a SeedSequence entropy pool (numpy's default pool size).
_POOL_WORDS = np.random.SeedSequence(0).pool_size


def campaign_seed_sequence(campaign_seed: int = 0) -> np.random.SeedSequence:
    """Root sequence for a campaign."""
    return np.random.SeedSequence(campaign_seed)


def _key_words(fingerprint: str, domain: int | None) -> tuple[int, ...]:
    """The spawn-key words: ``domain`` (when given), then the low words
    of the hex ``fingerprint``."""
    digest = int(fingerprint, 16)
    words = tuple(
        (digest >> (32 * i)) & 0xFFFFFFFF for i in range(_FINGERPRINT_WORDS)
    )
    return words if domain is None else (domain,) + words


def content_seed_sequence(
    fingerprint: str, campaign_seed: int = 0, domain: int | None = None
) -> np.random.SeedSequence:
    """Child sequence keyed by an arbitrary hex content fingerprint.

    The general form of :func:`job_seed_sequence`: any subsystem with a
    stable content hash (job specs, fault plans, deployment scenarios)
    derives an order-independent stream from it.  Equivalent to spawning
    a child off the campaign root whose spawn key is the fingerprint
    (rather than a sequential index), so the derivation is independent of
    execution order.  A ``domain`` word, when given, leads the spawn key,
    so a subsystem's streams (fault injection's) never collide with
    another's keyed by the same fingerprint.
    """
    root = campaign_seed_sequence(campaign_seed)
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=root.spawn_key + _key_words(fingerprint, domain),
    )


def content_rng(
    fingerprint: str, campaign_seed: int = 0, domain: int | None = None
) -> np.random.Generator:
    """``default_rng(content_seed_sequence(fingerprint, campaign_seed,
    domain))``, built in about half the time.

    A SeedSequence mixes its pool from one assembled word array: the
    32-bit words of its entropy, zero-padded to the pool size when a
    spawn key follows, then the words of the spawn key.  This hands
    SeedSequence that same array as plain entropy, so it mixes the same
    pool, and the generator draws the same stream, without numpy
    coercing each spawn-key word on its own.

    Raises:
        ValueError: for a negative campaign seed (as SeedSequence does).
    """
    if campaign_seed < 0:
        raise ValueError(f"campaign seed must be >= 0, got {campaign_seed!r}")
    words = [campaign_seed & 0xFFFFFFFF]
    rest = campaign_seed >> 32
    while rest:
        words.append(rest & 0xFFFFFFFF)
        rest >>= 32
    words.extend([0] * (_POOL_WORDS - len(words)))
    words.extend(_key_words(fingerprint, domain))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def job_seed_sequence(
    spec: JobSpec, campaign_seed: int = 0
) -> np.random.SeedSequence:
    """Child sequence for one job, derived content-addressed."""
    return content_seed_sequence(spec.fingerprint(), campaign_seed)


def job_rng(spec: JobSpec, campaign_seed: int = 0) -> np.random.Generator:
    """Fresh deterministic generator for one job (the generator of
    :func:`job_seed_sequence`)."""
    return content_rng(spec.fingerprint(), campaign_seed)
