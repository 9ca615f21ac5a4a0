"""``content_rng`` against the SeedSequence path it shortcuts.

``content_rng(fingerprint, seed)`` hands numpy the entropy words that
``content_seed_sequence(fingerprint, seed)`` assembles, so both must
give generators that draw the same stream, for seeds of every word
length, and job generators must not change.
"""

import hashlib

import numpy as np
import pytest

from repro.runtime.jobs import JobSpec
from repro.runtime.seeding import (
    content_rng,
    content_seed_sequence,
    job_rng,
    job_seed_sequence,
)

_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**128 + 7, 2**224 + 3]


@pytest.mark.parametrize("seed", _SEEDS)
def test_content_rng_draws_the_content_seed_sequence_stream(seed):
    for text in ("a", "b", "hub3:link:h3-tag7"):
        fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        expected = np.random.default_rng(content_seed_sequence(fingerprint, seed))
        rng = content_rng(fingerprint, seed)
        assert rng.integers(0, 2**63, 32).tolist() == expected.integers(0, 2**63, 32).tolist()
        assert rng.standard_normal(8).tolist() == expected.standard_normal(8).tolist()


def test_fingerprints_with_zero_words_keep_their_stream():
    # Leading zero words of the digest still count as words.
    fingerprint = "0" * 56 + "0000002a"
    expected = np.random.default_rng(content_seed_sequence(fingerprint, 3))
    assert content_rng(fingerprint, 3).random(8).tolist() == expected.random(8).tolist()


@pytest.mark.parametrize("seed", [0, 9, 2**40])
def test_job_rng_is_the_job_seed_sequence_generator(seed):
    spec = JobSpec(kind="ber.montecarlo", tx_device="Apple Watch", seed=3)
    expected = np.random.default_rng(job_seed_sequence(spec, seed))
    assert job_rng(spec, seed).random(16).tolist() == expected.random(16).tolist()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="-1"):
        content_rng("ab" * 32, -1)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**33 + 5])
@pytest.mark.parametrize("domain", [0xFA0175, 0xD401FA])
def test_a_domain_word_leads_the_key_on_both_paths(seed, domain):
    for text in ("a", "region0:storm"):
        fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        sequence = content_seed_sequence(fingerprint, seed, domain)
        assert sequence.spawn_key[0] == domain
        assert sequence.spawn_key[1:] == content_seed_sequence(fingerprint, seed).spawn_key
        expected = np.random.default_rng(sequence).random(8).tolist()
        assert content_rng(fingerprint, seed, domain).random(8).tolist() == expected
        assert content_rng(fingerprint, seed).random(8).tolist() != expected
