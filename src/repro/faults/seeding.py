"""Deterministic RNG derivation for fault injection.

The injector owns a private random stream so its draws (ACK-corruption
coin flips) never perturb the simulator's link RNG: an armed session
consumes exactly the same link-stream values as an unarmed one.  Both
kinds of fault stream come from :mod:`repro.runtime.seeding`'s one
derivation, ``content_rng``, under a domain word of their own and keyed
by content, never by worker identity or execution order:

* a pair plan's stream by the plan's fingerprint, so a (seed, plan)
  pair always produces the same fault stream;
* a deploy-layer stream by the scenario fingerprint, the region plan's
  fingerprint and a purpose label (``"region3:handoff"``), so armed
  deployment runs are bit-identical at any worker count, chunking or
  resume, and never overlap the scenario's own
  ``DeploymentSpec.stream`` draws.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from ..runtime.seeding import content_rng, content_seed_sequence
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .region import RegionFaultPlan

#: Domain-separation word so fault streams can never collide with the
#: campaign job streams derived off the same root seed.
_FAULT_DOMAIN = 0xFA0175

#: Distinct domain word for deploy-layer (region) fault streams, so they
#: can never collide with pair-level fault streams *or* the scenario's
#: own content-addressed streams.
_REGION_FAULT_DOMAIN = 0xD401FA


def fault_seed_sequence(plan: FaultPlan, seed: int = 0) -> np.random.SeedSequence:
    """Child sequence for one (seed, plan) pair, derived content-addressed."""
    return content_seed_sequence(plan.fingerprint(), seed, _FAULT_DOMAIN)


def fault_rng(plan: FaultPlan, seed: int = 0) -> np.random.Generator:
    """Fresh deterministic generator for one (seed, plan) pair."""
    return content_rng(plan.fingerprint(), seed, _FAULT_DOMAIN)


def region_fault_rng(
    scenario_fingerprint: str,
    plan: "RegionFaultPlan",
    label: str,
    seed: int = 0,
) -> np.random.Generator:
    """Fresh deterministic generator for one (scenario, plan, label)
    triple."""
    salted = hashlib.sha256(
        f"{scenario_fingerprint}:{plan.fingerprint()}:{label}".encode("utf-8")
    ).hexdigest()
    return content_rng(salted, seed, _REGION_FAULT_DOMAIN)
