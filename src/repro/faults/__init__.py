"""Deterministic, seed-driven fault injection (DESIGN.md §9).

Declarative :class:`FaultPlan` schedules compile — via a
:class:`FaultInjector` — into DES events on a session's simulator,
without perturbing the link RNG draw order.  Named chaos profiles,
the recovery-metric CSV rows, and the ``python -m repro faults`` view
live in :mod:`repro.faults.profiles`.
"""

from .deploy import RegionFaultDriver
from .injector import FaultInjector
from .plan import (
    FAULT_SCHEMA_VERSION,
    FaultKind,
    FaultPlan,
    FaultSpec,
    validate_windows,
)
from .profiles import (
    FAULT_PROFILES,
    RECOVERY_FIELDS,
    fault_plan_for,
    recovery_report,
    recovery_rows,
    render_faults,
    run_fault_session,
)
from .region import (
    REGION_FAULT_PROFILES,
    REGION_FAULT_SCHEMA_VERSION,
    REGION_WIDE,
    RegionFaultKind,
    RegionFaultPlan,
    RegionFaultSpec,
    region_fault_plan_for,
)
from .seeding import (
    fault_rng,
    fault_seed_sequence,
    region_fault_rng,
)

__all__ = [
    "FAULT_PROFILES",
    "FAULT_SCHEMA_VERSION",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "RECOVERY_FIELDS",
    "REGION_FAULT_PROFILES",
    "REGION_FAULT_SCHEMA_VERSION",
    "REGION_WIDE",
    "RegionFaultDriver",
    "RegionFaultKind",
    "RegionFaultPlan",
    "RegionFaultSpec",
    "fault_plan_for",
    "fault_rng",
    "fault_seed_sequence",
    "recovery_report",
    "recovery_rows",
    "region_fault_plan_for",
    "region_fault_rng",
    "render_faults",
    "run_fault_session",
    "validate_windows",
]
