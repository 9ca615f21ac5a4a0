"""Attributed energy accounting (ledger, accounts, snapshots).

The one place charged joules are attributed and read: a
:class:`LedgerAccount` takes them through ``book`` and the planning
layers take plain joules.  See DESIGN.md §8 for the ledger contract.
"""

from ..hardware.battery import BatteryEmptyError
from .ledger import (
    CATEGORIES,
    LEGACY_CATEGORIES,
    N_CATEGORIES,
    AccountSnapshot,
    ChargeCategory,
    EnergyLedger,
    LedgerAccount,
    LedgerSnapshot,
    conservation_residual_j,
)

__all__ = [
    "AccountSnapshot",
    "BatteryEmptyError",
    "CATEGORIES",
    "ChargeCategory",
    "EnergyLedger",
    "LEGACY_CATEGORIES",
    "LedgerAccount",
    "LedgerSnapshot",
    "N_CATEGORIES",
    "conservation_residual_j",
]
