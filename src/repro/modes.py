"""The three Braidio operating modes.

Modes are named after the *receiver* state (§4 of the paper):

* ``ACTIVE`` — both end points generate a carrier (Fig 2a).  Symmetric
  power, best range.
* ``PASSIVE`` — only the data transmitter generates a carrier; the receiver
  is an envelope detector (Fig 2b).  Asymmetric in the receiver's favour.
* ``BACKSCATTER`` — only the data *receiver* generates a carrier; the
  transmitter is a backscatter tag (Fig 2c).  This is the carrier-offload
  mode: asymmetric in the transmitter's favour.
"""

from __future__ import annotations

import enum


class LinkMode(enum.Enum):
    """Operating mode of a Braidio link, named after the receiver state."""

    ACTIVE = "active"
    PASSIVE = "passive"
    BACKSCATTER = "backscatter"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with ``==`` and, unlike ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``), costs no interpreted call on every dict or
    # set lookup the per-packet path makes.  Iteration order of LinkMode
    # sets already varied between processes (string hashes are salted),
    # so no output depends on it.
    __hash__ = object.__hash__

    @property
    def carrier_at_tx(self) -> bool:
        """Whether the data transmitter generates the carrier."""
        return self in (LinkMode.ACTIVE, LinkMode.PASSIVE)

    @property
    def carrier_at_rx(self) -> bool:
        """Whether the data receiver generates the carrier."""
        return self in (LinkMode.ACTIVE, LinkMode.BACKSCATTER)

    @property
    def link_budget_name(self) -> str:
        """Key used by :mod:`repro.phy.link_budget` for this mode's link."""
        return self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Modes ordered by range (longest first): active > passive > backscatter.
MODES_BY_RANGE: tuple[LinkMode, ...] = (
    LinkMode.ACTIVE,
    LinkMode.PASSIVE,
    LinkMode.BACKSCATTER,
)

#: All modes in the paper's enumeration order (Fig 9 labels A, B, C).
ALL_MODES: tuple[LinkMode, ...] = (
    LinkMode.ACTIVE,
    LinkMode.PASSIVE,
    LinkMode.BACKSCATTER,
)
