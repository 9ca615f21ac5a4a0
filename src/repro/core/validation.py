"""Input checks shared by the declarative specs (deployments, fault
plans), kept here so each spec module can use them without importing
the other's package."""

from __future__ import annotations

import math
from typing import Mapping


def require_finite(
    owner: str, fields: "Mapping[str, float | tuple[float, ...]]"
) -> None:
    """NaN and ±inf slip past every range check (``nan <= 0.0`` is false)
    and an infinite horizon never finishes simulating, so non-finite
    numbers fail with an error naming the field."""
    for key, value in fields.items():
        for number in value if isinstance(value, (tuple, list)) else (value,):
            if not math.isfinite(number):
                raise ValueError(f"{owner} field {key!r} must be finite, got {number!r}")
