#!/usr/bin/env python
"""Battery-free(ish) sensing: a coin-cell tag harvesting the reader's
carrier (the WISP/Moo corner of the design space).

Braidio's passive receiver is a rectifier; in backscatter mode the tag
sits in the reader's 13 dBm field and can bank that energy.  Within the
self-sustaining range the tag's net draw is zero and its coin cell only
covers sensing — the reader's battery becomes the sole communication
limit.

Run:
    python examples/battery_free_sensor.py
"""

from repro.hardware import RfHarvester, JOULES_PER_WATT_HOUR as WH
from repro.sim import (
    braidio_unidirectional,
    braidio_unidirectional_harvesting,
    lifetime_at_demand,
)

COIN_CELL_WH = 1e-3           # a 1 mWh energy budget for communication
LAPTOP_WH = 99.5
TAG_LOAD_W = 50.67e-6         # backscatter TX at 1 Mbps


def main() -> None:
    harvester = RfHarvester()
    print("Harvest vs distance (13 dBm carrier, 30% rectifier):")
    for d in (0.1, 0.2, 0.3, 0.5, 1.0):
        harvested = harvester.harvested_power_w(d)
        status = "self-sustaining" if harvested >= TAG_LOAD_W else "battery-assisted"
        print(f"  {d:4.1f} m: {harvested * 1e6:7.2f} uW  ({status})")
    print(f"Self-sustaining range for the 1 Mbps tag: "
          f"{harvester.self_sustaining_range_m(TAG_LOAD_W):.2f} m")
    print()

    e_tag = COIN_CELL_WH * WH
    e_laptop = LAPTOP_WH * WH
    for d in (0.2, 0.4, 1.0):
        plain = braidio_unidirectional(e_tag, e_laptop, d)
        harvesting = braidio_unidirectional_harvesting(e_tag, e_laptop, d)
        print(f"Coin-cell sensor -> laptop at {d} m:")
        print(f"  plain Braidio:      {plain.total_bits:.3e} bits "
              f"(limited by {plain.limited_by})")
        print(f"  with harvesting:    {harvesting.total_bits:.3e} bits "
              f"({harvesting.total_bits / plain.total_bits:.1f}x)")
    print()

    # A duty-cycled sensor: 10 kbps of readings to a phone.
    result = lifetime_at_demand(
        e_tag, 6.55 * WH, demand_bps=10_000, distance_m=0.4
    )
    print("Duty-cycled 10 kbps upload to a phone at 0.4 m:")
    print(f"  lifetime {result.lifetime_s / 86400:.1f} days on 1 mWh "
          f"(air time {result.air_time_fraction:.2%}, "
          f"limited by {result.limited_by})")


if __name__ == "__main__":
    main()
