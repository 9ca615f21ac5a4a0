#!/usr/bin/env python
"""Camera-glasses video upload: the paper's Pivothead motivating scenario.

A Pivothead camera (outward-facing, streams at 30 fps like a GoPro or
Google Glass) uploads video to a laptop.  The paper highlights this pair:
"Braidio improves lifetime by 35x for communication between this device
and a laptop" (§6.3).  This example reproduces that headline number and
shows how the gain decays as the wearer walks away.

Run:
    python examples/camera_glasses_stream.py
"""

from repro import BraidioRadio, LinkMap, plan_transfer
from repro.analysis import distance_gain_curve
from repro.sim import bluetooth_unidirectional


def main() -> None:
    glasses = BraidioRadio.for_device("Pivothead")
    laptop = BraidioRadio.for_device("MacBook Pro 15")

    plan = plan_transfer(glasses, laptop, distance_m=0.8)
    bluetooth = bluetooth_unidirectional(
        glasses.battery.remaining_j, laptop.battery.remaining_j
    )
    gain = plan.total_bits / bluetooth

    print(f"Streaming: {glasses.name} -> {laptop.name} at 0.8 m")
    print(f"Braidio delivers {plan.total_bits:.3e} bits before a battery dies")
    print(f"Bluetooth delivers {bluetooth:.3e} bits")
    print(f"Lifetime gain: {gain:.1f}x (paper reports 35x for this pair)")
    print()

    # A 30 fps compressed stream at ~500 kbps: how long can the glasses go?
    stream_bps = 500e3
    glasses_hours = plan.total_bits / stream_bps / 3600.0
    bluetooth_hours = bluetooth / stream_bps / 3600.0
    print("At a 500 kbps video rate:")
    print(f"  Braidio:   {glasses_hours:8.1f} hours of streaming")
    print(f"  Bluetooth: {bluetooth_hours:8.1f} hours of streaming")
    print()

    print("Gain vs distance (the wearer walks away):")
    curve = distance_gain_curve(
        glasses.name, laptop.name, link_map=LinkMap()
    )
    for d in (0.3, 0.9, 1.8, 2.4, 3.0, 4.5, 6.0):
        print(f"  {d:4.1f} m: {curve.gain_at(d):8.2f}x")


if __name__ == "__main__":
    main()
