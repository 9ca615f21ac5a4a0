#!/usr/bin/env python
"""Mobility and fallback: what happens when the devices move apart.

§4.2: "the wireless link is dynamic, particularly in a mobile environment.
Braidio simply falls back to the active mode if the current operating mode
is performing poorly."  Here a watch walks away from a laptop in steps:
the controller downgrades bitrates, loses backscatter (regime A -> B),
then loses the passive receiver (regime B -> C), and keeps the session
alive on the active link.  The watch dwells one simulated second at
each distance.

Run:
    python examples/mobility_fallback.py
"""

from repro import BraidioRadio, DynamicOffloadController, LinkMap
from repro.hardware import Battery
from repro.sim import (
    BraidioPolicy,
    CommunicationSession,
    SaturatedTraffic,
    SimulatedLink,
    Simulator,
)
from repro.sim.session import FRAME_OVERHEAD_BITS

#: Simulated seconds the watch spends at each distance of the walk.
DWELL_S = 1.0


def main() -> None:
    simulator = Simulator(seed=3)
    watch = BraidioRadio.for_device("Apple Watch")
    laptop = BraidioRadio.for_device("Surface Book")
    watch.battery = Battery(5e-3)
    laptop.battery = Battery(0.5)

    # PER-aware availability: the controller downgrades bitrate before a
    # mode's packet loss becomes punishing, instead of waiting for the
    # failure-driven fallback.
    frame_bits = 30 * 8 + FRAME_OVERHEAD_BITS
    link_map = LinkMap(packet_bits=frame_bits)
    link = SimulatedLink(link_map, distance_m=0.3, rng=simulator.rng)
    policy = BraidioPolicy(DynamicOffloadController(link_map=link_map))
    session = CommunicationSession(
        simulator,
        watch,
        laptop,
        link,
        policy_ab=policy,
        traffic=SaturatedTraffic(payload_bytes=30),
        max_packets=10_000_000,  # we stop the walk manually
    )
    session.start()

    print(f"{watch.name} -> {laptop.name}, walking away from the laptop")
    print(f"{'distance':>9s} {'regime':>7s} {'replans':>8s}  plan")
    for distance in (0.3, 0.8, 1.5, 2.2, 3.0, 4.0, 5.0, 6.5):
        link.set_distance(distance)
        policy.update_distance(distance)
        simulator.run(until_s=simulator.now_s + DWELL_S)
        if session.finished:
            break
        plan = policy.controller.plan
        mix = ", ".join(
            f"{m.value}@{plan.bitrates[m] // 1000}k={f:.0%}"
            for m, f in sorted(
                plan.solution.mode_fractions().items(), key=lambda kv: -kv[1]
            )
            if f > 1e-9
        )
        print(
            f"{distance:8.1f}m {plan.regime.value:>7s} "
            f"{policy.controller.replans:8d}  {mix}"
        )

    metrics = session.metrics
    print()
    print(f"Session stats over the walk: {metrics.packets_attempted} packets, "
          f"PDR {metrics.packet_delivery_ratio:.3f}, "
          f"{metrics.mode_switches} mode switches")
    print(f"Watch spent {metrics.energy_a_j:.3f} J, "
          f"laptop spent {metrics.energy_b_j:.3f} J")


if __name__ == "__main__":
    main()
