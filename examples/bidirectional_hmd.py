#!/usr/bin/env python
"""Bidirectional head-mounted display traffic (the paper's Scenario 2).

An HMD (like Google Glass) is both a sensor and a display: it uploads
camera frames and downloads rendered content from a phone.  Roles switch
every burst; each direction runs its own carrier-offload optimization, so
the HMD backscatters when talking and uses the passive receiver when
listening.

The example also demonstrates the library's extension beyond the paper: a
*jointly* optimized bidirectional schedule that beats the per-direction
method when batteries are comparable.

Run:
    python examples/bidirectional_hmd.py
"""

from repro import BraidioRadio
from repro.hardware import Battery, JOULES_PER_WATT_HOUR
from repro.sim import (
    BidirectionalTraffic,
    BraidioPolicy,
    CommunicationSession,
    SimulatedLink,
    Simulator,
    bluetooth_bidirectional,
    braidio_bidirectional,
    braidio_bidirectional_joint,
)
from repro.core import LinkMap


def analytic_comparison() -> None:
    hmd_j = 0.78 * JOULES_PER_WATT_HOUR      # Apple Watch-class battery
    phone_j = 6.55 * JOULES_PER_WATT_HOUR    # iPhone 6S

    bluetooth = bluetooth_bidirectional(hmd_j, phone_j)
    paper = braidio_bidirectional(hmd_j, phone_j, distance_m=0.5)
    joint = braidio_bidirectional_joint(hmd_j, phone_j, distance_m=0.5)

    print("Analytic lifetime (equal data both ways, 0.5 m):")
    print(f"  Bluetooth:                  {bluetooth:.3e} bits")
    print(f"  Braidio (paper method):     {paper.total_bits:.3e} bits "
          f"({paper.total_bits / bluetooth:.1f}x)")
    print(f"  Braidio (joint optimum):    {joint.total_bits:.3e} bits "
          f"({joint.total_bits / bluetooth:.1f}x)")
    print("  Mode mix (paper method): "
          + ", ".join(f"{m.value}={f:.1%}" for m, f in paper.mode_fractions.items()))
    print()


def packet_level_run() -> None:
    simulator = Simulator(seed=7)
    hmd = BraidioRadio.for_device("Apple Watch")
    phone = BraidioRadio.for_device("iPhone 6S")
    hmd.battery = Battery(50e-6)
    phone.battery = Battery(420e-6)

    link = SimulatedLink(LinkMap(), distance_m=0.5, rng=simulator.rng)
    session = CommunicationSession(
        simulator,
        hmd,
        phone,
        link,
        policy_ab=BraidioPolicy(),   # HMD -> phone (sensor upload)
        policy_ba=BraidioPolicy(),   # phone -> HMD (display download)
        traffic=BidirectionalTraffic(payload_bytes=30, burst_packets=64),
    )
    metrics = session.run()

    print("Packet-level bidirectional session (scaled batteries):")
    print(f"  Terminated by: {metrics.terminated_by} after {metrics.duration_s:.2f} s")
    print(f"  Delivered {metrics.bits_delivered / 8e3:.1f} kB both ways, "
          f"PDR {metrics.packet_delivery_ratio:.3f}")
    for mode, fraction in sorted(
        metrics.mode_fractions().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {mode.value:12s} {fraction:7.2%}")
    print(f"  HMD energy {metrics.energy_a_j * 1e3:.2f} mJ, "
          f"phone energy {metrics.energy_b_j * 1e3:.2f} mJ "
          f"(ratio 1:{metrics.energy_b_j / metrics.energy_a_j:.1f})")


def main() -> None:
    analytic_comparison()
    packet_level_run()


if __name__ == "__main__":
    main()
