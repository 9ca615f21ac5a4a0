"""Traffic patterns for the simulated sessions.

The paper's experiments use two patterns: saturated one-way transfer
(Scenario 1) and role-switching bidirectional transfer with equal data in
both directions (Scenario 2).  A constant-bitrate source is included for
duty-cycled scenarios beyond the paper's evaluation.

A pattern states two constants that the session's serve loop reads once
per chain of packets: ``gap_s``, the idle time after each packet, and
``burst_packets``, the packets sent before the transmitter role switches
(``None`` for one-way traffic, where device A always transmits).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SaturatedTraffic:
    """Always-backlogged one-way traffic: the next packet leaves as soon
    as the link is free.

    Attributes:
        payload_bytes: data payload per packet.
    """

    payload_bytes: int = 30

    #: One-way: device A always transmits.
    burst_packets = None
    #: Saturated: no idle time between packets.
    gap_s = 0.0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload must be positive")


@dataclass(frozen=True)
class BidirectionalTraffic:
    """Role-switching traffic: equal data in both directions, switching
    the transmitter role every ``burst_packets`` packets (Scenario 2).

    Attributes:
        payload_bytes: data payload per packet.
        burst_packets: packets sent before the roles switch.
    """

    payload_bytes: int = 30
    burst_packets: int = 64

    #: Saturated bursts: no idle time between packets.
    gap_s = 0.0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0 or self.burst_packets <= 0:
            raise ValueError("payload and burst size must be positive")

    def direction_for_packet(self, index: int) -> int:
        """0 when device A transmits packet ``index``, 1 when device B
        does (the session's serve loop computes this inline)."""
        if index < 0:
            raise ValueError("packet index must be non-negative")
        return (index // self.burst_packets) % 2


@dataclass(frozen=True)
class ConstantBitrateTraffic:
    """One-way source generating ``offered_bps`` of payload on average by
    inserting idle gaps between packets.

    Attributes:
        payload_bytes: data payload per packet.
        offered_bps: average offered payload rate.
        link_bps: nominal link rate used to size the idle gap.
    """

    payload_bytes: int = 30
    offered_bps: float = 10_000.0
    link_bps: float = 1_000_000.0

    #: One-way: device A always transmits.
    burst_packets = None

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload must be positive")
        if not 0.0 < self.offered_bps <= self.link_bps:
            raise ValueError("offered rate must be positive and below the link rate")

    @property
    def gap_s(self) -> float:
        """Idle gap sized so payload averages ``offered_bps``."""
        payload_bits = 8 * self.payload_bytes
        on_air_s = payload_bits / self.link_bps
        period_s = payload_bits / self.offered_bps
        return max(period_s - on_air_s, 0.0)
