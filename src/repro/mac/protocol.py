"""Control-plane protocol: battery exchange, link probing and mode
negotiation.

§4.2 of the paper: "Initially, the transmitter and receiver exchange
information about their battery status using the active radio.  ...  The
two end-points use probe packets over the two links to determine the SNR
and bitrate parameters, and exchange this information."

This module defines the control payloads (carried in
:class:`~repro.mac.frames.Frame` payloads) and a small handshake state
machine that sequences battery exchange -> probing -> schedule
announcement.  The discrete-event simulator drives it; the protocol tests
exercise it stand-alone.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..modes import LinkMode
from .frames import Frame, FrameType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.battery import Battery

_MODE_CODES = {LinkMode.ACTIVE: 0, LinkMode.PASSIVE: 1, LinkMode.BACKSCATTER: 2}
_MODE_FROM_CODE = {v: k for k, v in _MODE_CODES.items()}

_BATTERY = struct.Struct(">dd")
_PROBE = struct.Struct(">BI")
_PROBE_REPORT = struct.Struct(">BIdd")
_SCHEDULE_HEADER = struct.Struct(">B")
_SCHEDULE_ENTRY = struct.Struct(">BIH")


class ProtocolError(ValueError):
    """Raised on malformed control payloads or out-of-order handshakes."""


@dataclass(frozen=True)
class BatteryStatus:
    """Battery announcement: remaining and nameplate energy in joules."""

    remaining_j: float
    capacity_j: float

    def __post_init__(self) -> None:
        if self.capacity_j <= 0.0 or not 0.0 <= self.remaining_j <= self.capacity_j:
            raise ValueError(
                f"inconsistent battery status: {self.remaining_j}/{self.capacity_j} J"
            )

    def encode(self) -> bytes:
        """Serialize as the BATTERY_STATUS frame payload."""
        return _BATTERY.pack(self.remaining_j, self.capacity_j)

    @classmethod
    def decode(cls, payload: bytes) -> "BatteryStatus":
        """Parse a BATTERY_STATUS payload.

        Raises:
            ProtocolError: on truncation.
        """
        try:
            remaining, capacity = _BATTERY.unpack(payload)
        except struct.error as exc:
            raise ProtocolError(f"bad battery payload: {exc}") from exc
        return cls(remaining_j=remaining, capacity_j=capacity)

    @classmethod
    def from_battery(cls, battery: "Battery") -> "BatteryStatus":
        """Announce a live battery's state."""
        return cls(remaining_j=battery.remaining_j, capacity_j=battery.capacity_j)


@dataclass(frozen=True)
class Probe:
    """Request to sound one (mode, bitrate) link."""

    mode: LinkMode
    bitrate_bps: int

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")

    def encode(self) -> bytes:
        """Serialize as the PROBE frame payload."""
        return _PROBE.pack(_MODE_CODES[self.mode], self.bitrate_bps)

    @classmethod
    def decode(cls, payload: bytes) -> "Probe":
        """Parse a PROBE payload.

        Raises:
            ProtocolError: on truncation or unknown mode code.
        """
        try:
            code, bitrate = _PROBE.unpack(payload)
        except struct.error as exc:
            raise ProtocolError(f"bad probe payload: {exc}") from exc
        if code not in _MODE_FROM_CODE:
            raise ProtocolError(f"unknown mode code {code}")
        return cls(mode=_MODE_FROM_CODE[code], bitrate_bps=bitrate)


@dataclass(frozen=True)
class ProbeReport:
    """Measured link quality for one (mode, bitrate) pair."""

    mode: LinkMode
    bitrate_bps: int
    snr_db: float
    ber: float

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"BER must be a probability, got {self.ber!r}")

    def encode(self) -> bytes:
        """Serialize as the PROBE_REPORT frame payload."""
        return _PROBE_REPORT.pack(
            _MODE_CODES[self.mode], self.bitrate_bps, self.snr_db, self.ber
        )

    @classmethod
    def decode(cls, payload: bytes) -> "ProbeReport":
        """Parse a PROBE_REPORT payload.

        Raises:
            ProtocolError: on truncation or unknown mode code.
        """
        try:
            code, bitrate, snr, ber = _PROBE_REPORT.unpack(payload)
        except struct.error as exc:
            raise ProtocolError(f"bad probe report: {exc}") from exc
        if code not in _MODE_FROM_CODE:
            raise ProtocolError(f"unknown mode code {code}")
        return cls(mode=_MODE_FROM_CODE[code], bitrate_bps=bitrate, snr_db=snr, ber=ber)


@dataclass(frozen=True)
class ScheduleAnnouncement:
    """The negotiated mode schedule: (mode, bitrate, packets) blocks."""

    blocks: tuple[tuple[LinkMode, int, int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("schedule must have at least one block")
        for mode, bitrate, packets in self.blocks:
            if bitrate <= 0 or packets <= 0:
                raise ValueError(f"bad schedule block: {(mode, bitrate, packets)}")

    def encode(self) -> bytes:
        """Serialize as the MODE_SWITCH frame payload."""
        out = bytearray(_SCHEDULE_HEADER.pack(len(self.blocks)))
        for mode, bitrate, packets in self.blocks:
            out += _SCHEDULE_ENTRY.pack(_MODE_CODES[mode], bitrate, packets)
        return bytes(out)

    @classmethod
    def decode(cls, payload: bytes) -> "ScheduleAnnouncement":
        """Parse a MODE_SWITCH payload.

        Raises:
            ProtocolError: on truncation or unknown mode codes.
        """
        try:
            (count,) = _SCHEDULE_HEADER.unpack_from(payload, 0)
            blocks = []
            offset = _SCHEDULE_HEADER.size
            for _ in range(count):
                code, bitrate, packets = _SCHEDULE_ENTRY.unpack_from(payload, offset)
                offset += _SCHEDULE_ENTRY.size
                if code not in _MODE_FROM_CODE:
                    raise ProtocolError(f"unknown mode code {code}")
                blocks.append((_MODE_FROM_CODE[code], bitrate, packets))
        except struct.error as exc:
            raise ProtocolError(f"bad schedule payload: {exc}") from exc
        if offset != len(payload):
            raise ProtocolError("trailing bytes after schedule")
        return cls(blocks=tuple(blocks))


class HandshakePhase(enum.Enum):
    """Phases of the carrier-offload negotiation."""

    IDLE = "idle"
    BATTERY_EXCHANGE = "battery"
    PROBING = "probing"
    READY = "ready"


class Negotiation:
    """Sequences the offload handshake on one end point.

    The handshake always runs over the active link (the only mode that is
    guaranteed to work).  Each side:

    1. sends its :class:`BatteryStatus` and waits for the peer's;
    2. sounds each candidate link with :class:`Probe` frames and collects
       :class:`ProbeReport` replies;
    3. announces/receives the :class:`ScheduleAnnouncement`.
    """

    def __init__(self) -> None:
        self._phase = HandshakePhase.IDLE
        self.local_battery: BatteryStatus | None = None
        self.peer_battery: BatteryStatus | None = None
        self.reports: dict[tuple[LinkMode, int], ProbeReport] = {}
        self.schedule: ScheduleAnnouncement | None = None

    @property
    def phase(self) -> HandshakePhase:
        """Current handshake phase."""
        return self._phase

    def start(self, local_battery: BatteryStatus) -> Frame:
        """Begin the handshake; returns the battery frame to send."""
        if self._phase is not HandshakePhase.IDLE:
            raise ProtocolError(f"cannot start from phase {self._phase}")
        self.local_battery = local_battery
        self._phase = HandshakePhase.BATTERY_EXCHANGE
        return Frame(FrameType.BATTERY_STATUS, 0, payload=local_battery.encode())

    def on_battery(self, frame: Frame) -> None:
        """Handle the peer's battery announcement."""
        if frame.frame_type is not FrameType.BATTERY_STATUS:
            raise ProtocolError(f"expected BATTERY_STATUS, got {frame.frame_type}")
        if self._phase not in (HandshakePhase.IDLE, HandshakePhase.BATTERY_EXCHANGE):
            raise ProtocolError(f"unexpected battery frame in phase {self._phase}")
        self.peer_battery = BatteryStatus.decode(frame.payload)
        if self.local_battery is not None:
            self._phase = HandshakePhase.PROBING

    def on_probe_report(self, frame: Frame) -> None:
        """Record a peer probe report."""
        if frame.frame_type is not FrameType.PROBE_REPORT:
            raise ProtocolError(f"expected PROBE_REPORT, got {frame.frame_type}")
        if self._phase is not HandshakePhase.PROBING:
            raise ProtocolError(f"unexpected probe report in phase {self._phase}")
        report = ProbeReport.decode(frame.payload)
        self.reports[(report.mode, report.bitrate_bps)] = report

    def finish(self, schedule: ScheduleAnnouncement) -> Frame:
        """Commit the negotiated schedule; returns the announcement frame."""
        if self._phase is not HandshakePhase.PROBING:
            raise ProtocolError(f"cannot finish from phase {self._phase}")
        self.schedule = schedule
        self._phase = HandshakePhase.READY
        return Frame(FrameType.MODE_SWITCH, 0, payload=schedule.encode())

    def on_schedule(self, frame: Frame) -> None:
        """Adopt the peer's schedule announcement."""
        if frame.frame_type is not FrameType.MODE_SWITCH:
            raise ProtocolError(f"expected MODE_SWITCH, got {frame.frame_type}")
        if self._phase is not HandshakePhase.PROBING:
            raise ProtocolError(f"unexpected schedule in phase {self._phase}")
        self.schedule = ScheduleAnnouncement.decode(frame.payload)
        self._phase = HandshakePhase.READY
