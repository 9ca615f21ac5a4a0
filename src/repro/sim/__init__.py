"""Simulation substrate: the discrete-event kernel, stochastic links,
traffic patterns, policies, sessions and the analytic lifetime engine."""

from .estimation import LinkProber, ProbeResult, SnrEstimator
from .events import EventQueue
from .interference import BurstyInterferer, InterferedLink
from .lifetime import (
    DemandLifetime,
    LifetimeResult,
    lifetime_at_demand,
    best_single_mode_unidirectional,
    bluetooth_bidirectional,
    bluetooth_unidirectional,
    braidio_bidirectional,
    braidio_bidirectional_joint,
    braidio_bidirectional_gain,
    braidio_gain_over_best_mode,
    braidio_gain_over_bluetooth,
    braidio_unidirectional,
    braidio_unidirectional_harvesting,
)
from .link import SimulatedLink
from .mobility import (
    LinearWalk,
    MobilityDriver,
    RandomWaypoint1D,
    StaticPlacement,
)
from .policies import (
    BluetoothPolicy,
    BraidioPolicy,
    FixedModePolicy,
    PacketDecision,
)
from .results import SessionMetrics
from .session import FRAME_OVERHEAD_BITS, CommunicationSession
from .simulator import Simulator
from .traffic import BidirectionalTraffic, ConstantBitrateTraffic, SaturatedTraffic

__all__ = [
    "DemandLifetime",
    "lifetime_at_demand",
    "BurstyInterferer",
    "InterferedLink",
    "LinearWalk",
    "LinkProber",
    "MobilityDriver",
    "ProbeResult",
    "RandomWaypoint1D",
    "SnrEstimator",
    "StaticPlacement",
    "BidirectionalTraffic",
    "BluetoothPolicy",
    "BraidioPolicy",
    "CommunicationSession",
    "ConstantBitrateTraffic",
    "EventQueue",
    "FRAME_OVERHEAD_BITS",
    "FixedModePolicy",
    "LifetimeResult",
    "PacketDecision",
    "SaturatedTraffic",
    "SessionMetrics",
    "SimulatedLink",
    "Simulator",
    "best_single_mode_unidirectional",
    "bluetooth_bidirectional",
    "bluetooth_unidirectional",
    "braidio_bidirectional",
    "braidio_bidirectional_joint",
    "braidio_bidirectional_gain",
    "braidio_gain_over_best_mode",
    "braidio_gain_over_bluetooth",
    "braidio_unidirectional",
    "braidio_unidirectional_harvesting",
]
