"""Discrete-event simulation substrate.

Provides the deterministic event loop, node/queue/network models, load
balancers, seeded RNG streams and latency metrics that the proxy, LRS
and workload layers are built on.
"""

from repro.simnet.clock import (
    DEFAULT_SLOT_WIDTH,
    EventHandle,
    EventLoop,
    SimulationError,
)
from repro.simnet.loadbalancer import (
    BalancerError,
    BalancingPolicy,
    LeastPendingPolicy,
    LoadBalancer,
    NoUpstream,
    RandomPolicy,
    RoundRobinPolicy,
    make_policy,
)
from repro.simnet.metrics import (
    CandlestickSummary,
    LatencyRecorder,
    SlottedLatencyRecorder,
    percentile,
    trim_window,
)
from repro.simnet.network import FaultDecision, FlowRecord, LatencyModel, Network
from repro.simnet.node import NodeStats, SimNode
from repro.simnet.queueing import (
    SHED_FRONT,
    SHED_SOJOURN,
    SHED_TAIL,
    CoDelPolicy,
    ConcurrentQueue,
    FrontDropPolicy,
    ShedPolicy,
    TailDropPolicy,
    make_shed_policy,
)
from repro.simnet.rng import RngRegistry

__all__ = [
    "EventLoop",
    "EventHandle",
    "SimulationError",
    "DEFAULT_SLOT_WIDTH",
    "LoadBalancer",
    "BalancerError",
    "NoUpstream",
    "BalancingPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "LeastPendingPolicy",
    "make_policy",
    "CandlestickSummary",
    "LatencyRecorder",
    "SlottedLatencyRecorder",
    "percentile",
    "trim_window",
    "Network",
    "FlowRecord",
    "FaultDecision",
    "LatencyModel",
    "SimNode",
    "NodeStats",
    "ConcurrentQueue",
    "ShedPolicy",
    "TailDropPolicy",
    "FrontDropPolicy",
    "CoDelPolicy",
    "make_shed_policy",
    "SHED_TAIL",
    "SHED_FRONT",
    "SHED_SOJOURN",
    "RngRegistry",
]
