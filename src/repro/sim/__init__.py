"""Deterministic discrete-event simulation kernel.

Every distributed component in this repository (Paxos acceptors, multicast
groups, DynaStar servers, the oracle, clients) is an :class:`~repro.sim.actors.Actor`
scheduled on a single :class:`~repro.sim.events.Simulator` event heap and
connected through a :class:`~repro.sim.network.Network` with configurable
latency models.  Given a seed, an entire experiment is bit-for-bit
reproducible.
"""

from repro.sim.events import Event, Simulator, SimulationError
from repro.sim.actors import Actor, Timer
from repro.sim.latency import (
    LatencyModel,
    ConstantLatency,
    UniformLatency,
    LogNormalLatency,
)
from repro.sim.network import Network, NetworkPartitionError
from repro.sim.randomness import SeedSequenceFactory, zipf_cdf, ZipfGenerator
from repro.sim.monitor import Counter, Gauge, Histogram, TimeSeries, Monitor
from repro.sim.rto import Retransmitter

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "Actor",
    "Timer",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "Network",
    "NetworkPartitionError",
    "SeedSequenceFactory",
    "zipf_cdf",
    "ZipfGenerator",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "Monitor",
    "Retransmitter",
]
