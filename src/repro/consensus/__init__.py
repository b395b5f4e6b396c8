"""Multi-Paxos consensus substrate.

Each partition (and the oracle) in the replicated system is a *group*:
a set of replica actors (proposers + learners) and a set of acceptor
actors running Multi-Paxos.  The paper's prototype uses libpaxos3 with
2 replicas and 3 acceptors per group; :class:`~repro.consensus.group.PaxosGroup`
builds the same topology on the simulated network.

The log is delivered to the application in instance order with
uid-based exactly-once semantics, so higher layers (atomic multicast,
DynaStar servers) can treat the group as a single sequential state
machine that survives leader crashes.
"""

from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    Heartbeat,
    LearnRequest,
    NoOp,
    Prepare,
    Promise,
    RecoverInfo,
    RecoverQuery,
    Submit,
)
from repro.consensus.paxos import Acceptor, PaxosReplica
from repro.consensus.rangeset import RangeSet
from repro.consensus.group import PaxosGroup, GroupConfig

__all__ = [
    "Accept",
    "Accepted",
    "Decision",
    "Heartbeat",
    "LearnRequest",
    "NoOp",
    "Prepare",
    "Promise",
    "RecoverInfo",
    "RecoverQuery",
    "Submit",
    "Acceptor",
    "PaxosReplica",
    "RangeSet",
    "PaxosGroup",
    "GroupConfig",
]
