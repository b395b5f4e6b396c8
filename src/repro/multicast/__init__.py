"""Genuine atomic multicast (BaseCast-style).

The paper's prototype uses BaseCast (Coelho et al., "Fast Atomic
Multicast", DSN 2017): each destination group is a Multi-Paxos-replicated
state machine running Skeen's timestamp algorithm.  A message addressed
to a single group costs one consensus round in that group; a message
addressed to ``k`` groups costs one consensus round per group to assign a
local timestamp, one cross-group timestamp exchange, and one more
consensus round per group to agree on the remote timestamps — exactly the
single- vs multi-partition cost asymmetry the DynaStar evaluation
measures.

The protocol is *genuine*: only the sender and the destination groups of
a message exchange messages to order it.

Guarantees (see §2.2 of the paper, tested in ``tests/multicast``):
validity, uniform agreement, integrity, acyclic delivery order, and
prefix order across groups.  One sender's messages keep their order over
FIFO links; no gate enforces it (clients have one command outstanding).
"""

from repro.multicast.messages import MulticastMessage, OrderEvent, TsEvent, RemoteTs
from repro.multicast.basecast import MulticastReplica, MulticastGroup, GroupDirectory

__all__ = [
    "MulticastMessage",
    "OrderEvent",
    "TsEvent",
    "RemoteTs",
    "MulticastReplica",
    "MulticastGroup",
    "GroupDirectory",
]
