"""Multi-Paxos message types.

Ballots are plain integers; the leader for ballot ``b`` is replica
``b % n_replicas`` (round-robin), which gives deterministic, livelock-free
leader succession under partial synchrony.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True, slots=True)
class Submit:
    """Ask a group to order ``value``.  ``value.uid`` must be unique."""

    value: Any


@dataclass(frozen=True, slots=True)
class NoOp:
    """Filler value used by a new leader to close gap instances."""

    uid: str = "noop"


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1a: new leader claims ``ballot`` for all instances >= low."""

    ballot: int
    low: int


@dataclass(frozen=True, slots=True)
class Promise:
    """Phase 1b: acceptor's promise plus previously accepted values.

    ``accepted`` maps instance -> (vballot, value) for every instance >= low
    the acceptor still holds a value in; everything below
    ``truncated_below`` was chosen and discarded.
    """

    ballot: int
    accepted: dict
    truncated_below: int = 0

    def __hash__(self):  # pragma: no cover - only identity needed
        return id(self)


@dataclass(frozen=True, slots=True)
class Accept:
    """Phase 2a: leader asks acceptors to accept ``value`` in ``instance``.

    ``floor`` is the leader's group-stable watermark: every replica has
    delivered the instances below it, so the acceptor discards them."""

    ballot: int
    instance: int
    value: Any
    floor: int = 0


@dataclass(frozen=True, slots=True)
class Accepted:
    """Phase 2b: acceptor accepted (ballot, instance, value)."""

    ballot: int
    instance: int


@dataclass(frozen=True, slots=True)
class Decision:
    """Learner notification: ``value`` was chosen in ``instance``."""

    instance: int
    value: Any


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader liveness beacon carrying the highest decided instance, the
    leader's delivery frontier (see :class:`Frontier`) and its
    group-stable ``floor`` — for the acceptors, which get the beacon only
    when no :class:`Accept` has told them that floor yet."""

    ballot: int
    max_decided: int
    frontier: int = 0
    floor: int = 0


@dataclass(frozen=True, slots=True)
class Frontier:
    """Follower -> group peers, once per heartbeat period: "I have
    delivered every instance below ``next_deliver``".  The minimum over
    the group's reports is the stable prefix nobody will ask for again."""

    next_deliver: int


@dataclass(frozen=True, slots=True)
class LearnRequest:
    """Ask a peer replica to resend decisions for instances in [low, high]."""

    low: int
    high: int


@dataclass(frozen=True, slots=True)
class Nack:
    """Acceptor rejection telling the proposer about a higher ballot."""

    ballot: int
    instance: Optional[int] = None


@dataclass(frozen=True, slots=True)
class RecoverQuery:
    """Recovering replica asks acceptors for their accepted state.

    ``epoch`` distinguishes recovery rounds so stale replies are ignored;
    ``low`` is the first instance the replica is missing.
    """

    epoch: int
    low: int


@dataclass(frozen=True, slots=True)
class RecoverInfo:
    """Acceptor reply to :class:`RecoverQuery`.

    ``accepted`` maps instance -> (vballot, value) for every instance
    >= the query's ``low`` the acceptor has accepted a value in.
    ``truncated_below`` is the acceptor's log-compaction floor: accepted
    state below it was discarded, so a replica whose ``low`` falls under
    it cannot re-sync from acceptors and must fetch a snapshot instead.
    """

    epoch: int
    accepted: dict
    truncated_below: int = 0

    def __hash__(self):  # pragma: no cover - only identity needed
        return id(self)


# -- snapshot transfer ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LogTruncated:
    """Peer reply to a LearnRequest for instances below its log floor:
    the suffix the requester wants no longer exists; it must fetch a
    snapshot at (or above) ``watermark`` instead."""

    watermark: int


@dataclass(frozen=True, slots=True)
class SnapshotRequest:
    """Recovering replica -> group peers: offer me a snapshot.

    ``epoch`` tags one discovery round; stale SnapshotMeta replies from
    an earlier round (or an abandoned provider) are ignored.
    """

    epoch: int


@dataclass(frozen=True, slots=True)
class SnapshotMeta:
    """Provider reply: snapshot ``snapshot_id`` at ``watermark`` with
    ``total_items`` flattened state items is available for download."""

    epoch: int
    snapshot_id: str
    watermark: int
    total_items: int


@dataclass(frozen=True, slots=True)
class SnapshotChunkRequest:
    """Requester -> provider: send ``count`` items starting at ``offset``.

    Retransmitted verbatim on timeout, which makes the transfer
    resumable: the provider serves from the immutable flattened item
    list, so any (offset, count) window can be re-requested.
    """

    snapshot_id: str
    offset: int
    count: int


@dataclass(frozen=True, slots=True)
class SnapshotChunk:
    """One window of flattened checkpoint items."""

    snapshot_id: str
    watermark: int
    offset: int
    items: tuple
    total_items: int

    def __hash__(self):  # pragma: no cover - only identity needed
        return id(self)
