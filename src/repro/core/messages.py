"""DynaStar protocol payloads.

Multicast payloads travel inside
:class:`~repro.multicast.messages.MulticastMessage` envelopes and are
therefore totally ordered against each other at common destinations;
direct payloads are replica-to-replica (or replica-to-client) one-way
sends, deduplicated by the receiver.

``seq`` on the client-originated payloads is the client's issue counter
(one outstanding command per client, counted from 1): the key of the
servers' exactly-once bookkeeping, :mod:`repro.core.clienttable`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.smr.command import Command


# ---------------------------------------------------------------------------
# Multicast payloads (ordered through the atomic multicast)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OracleQuery:
    """Client -> oracle: what should I do with this command?

    Covers the base protocol's ``exec(C)`` (when ``dispatch`` is True the
    oracle itself forwards the command to the partitions, Algorithm 2) and
    the optimized protocol's cache-miss lookup (§4.3), where the client
    dispatches using the returned prophecy.
    """

    command: Command
    client: str
    attempt: int
    seq: int
    dispatch: bool = False


@dataclass(frozen=True, slots=True)
class ExecCommand:
    """Single-partition command execution request."""

    command: Command
    client: str
    attempt: int
    seq: int
    #: The scheduler's cache: the command's
    #: :class:`~repro.smr.statemachine.Signature`, compiled by the first
    #: server that needs it and read by every other replica of every
    #: involved partition (payloads travel by reference).  Derived from
    #: the payload, so no part of its value; set once, with
    #: ``object.__setattr__``.
    sched: Any = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class GlobalCommand:
    """Multi-partition command: gather variables at ``target``, execute
    there, return them (the paper's ``global(ω, Pd, C)``).

    ``locations`` carries the believed node -> partition map for the
    command's nodes so every involved partition knows what to send and
    what to wait for.
    """

    command: Command
    client: str
    attempt: int
    target: str
    locations: tuple  # ((node, partition), ...)
    seq: int
    #: As :attr:`ExecCommand.sched`.
    sched: Any = field(default=None, init=False, repr=False, compare=False)

    def involved(self) -> tuple:
        return tuple(sorted({p for _, p in self.locations}))

    def nodes_at(self, partition: str) -> tuple:
        return tuple(n for n, p in self.locations if p == partition)


@dataclass(frozen=True, slots=True)
class CreateVar:
    """Oracle -> {oracle, partition}: materialize a new variable."""

    command: Command
    var: Any
    node: Any
    partition: str
    client: str
    attempt: int
    seq: int


@dataclass(frozen=True, slots=True)
class DeleteVar:
    """Oracle -> {oracle, partition}: remove a variable."""

    command: Command
    var: Any
    node: Any
    partition: str
    client: str
    attempt: int
    seq: int


@dataclass(frozen=True, slots=True)
class ExecutionHint:
    """Server -> oracle: observed workload-graph vertices and edges.

    ``seq`` makes the multicast uid deterministic across the sending
    partition's replicas so the oracle ingests each hint once.
    """

    partition: str
    seq: int
    vertices: tuple  # ((node, weight), ...)
    edges: tuple  # ((u, v, weight), ...)


@dataclass(frozen=True, slots=True)
class PartitionPlan:
    """Oracle -> everyone: new node -> partition assignment, versioned.

    ``retiring`` names partitions this plan strips of every node (a merge
    cutover): their servers enter draining mode, ship all state out, and
    announce :class:`DrainComplete` once nothing is left in flight.
    """

    version: int
    assignment: tuple  # ((node, partition), ...)
    retiring: tuple = ()  # (partition, ...)

    def as_dict(self) -> dict:
        return dict(self.assignment)


@dataclass(frozen=True, slots=True)
class ReconfigPlan:
    """Oracle -> oracle: phase 1 of an elastic reconfiguration.

    Epoch-tagged and a-delivered through the oracle's own log, so both
    oracle replicas commit to the same topology change at the same log
    position.  ``kind`` is ``"split"`` (``moved`` nodes leave ``source``
    for the freshly provisioned ``target``) or ``"merge"`` (every node
    of ``source`` moves to ``target`` and ``source`` retires; the moved
    set is computed at delivery time so late creates are not stranded).
    The cutover :class:`PartitionPlan` is derived and multicast at
    delivery — phase 2.
    """

    epoch: int
    kind: str  # "split" | "merge"
    source: str
    target: str
    moved: tuple = ()  # (node, ...) — split only


@dataclass(frozen=True, slots=True)
class DrainComplete:
    """Retiring partition -> {oracle, itself}: every node shipped, every
    reliable send acked.  A-delivery at the retiring group is the totally
    ordered retire point (its replicas flip to ``retired`` at the same
    log position); a-delivery at the oracle completes the merge.
    """

    version: int  # cutover plan version (uid-deterministic across replicas)
    partition: str


# ---------------------------------------------------------------------------
# Direct payloads (one-way sends, receiver deduplicates)
# ---------------------------------------------------------------------------


class ProphecyStatus(enum.Enum):
    OK = "ok"
    NOK = "nok"


@dataclass(frozen=True, slots=True)
class Prophecy:
    """Oracle replica -> client: locations and target for a command."""

    uid: str  # command uid
    attempt: int
    status: ProphecyStatus
    locations: tuple = ()  # ((node, partition), ...)
    target: Optional[str] = None
    version: int = 0
    reason: str = ""


@dataclass(frozen=True, slots=True)
class ServerBusy:
    """Replica -> client: admission refused; back off and retry.

    Sent *instead of* accepting a command into the consensus log when
    the replica's admission queue is past its bound (queue-based load
    leveling).  ``retry_after`` is the server's backpressure hint — the
    client waits at least this long before the retry.  ``reason``
    distinguishes priority shedding of cheap-to-retry traffic
    (``"shed"``) from a queue that is full outright (``"busy"``).
    """

    uid: str  # command uid
    attempt: int
    partition: str
    retry_after: float
    reason: str = "busy"


@dataclass(frozen=True, slots=True)
class ReplyQuery:
    """Client -> every replica of an attempt's partitions: no reply came
    in time.  A replica whose client table holds command ``seq`` as this
    client's newest sends its outcome again; nothing is ordered or run."""

    uid: str  # command uid
    client: str
    seq: int
    attempt: int


@dataclass(frozen=True, slots=True)
class VarTransfer:
    """Source partition -> target partition: borrowed variables for a
    multi-partition command.

    ``attempt`` matters: a retried command reuses its uid, and buffering
    by uid alone would let a stale attempt's abort state swallow the new
    attempt's transfers (a cross-attempt deadlock).

    ``table`` is empty for a loan; where the transfer hands the nodes
    over for good (DS-SMR) it carries their
    :meth:`~repro.core.clienttable.ClientTable.export_nodes`.
    """

    cmd_uid: str
    from_partition: str
    vars: tuple  # ((var, value), ...)
    attempt: int = 0
    table: tuple = ()

    @property
    def key(self) -> tuple:
        return (self.cmd_uid, self.attempt)


@dataclass(frozen=True, slots=True)
class VarReturn:
    """Target partition -> source partition: borrowed variables coming
    home (with post-execution values).

    ``outcome`` is the execution's ``(status, result)``, which the source
    records on the nodes it lent when it consumes the return; ``None``
    marks a bounce — the command did not execute, nothing changed."""

    cmd_uid: str
    from_partition: str
    vars: tuple
    attempt: int = 0
    outcome: Optional[tuple] = None

    @property
    def key(self) -> tuple:
        return (self.cmd_uid, self.attempt)


@dataclass(frozen=True, slots=True)
class TransferFailed:
    """A partition involved in a multi-partition command discovered the
    command's location map is stale; everyone involved should abort and
    the client will retry."""

    cmd_uid: str
    from_partition: str
    attempt: int = 0

    @property
    def key(self) -> tuple:
        return (self.cmd_uid, self.attempt)


@dataclass(frozen=True, slots=True)
class PlanTransfer:
    """Old owner -> new owner: a node's variables moving under a
    repartitioning plan.

    ``table`` is the node's share of the old owner's client table
    (:meth:`~repro.core.clienttable.ClientTable.export_nodes`), installed
    together with the variables, so a client retry that lands on the new
    owner is recognised there instead of re-executed.
    """

    version: int
    node: Any
    from_partition: str
    vars: tuple
    table: tuple = ()


# ---------------------------------------------------------------------------
# Reliable replica-to-replica channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReliableMsg:
    """Envelope for at-least-once replica-to-replica delivery.

    The receiver always acks (even for duplicates) and dispatches the
    payload once per ``uid``; the sender retransmits unacked envelopes
    periodically.  Used for the transfer/return/abort traffic of
    multi-partition commands, which must survive message loss and
    receiver crashes without diverging the replicas of a partition.
    """

    uid: str
    payload: Any

    def __hash__(self):  # pragma: no cover - payload may be unhashable
        return hash(self.uid)


@dataclass(frozen=True, slots=True)
class ReliableAck:
    """Receiver -> sender: envelope ``uid`` arrived; stop retransmitting."""

    uid: str
