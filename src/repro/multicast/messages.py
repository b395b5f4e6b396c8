"""Atomic multicast message and log-event types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class MulticastMessage:
    """An application message multicast to a set of groups.

    ``uid`` must be globally unique; ``dests`` is a sorted tuple of group
    names.

    FIFO order is enforced per sender (``fifo_key``): ``fifo_seqs`` holds
    one ``(group, seq)`` pair per destination, where ``seq`` counts the
    sender's messages addressed to that group.  Sequencing per (sender,
    group) — rather than one global per-sender counter — means a group
    never waits for a predecessor that was not addressed to it, while
    still guaranteeing that any process delivering two messages from the
    same sender delivers them in send order.
    """

    uid: str
    dests: tuple
    payload: Any
    fifo_key: str = ""
    fifo_seqs: tuple = ()

    def __post_init__(self):
        if not self.dests:
            raise ValueError("multicast needs at least one destination group")
        if tuple(sorted(self.dests)) != self.dests:
            raise ValueError("dests must be a sorted tuple")
        if self.fifo_key and len(self.fifo_seqs) != len(self.dests):
            raise ValueError("fifo_seqs must have one (group, seq) per dest")

    @property
    def is_single_group(self) -> bool:
        return len(self.dests) == 1

    def fifo_seq_for(self, group: str):
        """This sender's per-``group`` sequence number, or ``None``."""
        for g, seq in self.fifo_seqs:
            if g == group:
                return seq
        return None


@dataclass(frozen=True, slots=True)
class OrderEvent:
    """Group-log event: locally order ``message`` and assign a timestamp."""

    message: MulticastMessage
    #: Log-dedup key, built once: every dedup set of every replica that
    #: sees this event stores the same string object.
    uid: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "uid", f"ord:{self.message.uid}")


@dataclass(frozen=True, slots=True)
class TsEvent:
    """Group-log event: a remote group's timestamp for a pending message."""

    msg_uid: str
    from_group: str
    ts: int
    #: Log-dedup key, built once (see :class:`OrderEvent`).
    uid: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "uid", f"ts:{self.msg_uid}:{self.from_group}")


@dataclass(frozen=True, slots=True)
class RemoteTs:
    """Replica-to-replica notification carrying a group timestamp.

    The receiving replica wraps it into a :class:`TsEvent` and submits it
    to its own group's log so all replicas bump their Skeen clock at the
    same log position.
    """

    msg_uid: str
    from_group: str
    ts: int
