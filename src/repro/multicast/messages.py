"""Atomic multicast message and log-event types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional


@dataclass(frozen=True, slots=True)
class MulticastMessage:
    """An application message multicast to a set of groups.

    ``uid`` must be globally unique; ``dests`` is a sorted tuple of group
    names.

    A message with a ``sender`` is the ``n``-th of the *stream*
    ``(sender, dests)``: the sender counts what it sends to each
    destination set from 0 without gaps.  ``key`` — ``(stream, n)``, or
    the uid of a message that has no number — is what the ordering
    layers remember of a message once they are done with it
    (:class:`~repro.consensus.rangeset.RangeSet`), so ``uid`` and
    ``key`` must name each other: a uid that is sent again carries the
    number it was first given, and a number is never given to a second
    uid (DESIGN.md §5).
    """

    uid: str
    dests: tuple
    payload: Any
    sender: str = ""
    n: Optional[int] = None
    key: Hashable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dests:
            raise ValueError("multicast needs at least one destination group")
        if tuple(sorted(self.dests)) != self.dests:
            raise ValueError("dests must be a sorted tuple")
        if (self.n is None) == bool(self.sender):
            raise ValueError("a stream number and a sender go together")
        key = self.uid if self.n is None else ((self.sender, self.dests), self.n)
        object.__setattr__(self, "key", key)

    @property
    def is_single_group(self) -> bool:
        return len(self.dests) == 1


@dataclass(frozen=True, slots=True)
class OrderEvent:
    """Group-log event: locally order ``message`` and assign a timestamp."""

    message: MulticastMessage
    #: Log-dedup uid: the message's ``(stream, n)`` when it has one.
    uid: Hashable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = self.message.key
        if self.message.n is None:
            key = f"ord:{key}"
        object.__setattr__(self, "uid", key)


@dataclass(frozen=True, slots=True)
class TsEvent:
    """Group-log event: a remote group's timestamp for a pending message
    (``msg_key`` is that message's ``key``)."""

    msg_uid: str
    from_group: str
    ts: int
    msg_key: Hashable
    #: Log-dedup uid.  Every message of a multi-group stream draws one
    #: timestamp from every other destination group, so the events from
    #: one group about one stream are a stream themselves.
    uid: Hashable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        key = self.msg_key
        if type(key) is tuple:
            uid = ((*key[0], self.from_group), key[1])
        else:
            uid = f"ts:{key}:{self.from_group}"
        object.__setattr__(self, "uid", uid)


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
    msg_key: Hashable


@dataclass(frozen=True, slots=True)
class TsProbe:
    """A leader asks a replica of a group for that group's timestamp of
    ``message`` (``MulticastReplica._answer_probe``)."""

    message: MulticastMessage
