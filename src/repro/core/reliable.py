"""The partition servers' reliable replica-to-replica channel.

Transfers, returns, aborts and plan moves must survive message loss and a
receiver's crash.  Each goes out in a :class:`ReliableMsg` envelope to
every replica of the destination partition and stays in the sender's
outbox until that replica acks it; an envelope not acked within its
timeout is sent again (:class:`repro.sim.rto.Retransmitter`, one timer per
envelope, backed off up to the channel's cap).

Delivery is at least once: every replica of the sending partition ships
its own copy, and a copy whose ack was lost arrives again.  The receiver
acks each copy and keeps no record of them — the payload handlers of the
server are idempotent (the first copy from a partition counts, a
tombstone answers copies for a finished attempt, a plan move is known by
its version, node and sender).

The outbox is checkpointed with the server (:meth:`ReliableChannel.capture`);
the timers are volatile and re-armed for the whole outbox when the server
recovers.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.messages import ReliableMsg
from repro.sim.rto import Retransmitter


class ReliableChannel:
    """The outbox and the retransmission timers of one server.  ``cap``
    is the longest wait between two sends of one envelope; 0 turns the
    channel off (bare sends, no envelope, no ack — for runs on a network
    that loses nothing)."""

    def __init__(self, owner, cap: float):
        self.owner = owner
        self.enabled = cap > 0
        #: (destination replica, uid) -> envelope not yet acked by it.
        self.outbox: dict[tuple, ReliableMsg] = {}
        self._timers = Retransmitter(owner, self._resend, "outbox", cap=cap)

    def __len__(self) -> int:
        return len(self.outbox)

    def send(self, replicas, message: Any, uid: Optional[str]) -> None:
        """``message`` to every replica in ``replicas``: enveloped under
        ``uid`` and kept until acked, or bare without a uid."""
        owner = self.owner
        if uid is None or not self.enabled:
            for replica in replicas:
                owner.send(replica, message)
            return
        envelope = ReliableMsg(uid, message)
        for replica in replicas:
            key = (replica, uid)
            self.outbox[key] = envelope
            owner.send(replica, envelope)
            self._timers.arm(key)

    def ack(self, sender: str, uid: str) -> None:
        key = (sender, uid)
        if self.outbox.pop(key, None) is not None:
            self._timers.done(key)

    def _resend(self, key: tuple) -> bool:
        envelope = self.outbox.get(key)
        if envelope is None:
            return False
        self.owner.send(key[0], envelope)
        return True

    def crash(self) -> None:
        self._timers.clear()

    def recover(self) -> None:
        """Time the whole outbox again: its timers died with the crash."""
        for key in self.outbox:
            self._timers.arm(key)

    def capture(self) -> list:
        return sorted(self.outbox.items(), key=repr)

    def install(self, outbox) -> None:
        self._timers.clear()
        self.outbox = dict(outbox)
        if not self.owner.crashed:
            self.recover()
