"""Retransmission driven by evidence: one timeout per outstanding item.

A :class:`Retransmitter` belongs to one actor and one kind of item (an
Accept waiting for its quorum, a buffered submission waiting for its
delivery, ...).  Arming an item starts a one-shot timer; the evidence that
the item got through (the quorum, the delivery) cancels it with
:meth:`Retransmitter.done`, and only a timer that expires re-sends.  So a
run in which nothing is lost arms timers and fires none, and a lost
message is repaired after about one round trip instead of at the next tick
of a period.

The timeout is Jacobson's estimator with Karn's rule (RFC 6298): the
delays between arming and evidence, measured on items that were never
re-sent, give a smoothed delay ``srtt`` and its mean deviation ``rttvar``;
an item waits ``srtt + max(RTO_FLOOR, 4 * rttvar)``, twice that after each
re-send, never more than the cap.  Before the first measurement it waits
the cap.  The estimate is per retransmitter, i.e. per actor and kind of
item, and follows what that actor observes: a leader that orders slowly
makes its followers wait longer before they forward, a fast LAN round trip
makes a lost Accept cost little more than ``RTO_FLOOR``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

#: The least margin an item gets over the smoothed delay.  Far above the
#: spread of a LAN round trip (a constant-latency link has none at all, and
#: a timeout equal to the delay would fire with the reply in the same
#: instant), far below every other timer of the protocol.
RTO_FLOOR = 0.01
#: The longest wait between two re-sends of one item, and the wait before
#: the first measurement: the period of the periodic re-sends this replaced.
RTO_CAP = 0.25


class Retransmitter:
    """Outstanding items of one actor, each with its own one-shot timer.

    ``resend(key)`` is called when an item's timeout expires; it re-sends
    what is still missing and returns whether the item is still
    outstanding (False drops it: it completed by another path, or this
    actor is no longer the one to re-send it).  ``retransmits`` counts the
    expiries — zero in a run that loses nothing — and each one is also
    counted on the owner's monitor, when it has one, as
    ``retransmits{site=...}``.

    A timeout is an event of the simulator that this object cancels
    itself, not an actor :class:`~repro.sim.actors.Timer`: one is armed
    and cancelled for every Paxos instance and every buffered submission,
    and the owner clears them all when it crashes (:meth:`clear`).
    """

    __slots__ = (
        "actor", "resend", "site", "cap", "rto", "srtt", "rttvar",
        "arms", "retransmits", "_items", "_sim",
    )

    def __init__(
        self,
        actor,
        resend: Callable[[Any], bool],
        site: str,
        cap: float = RTO_CAP,
    ):
        self.actor = actor
        self.resend = resend
        self.site = site
        self.cap = cap
        #: The timeout a newly armed item gets.
        self.rto = cap
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.arms = 0
        self.retransmits = 0
        #: key -> [pending event, armed at, re-sends so far]
        self._items: dict[Hashable, list] = {}
        self._sim = None  # the actor's, once it is on a network

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def arm(self, key: Hashable) -> None:
        """Start timing ``key`` (a no-op while it is already timed)."""
        items = self._items
        if key in items:
            return
        self.arms += 1
        sim = self._sim
        if sim is None:
            sim = self._sim = self.actor.sim
        items[key] = [sim.schedule(self.rto, self._expire, key), sim.now, 0]

    def done(self, key: Hashable) -> None:
        """The evidence for ``key`` arrived: stop timing it, and — if it
        was never re-sent (Karn) — learn from how long it took."""
        item = self._items.pop(key, None)
        if item is None:
            return
        item[0].cancel()
        if not item[2]:
            self._observe(self._sim.now - item[1])

    def forget(self, key: Hashable) -> None:
        """Stop timing ``key`` without learning anything from it."""
        item = self._items.pop(key, None)
        if item is not None:
            item[0].cancel()

    def seed(self, sample: float) -> None:
        """Take ``sample``, a round trip measured on another kind of item
        of this actor, as the first measurement, unless there is one."""
        if self.srtt is None:
            self._observe(sample)

    def clear(self) -> None:
        """Stop timing everything (a crash, the end of a leadership)."""
        for event, _, _ in self._items.values():
            event.cancel()
        self._items.clear()

    def _observe(self, sample: float) -> None:
        # Conditionals, not min / max / abs: this runs once per instance
        # and per buffered submission.
        srtt = self.srtt
        if srtt is None:
            srtt, rttvar = sample, sample / 2.0
        else:
            deviation = srtt - sample
            if deviation < 0.0:
                deviation = -deviation
            rttvar = 0.75 * self.rttvar + 0.25 * deviation
            srtt = 0.875 * srtt + 0.125 * sample
        self.srtt, self.rttvar = srtt, rttvar
        margin = 4.0 * rttvar
        rto = srtt + (margin if margin > RTO_FLOOR else RTO_FLOOR)
        self.rto = rto if rto < self.cap else self.cap

    def _expire(self, key: Hashable) -> None:
        actor = self.actor
        if actor.crashed:  # cleared at the crash; nothing armed since
            self._items.pop(key, None)
            return
        self.retransmits += 1
        monitor = getattr(actor, "monitor", None)
        if monitor is not None:
            monitor.counter("retransmits", site=self.site).inc()
        if not self.resend(key):
            self._items.pop(key, None)
            return
        item = self._items.get(key)
        if item is None:
            return  # the re-send itself completed the item
        item[2] += 1
        delay = min(self.cap, self.rto * 2.0 ** item[2])
        item[0] = self._sim.schedule(delay, self._expire, key)
