"""Overload-robustness primitives: the ingress gate, admission control
and client-side load shaping.

Five small, deterministic building blocks (no wall clock, no global
RNG — everything is driven by the virtual clock and seeded generators):

* :class:`IngressGate` — the one copy of the rule "a fresh client
  submission may be refused before it enters the log", shared by the
  partition servers and the oracle.
* :class:`AdmissionController` — bounded-admission bookkeeping for one
  replica (queue-based load leveling).  Commands are admitted at the
  consensus *ingress* — before they enter the Paxos log — so replicas of
  a partition never diverge on whether a command executes: a command is
  either ordered (and then executed by every replica) or bounced back to
  the client with a ``ServerBusy``/Retry-After reply.  Priority-aware:
  cheap-to-retry single-partition commands are refused first, while
  multi-partition commands keep a reserved headroom (aborting a
  half-gathered borrow is far more expensive than retrying a single).
* :class:`TokenBucket` — a client-side rate limiter with burst capacity.
* :class:`RetryBudget` — Finagle-style retry budget: retries withdraw
  from a balance that only refills as fresh requests are issued, so a
  fleet of retrying clients cannot multiply an overload.
* :class:`CircuitBreaker` — trips open after a run of consecutive
  busy/timeout signals and half-opens on a deterministic (optionally
  seeded-jittered) cooldown timer.

All constructor arguments are validated eagerly (``ValueError``) so a
misconfigured experiment fails at build time, not mid-run.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.core.messages import ServerBusy

#: Expiry for admission slots whose answer never materialized, the
#: Retry-After hint every ``ServerBusy`` carries, and the burst capacity
#: of a client's rate limiter: fixed here, beside their consumers — no
#: deployment ever set more than one value of any of them.
ADMISSION_TTL = 30.0
ADMISSION_RETRY_AFTER = 0.05
CLIENT_RATE_BURST = 4.0

#: Admission outcomes (:meth:`AdmissionController.offer`).
ADMIT = "admit"
#: Refused to protect headroom for higher-priority (multi-partition)
#: traffic — the cheap-to-retry command was shed.
SHED = "shed"
#: Refused because the queue is full outright.
BUSY = "busy"
#: Refused because the group is retiring (:meth:`IngressGate.admit`).
RETIRED = "retired"


class IngressGate:
    """The consensus *ingress* of one replica: the one place a fresh
    client submission may be refused before it enters the log.

    A refused command never enters any log — this replica answers
    ``ServerBusy`` and drops the submission — which is what keeps the
    replicas of a group in agreement about what executes: a command is
    either ordered (and then run by every replica) or bounced; a
    post-ordering shed would depend on per-replica queue depth and
    diverge.

    ``actor`` is the replica (a ``MulticastReplica`` with ``monitor`` and
    ``_records_metrics``), ``gated`` the payload types clients submit to
    it, ``settled(payload)`` its own knowledge that the group is past
    refusing this command and ``priority(payload)`` whether the command
    may use the reserved headroom.  ``bound=None``: no admission control,
    only a retiring group refuses.
    """

    def __init__(
        self,
        actor,
        gated: tuple,
        settled: Callable[[object], bool],
        priority: Callable[[object], bool],
        bound: Optional[int] = None,
    ):
        self.actor = actor
        self.gated = gated
        self.settled = settled
        self.priority = priority
        self.controller = AdmissionController(bound) if bound is not None else None

    def admit(self, sender: Optional[str], msg, retiring: bool = False) -> bool:
        """Whether ``sender``'s submission of multicast message ``msg``
        may enter the log through this replica.

        Only client-originated submissions are gated (``payload.client
        == sender``); protocol-internal retransmits and ordering probes
        come from peer replicas and always pass, so a partially ordered
        multi-group command cannot wedge behind the gate.  So does what
        is already ordered here, pending, or settled: letting it through
        is cheaper than bouncing it.  Of the rest a retiring group
        refuses everything — the ``retired`` NACK tells the client to
        drop its cached location and re-query the oracle, which now maps
        every node elsewhere — and otherwise the admission controller,
        if there is one, is offered the command."""
        controller = self.controller
        if controller is None and not retiring:
            return True  # nothing here ever refuses
        payload = msg.payload
        if not isinstance(payload, self.gated) or payload.client != sender:
            return True
        actor = self.actor
        if (
            msg.key in actor.adelivered_uids
            or msg.uid in actor.pending_msgs
            or self.settled(payload)
        ):
            return True
        if retiring:
            self._refuse(payload, RETIRED)
            return False
        outcome = controller.offer(
            payload.command.uid, actor.now, priority=self.priority(payload)
        )
        if actor._records_metrics:
            actor.monitor.series("admission_depth", partition=actor.group).record(
                actor.now, controller.depth
            )
        if outcome == ADMIT:
            return True
        self._refuse(payload, outcome)
        return False

    def _refuse(self, payload, reason: str) -> None:
        """Bounce a refused command back to its client with Retry-After.

        Unlike execution metrics (one logical event per group, so only
        replica 0 counts), every refusal is a distinct per-replica
        decision and a real ``ServerBusy`` on the wire — each replica
        counts its own."""
        actor = self.actor
        uid = payload.command.uid
        if reason == RETIRED:
            event = "retired-nack"
            counter = actor.monitor.counter(
                "reconfig", partition=actor.group, event="nacked"
            )
        else:
            event = reason
            counter = actor.monitor.counter(
                "admission", partition=actor.group, outcome=reason
            )
        counter.inc()
        if actor.tracer.enabled:
            actor.tracer.event(
                uid, event, actor.now,
                partition=actor.group, replica=actor.index,
                attempt=payload.attempt,
            )
        actor.send(
            payload.client,
            ServerBusy(
                uid=uid,
                attempt=payload.attempt,
                partition=actor.group,
                retry_after=ADMISSION_RETRY_AFTER,
                reason=reason,
            ),
        )


class AdmissionController:
    """Bounded admission queue for one server replica.

    ``bound`` caps the number of admitted-but-unanswered commands.
    Single-partition commands are admitted while the depth is below
    ``bound``; multi-partition commands get ``headroom`` extra slots on
    top (priority-aware shedding: singles are dropped first).  Entries
    are released when the command is answered; a TTL sweep expires
    entries whose answer this replica never saw (e.g. the client gave up
    and the command was never ordered), so leaked slots cannot wedge the
    admission gate shut forever.
    """

    def __init__(
        self,
        bound: int,
        headroom: Optional[int] = None,
        retry_after: float = ADMISSION_RETRY_AFTER,
        ttl: float = ADMISSION_TTL,
    ):
        if not isinstance(bound, int) or bound < 1:
            raise ValueError(f"admission bound must be a positive int, got {bound!r}")
        if headroom is None:
            headroom = max(1, bound // 4)
        if not isinstance(headroom, int) or headroom < 0:
            raise ValueError(
                f"admission headroom must be a non-negative int, got {headroom!r}"
            )
        if retry_after <= 0:
            raise ValueError(f"retry_after must be positive, got {retry_after!r}")
        if ttl <= 0:
            raise ValueError(f"admission ttl must be positive, got {ttl!r}")
        self.bound = bound
        self.headroom = headroom
        self.retry_after = retry_after
        self.ttl = ttl
        #: uid -> admission virtual time, insertion-ordered.
        self._inflight: dict = {}

    @property
    def depth(self) -> int:
        return len(self._inflight)

    def holds(self, uid) -> bool:
        return uid in self._inflight

    def _expire(self, now: float) -> None:
        # Insertion-ordered dict: the oldest entries come first, so the
        # sweep stops at the first live one.
        cutoff = now - self.ttl
        while self._inflight:
            uid = next(iter(self._inflight))
            if self._inflight[uid] > cutoff:
                break
            del self._inflight[uid]

    def offer(self, uid, now: float, priority: bool = False) -> str:
        """Ask to admit ``uid``; returns :data:`ADMIT`, :data:`SHED`, or
        :data:`BUSY`.  ``priority`` traffic (multi-partition borrows,
        create/delete) may use the reserved headroom."""
        self._expire(now)
        if uid in self._inflight:
            return ADMIT
        depth = len(self._inflight)
        limit = self.bound + self.headroom if priority else self.bound
        if depth < limit:
            self._inflight[uid] = now
            return ADMIT
        return BUSY if priority or depth >= self.bound + self.headroom else SHED

    def release(self, uid) -> None:
        self._inflight.pop(uid, None)


class TokenBucket:
    """Deterministic token-bucket rate limiter on the virtual clock.

    ``rate`` tokens accrue per virtual second up to ``burst`` capacity;
    :meth:`reserve` consumes one token (pre-charging a future token when
    none is available) and returns how long the caller must wait before
    acting on the reservation.  Over any window ``[t1, t2]`` the number
    of grants therefore never exceeds ``burst + rate * (t2 - t1)``.
    """

    def __init__(self, rate: float, burst: float = 1.0):
        if rate <= 0:
            raise ValueError(f"rate limit must be positive, got {rate!r}")
        if burst < 1.0:
            raise ValueError(f"burst capacity must be >= 1, got {burst!r}")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (read-only)."""
        elapsed = max(0.0, now - self._last)
        return min(self.burst, self._tokens + elapsed * self.rate)

    def reserve(self, now: float) -> float:
        """Consume one token; returns the wait (0 when a token is free).

        Calls must be made with non-decreasing ``now`` (virtual time)."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        wait = (1.0 - self._tokens) / self.rate
        # Pre-charge: the caller owns the token that materializes at
        # now + wait, so back-to-back reservations queue up behind it.
        self._tokens -= 1.0
        self._last = now
        return wait


class RetryBudget:
    """A balance of retry tokens that refills with fresh work.

    Every *first* attempt deposits ``ratio`` tokens (capped at
    ``cap``); every retry withdraws one.  When the balance is empty the
    client must give up instead of retrying — so at steady state retries
    are at most ``ratio`` of fresh traffic and cannot amplify an
    overload.  ``initial`` seeds the balance so cold-start blips still
    get retried.
    """

    def __init__(self, initial: float = 10.0, ratio: float = 0.2, cap: Optional[float] = None):
        if initial < 0:
            raise ValueError(f"retry budget initial must be >= 0, got {initial!r}")
        if ratio < 0:
            raise ValueError(f"retry budget ratio must be >= 0, got {ratio!r}")
        self.ratio = ratio
        self.cap = cap if cap is not None else max(initial, 10.0)
        if self.cap <= 0:
            raise ValueError(f"retry budget cap must be positive, got {cap!r}")
        self.balance = min(float(initial), self.cap)

    def deposit(self) -> None:
        """Credit for one fresh (first-attempt) request."""
        self.balance = min(self.cap, self.balance + self.ratio)

    def can_retry(self) -> bool:
        return self.balance >= 1.0

    def withdraw(self) -> bool:
        """Spend one retry token; False when the budget is exhausted."""
        if self.balance < 1.0:
            return False
        self.balance -= 1.0
        return True


class CircuitBreaker:
    """Consecutive-failure circuit breaker with deterministic half-open.

    ``record_failure`` on every busy/timeout signal; after ``threshold``
    consecutive failures the breaker trips *open* for ``cooldown``
    virtual seconds (stretched by a seeded jitter fraction so a fleet of
    breakers does not slam shut in lockstep, while two same-seed runs
    still re-open at identical times).  After the cooldown it reports
    *half-open*: the owner sends one probe; a success closes it, another
    failure re-trips with the cooldown doubled (capped at ``max_cooldown``).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        max_cooldown: Optional[float] = None,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(threshold, int) or threshold < 1:
            raise ValueError(
                f"breaker threshold must be a positive int, got {threshold!r}"
            )
        if cooldown <= 0:
            raise ValueError(f"breaker cooldown must be positive, got {cooldown!r}")
        if max_cooldown is not None and max_cooldown < cooldown:
            raise ValueError("breaker max_cooldown must be >= cooldown")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"breaker jitter must be in [0, 1), got {jitter!r}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_cooldown = max_cooldown if max_cooldown is not None else cooldown * 8
        self.jitter = jitter
        self.rng = rng or random.Random(0)
        self.state = self.CLOSED
        self.failures = 0
        self.trips = 0
        self._current_cooldown = cooldown

    @property
    def is_open(self) -> bool:
        return self.state == self.OPEN

    def record_failure(self) -> Optional[float]:
        """Register a busy/timeout signal.  Returns the cooldown to wait
        before half-opening when this failure trips (or re-trips) the
        breaker, else ``None``."""
        self.failures += 1
        if self.state == self.HALF_OPEN:
            # The probe failed: re-trip with a longer cooldown.
            self._current_cooldown = min(self._current_cooldown * 2, self.max_cooldown)
            return self._trip()
        if self.state == self.CLOSED and self.failures >= self.threshold:
            return self._trip()
        return None

    def _trip(self) -> float:
        self.state = self.OPEN
        self.trips += 1
        delay = self._current_cooldown
        if self.jitter > 0:
            delay *= 1.0 + self.rng.uniform(0.0, self.jitter)
        return delay

    def half_open(self) -> None:
        """The cooldown elapsed: allow one probe through."""
        if self.state == self.OPEN:
            self.state = self.HALF_OPEN

    def record_success(self) -> None:
        """Any definitive server answer closes the breaker."""
        self.state = self.CLOSED
        self.failures = 0
        self._current_cooldown = self.cooldown
