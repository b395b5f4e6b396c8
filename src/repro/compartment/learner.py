"""Read-only learners: the scale-out read stage of a partition group.

A learner holds a *mirror* of the partition's variable store, fed by
per-key-versioned deltas from every core replica
(:class:`~repro.compartment.messages.ApplyUpdate`).  The version of a
variable is its logical mutation index — identical across replicas for
the same executed prefix — so the learner applies whatever arrives
first and drops stale duplicates, which makes the feed robust to any
single feeder crashing.

Local reads are linearizable via leader leases:

1. the client sends :class:`LocalRead` to one learner (seeded spread);
2. the learner probes the core replicas; only the current valid
   *leaseholder* answers, with the per-variable feed versions the read
   must observe (the leaseholder defers the answer while any queued or
   pending command could still touch those variables — see
   :mod:`repro.compartment.serverside`);
3. the learner waits until its mirror has applied those versions, then
   executes the command locally and replies — no quorum round-trip.

Every fallback is RETRY/timeout-shaped: a rejected probe, a missed
deadline, or a crashed learner bounces the client to the ordered path
it would have taken anyway, so lease reads can only improve latency,
never correctness.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.compartment.config import CompartmentConfig
from repro.compartment.messages import (
    ApplyUpdate,
    FeedRequest,
    FeedSnapshot,
    LocalRead,
    ProbeReject,
    REMOVED,
    SeqAck,
    SeqProbe,
)
from repro.obs.trace import NULL_TRACER
from repro.sim.actors import Actor
from repro.smr.command import Reply, ReplyStatus
from repro.smr.statemachine import VariableStore


class _PendingRead:
    __slots__ = ("command", "client", "attempt", "needed", "deadline", "timer")

    def __init__(self, command, client, attempt, deadline):
        self.command = command
        self.client = client
        self.attempt = attempt
        self.needed: Optional[dict] = None
        self.deadline = deadline
        self.timer = None


class ReadLearner(Actor):
    """One read-only learner of a partition group."""

    def __init__(
        self,
        name: str,
        group: str,
        replicas: tuple,
        app,
        config: CompartmentConfig,
        monitor=None,
        tracer=NULL_TRACER,
        service_time: float = 0.0,
    ):
        super().__init__(name)
        self.group = group
        self.replicas = tuple(replicas)
        self.app = app
        self.config = config
        self.monitor = monitor
        self.tracer = tracer
        self.service_time = service_time

        self.store = VariableStore()
        self.versions: dict = {}
        self._pending: dict[str, _PendingRead] = {}
        self._ready: deque = deque()
        self._next_free = 0.0
        self._service_timer = None
        self._sync_timer = None
        self._feed_rr = 0
        self.reads_served = 0

    # -- plumbing ---------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        if self.monitor is not None:
            self.monitor.counter(name, **labels).inc()

    def start(self) -> None:
        self._arm_sync()

    def on_recover(self) -> None:
        # Pending reads died with the crash (their clients will time out
        # onto the ordered path); the mirror itself is only ever stale,
        # never wrong, so keep it and pull a fresh snapshot on top.
        self._pending.clear()
        self._ready.clear()
        self._service_timer = None
        self._next_free = 0.0
        self._arm_sync()
        self._request_feed()

    def _arm_sync(self) -> None:
        self._sync_timer = self.set_periodic_timer(
            self.config.sync_period, self._sync_tick
        )

    def _sync_tick(self) -> None:
        self._request_feed()

    def _request_feed(self) -> None:
        replica = self.replicas[self._feed_rr % len(self.replicas)]
        self._feed_rr += 1
        self.send(replica, FeedRequest(self.name))

    # -- message handling -------------------------------------------------

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ApplyUpdate):
            self._apply_entries(message.updates)
        elif isinstance(message, FeedSnapshot):
            self._apply_entries(message.entries)
        elif isinstance(message, LocalRead):
            self._on_local_read(message)
        elif isinstance(message, SeqAck):
            self._on_seq_ack(message)
        elif isinstance(message, ProbeReject):
            self._on_probe_reject(message)

    def _apply_entries(self, entries: tuple) -> None:
        advanced = False
        for var, version, value in entries:
            if version <= self.versions.get(var, 0):
                continue
            self.versions[var] = version
            if value is REMOVED:
                self.store.discard(var)
            else:
                self.store.put(var, value)
            advanced = True
        if advanced and self._pending:
            for uid in list(self._pending):
                self._try_ready(uid)

    # -- local reads ------------------------------------------------------

    def _on_local_read(self, msg: LocalRead) -> None:
        uid = msg.command.uid
        if uid in self._pending:
            return
        if not self.app.is_readonly(msg.command):
            # A mutating command must never execute against the mirror:
            # it would "succeed" locally without ever being ordered.
            # Bounce it to the ordered path (clients only send read-only
            # commands here, so this guards against bugs, not workloads).
            self._count("reads", event="local_reject")
            self.send(
                msg.client,
                Reply(uid, ReplyStatus.RETRY, None, msg.attempt, self.group),
            )
            return
        self._count("reads", event="local_attempt")
        self.tracer.begin(
            uid, "local-read", self.now, disc=msg.attempt, learner=self.name
        )
        pending = _PendingRead(
            msg.command, msg.client, msg.attempt, self.now + self.config.read_deadline
        )
        self._pending[uid] = pending
        self._probe(uid)
        pending.timer = self.set_timer(
            self.config.probe_retry, lambda: self._reprobe(uid)
        )

    def _probe(self, uid: str) -> None:
        pending = self._pending.get(uid)
        if pending is None:
            return
        self.send_all(
            self.replicas, SeqProbe(uid, pending.command, self.name)
        )

    def _reprobe(self, uid: str) -> None:
        pending = self._pending.get(uid)
        if pending is None:
            return
        if self.now >= pending.deadline:
            self._count("reads", event="local_deadline")
            self._bounce(uid, pending)
            return
        if pending.needed is None:
            # No leaseholder answer yet (no valid lease, deferred probe,
            # or a lost message): ask again.
            self._probe(uid)
        else:
            # Answered but the mirror lags: pull a snapshot to cover
            # lost feed deltas.
            self._request_feed()
        pending.timer = self.set_timer(
            self.config.probe_retry, lambda: self._reprobe(uid)
        )

    def _on_seq_ack(self, msg: SeqAck) -> None:
        pending = self._pending.get(msg.uid)
        if pending is None or pending.needed is not None:
            return
        pending.needed = dict(msg.versions)
        self._try_ready(msg.uid)

    def _on_probe_reject(self, msg: ProbeReject) -> None:
        pending = self._pending.get(msg.uid)
        if pending is None:
            return
        self._count("reads", event="local_reject")
        self._bounce(msg.uid, pending)

    def _bounce(self, uid: str, pending: _PendingRead) -> None:
        """RETRY: the client refreshes its cache and goes ordered."""
        self._drop(uid, pending)
        self.tracer.finish(uid, "local-read", self.now, disc=pending.attempt,
                           status="retry")
        self._reply(pending, ReplyStatus.RETRY, None)

    def _drop(self, uid: str, pending: _PendingRead) -> None:
        self._pending.pop(uid, None)
        if pending.timer is not None:
            pending.timer.cancel()

    def _try_ready(self, uid: str) -> None:
        pending = self._pending.get(uid)
        if pending is None or pending.needed is None:
            return
        for var, version in pending.needed.items():
            if self.versions.get(var, 0) < version:
                return
        self._drop(uid, pending)
        self._ready.append(pending)
        self._pump_reads()

    def _pump_reads(self) -> None:
        while self._ready:
            if self.service_time > 0 and self.now < self._next_free:
                if self._service_timer is None or not self._service_timer.active:
                    self._service_timer = self.set_timer(
                        self._next_free - self.now, self._pump_reads
                    )
                return
            pending = self._ready.popleft()
            if self.service_time > 0:
                self._next_free = max(self._next_free, self.now) + self.service_time
            self._serve(pending)

    def _serve(self, pending: _PendingRead) -> None:
        uid = pending.command.uid
        try:
            result = self.app.execute(pending.command, self.store)
            status = ReplyStatus.OK
        except (KeyError, ValueError) as exc:
            result = repr(exc)
            status = ReplyStatus.NOK
        self.reads_served += 1
        self._count("reads", event=f"local_{status.value}")
        self._count("learner_reads", learner=self.name)
        self.tracer.finish(uid, "local-read", self.now, disc=pending.attempt,
                           status=status.value)
        self._reply(pending, status, result)

    def _reply(self, pending: _PendingRead, status, result) -> None:
        uid = pending.command.uid
        self.tracer.begin(uid, "reply", self.now, disc=pending.attempt,
                          status=status.value, partition=self.group)
        self.send(
            pending.client,
            Reply(uid, status, result, pending.attempt, self.group),
        )
