"""DynaStar clients.

Closed-loop clients (one outstanding command each, as in the paper's
evaluation): issue a command, wait for the reply, record the end-to-end
latency, issue the next.

The location cache (§4.3) short-circuits the oracle: when every node a
command touches is cached, the client multicasts straight to the involved
partition(s) — choosing the target itself for multi-partition commands.
A ``RETRY`` reply (stale cache) invalidates the involved entries and
falls back to an oracle query; creates and deletes always go through the
oracle.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Mapping
from typing import Any, Optional

from repro.compartment.messages import LocalRead
from repro.core.admission import (
    CLIENT_RATE_BURST,
    CircuitBreaker,
    RetryBudget,
    TokenBucket,
)
from repro.core.messages import (
    ExecCommand,
    GlobalCommand,
    OracleQuery,
    Prophecy,
    ProphecyStatus,
    ReplyQuery,
    ServerBusy,
)
from repro.core.oracle import choose_target
from repro.multicast.basecast import GroupDirectory
from repro.multicast.messages import MulticastMessage
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.actors import Actor
from repro.sim.monitor import Monitor
from repro.sim.randomness import stable_hash
from repro.sim.rto import Retransmitter
from repro.smr.command import Command, CommandKind, Reply, ReplyStatus
from repro.smr.linearizability import History, Operation
from repro.smr.statemachine import AppStateMachine

#: How long a tripped circuit breaker stays open before its first probe
#: (doubling on a failed probe): the one value any deployment used.
CLIENT_BREAKER_COOLDOWN = 0.5


class Outcomes(Mapping):
    """uid -> ``(status, result)`` of every command a client finished.

    A client that records a :class:`History` keeps its OK outcomes there
    only, and this table reads them back from it on every access (read
    it once, after the run); the other outcomes are kept here.  Its
    length counts uids, not records, so a command recorded twice or an
    OK missing from the history shows as ``len(results) != completed +
    failed``."""

    __slots__ = ("_client", "_history", "_kept")

    def __init__(self, client: str, history: Optional[History]):
        self._client = client
        self._history = history
        self._kept: dict[str, tuple] = {}

    def record(self, uid: str, status: ReplyStatus, result: Any) -> None:
        if status is not ReplyStatus.OK or self._history is None:
            self._kept[uid] = (status, result)

    def _table(self) -> dict:
        if self._history is None:
            return self._kept
        table = {
            op.command.uid: (ReplyStatus.OK, op.result)
            for op in self._history.operations
            if op.client == self._client
        }
        table.update(self._kept)
        return table

    def __getitem__(self, uid: str) -> tuple:
        return self._table()[uid]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def __repr__(self) -> str:
        return repr(self._table())


class Workload:
    """Supplies a client with its next command (None ends the client)."""

    def next_command(self, client: "DynaStarClient") -> Optional[Command]:
        raise NotImplementedError

    def on_command_failed(
        self, client: "DynaStarClient", command: Command, reason: str
    ) -> None:
        """Terminal-failure hook: ``command`` gave up (timeout budget,
        retry budget, too many retries) and will never complete.  Drivers
        override this to re-plan or record the loss; default is a no-op."""


class ScriptedWorkload(Workload):
    """Plays back a fixed list of commands (used heavily in tests)."""

    def __init__(self, commands):
        self._commands = list(commands)
        self._pos = 0

    def next_command(self, client) -> Optional[Command]:
        if self._pos >= len(self._commands):
            return None
        command = self._commands[self._pos]
        self._pos += 1
        return command


class CallbackWorkload(Workload):
    """Wraps a ``fn(client) -> Optional[Command]`` callable."""

    def __init__(self, fn):
        self._fn = fn

    def next_command(self, client) -> Optional[Command]:
        return self._fn(client)


class DynaStarClient(Actor):
    """A closed-loop client with a location cache.

    When ``request_timeout`` is set, every attempt is covered by a
    timeout with exponential backoff (factor ``backoff_factor``, capped
    at ``max_timeout``): a silent attempt — lost query, lost reply,
    crashed partition — is abandoned and the command retransmitted under
    a fresh attempt number, up to ``max_attempts`` total attempts.
    The servers' client table makes retransmission safe (exactly-once
    execution): every command carries this client's issue counter
    ``seq``, and since only one command is outstanding, issuing the next
    tells the servers that every earlier one is done with.
    ``request_timeout=None`` (default) disables timeouts,
    preserving the reliable-network behaviour.

    A timed client also repairs a lost reply without a new attempt: each
    dispatched attempt is timed until its first reply (site ``reply`` of
    :mod:`repro.sim.rto`, capped at ``request_timeout``), and on expiry
    every replica of its partitions gets a ``ReplyQuery``; one whose
    client table holds the command as executed sends its outcome again.
    """

    MAX_ATTEMPTS = 100

    def __init__(
        self,
        name: str,
        app: AppStateMachine,
        directory: GroupDirectory,
        workload: Workload,
        oracle_group: str = "oracle",
        monitor: Optional[Monitor] = None,
        use_cache: bool = True,
        dispatch_via_oracle: bool = False,
        history: Optional[History] = None,
        stop_at: Optional[float] = None,
        target_policy: str = "most_nodes",
        max_attempts: Optional[int] = None,
        request_timeout: Optional[float] = None,
        backoff_factor: float = 2.0,
        max_timeout: Optional[float] = None,
        retry_jitter: float = 0.0,
        rate_limit: Optional[float] = None,
        retry_budget: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        think_time: Optional[float] = None,
        idempotency_keys: bool = False,
        learners_of=None,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(name)
        self.target_policy = target_policy
        self.app = app
        self.directory = directory
        self.workload = workload
        self.oracle_group = oracle_group
        self.monitor = monitor or Monitor()
        self.tracer = tracer or NULL_TRACER
        self.use_cache = use_cache
        self.dispatch_via_oracle = dispatch_via_oracle
        self.history = history
        self.stop_at = stop_at
        self.max_attempts = (
            max_attempts if max_attempts is not None else self.MAX_ATTEMPTS
        )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        self.request_timeout = request_timeout
        self.backoff_factor = backoff_factor
        self.max_timeout = max_timeout
        #: Fractional jitter applied to every timeout delay.  Seeded and
        #: per-client, so a fleet of clients that lost the same partition
        #: spreads its retries instead of retrying in lockstep — while
        #: two runs with the same seed still retry at identical times.
        self.retry_jitter = retry_jitter
        self.rng = rng or random.Random(0)

        # Overload defenses — all opt-in (None disables), all validated
        # eagerly by the admission constructors (ValueError on bad knobs).
        self.rate_limiter = (
            TokenBucket(rate_limit, CLIENT_RATE_BURST)
            if rate_limit is not None
            else None
        )
        self.retry_budget = (
            RetryBudget(retry_budget)
            if retry_budget is not None
            else None
        )
        self.breaker = (
            CircuitBreaker(breaker_threshold, CLIENT_BREAKER_COOLDOWN, rng=self.rng)
            if breaker_threshold is not None
            else None
        )
        if think_time is not None and think_time <= 0:
            raise ValueError("think_time must be positive")
        #: Mean think time between commands (seeded exponential).  None
        #: keeps the original closed-loop back-to-back behaviour.
        self.think_time = think_time
        #: Arrival-rate multiplier; the ``overload_burst`` fault raises it
        #: to model a flash crowd and restores it when the burst ends.
        self.load_factor = 1.0
        #: Stamp every command with a client-generated idempotency key.
        #: A give-up-and-resubmit of the same logical operation reuses the
        #: key under a fresh uid, and the servers' key-indexed result
        #: cache answers instead of re-executing.
        self.idempotency_keys = idempotency_keys
        self._ik_seq = 0
        #: Compartmentalized read routing: ``learners_of(partition)``
        #: returns the partition's read-learner names (empty/None keeps
        #: every read on the ordered path).  First attempts of cached,
        #: single-partition, read-only commands go to one learner chosen
        #: by the seeded ``spread`` hash; every failure mode (RETRY,
        #: timeout) falls back to the ordered path at attempt >= 1.
        self.learners_of = learners_of
        self.local_reads = 0

        self.cache: dict[Any, str] = {}
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self.busy_rejections = 0
        self.gave_up = 0
        self.results = Outcomes(name, history)
        self.done = False

        self._current: Optional[Command] = None
        #: Issue counter of ``_current``, shared by all its attempts.
        self._seq = 0
        self._attempt = 0
        self._invoked_at = 0.0
        self._was_multi = False
        self._timeout_timer = None
        self._retry_timer = None
        #: uid -> message, for the current command: an attempt is sent once
        #: per ``Prophecy`` copy, and a uid sent again keeps its number.
        self._built: dict[str, MulticastMessage] = {}
        #: Dispatched attempts awaiting their first reply, and the
        #: partitions of the latest one (timed clients only).
        self._replies = (
            Retransmitter(self, self._query_reply, "reply", cap=request_timeout)
            if request_timeout is not None
            else None
        )
        self._involved: tuple = ()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._next()

    def _next(self) -> None:
        if self.done:
            return
        if self.stop_at is not None and self.now >= self.stop_at:
            self.done = True
            return
        command = self.workload.next_command(self)
        if command is None:
            self.done = True
            return
        if self.idempotency_keys and command.idem_key is None:
            self._ik_seq += 1
            command = dataclasses.replace(
                command, idem_key=f"ik:{self.name}:{self._ik_seq}"
            )
        # Think time models arrival rate (scaled by the flash-crowd
        # multiplier); the token bucket then throttles *new* commands —
        # retries are governed by the retry budget instead, so the
        # limiter cannot starve recovery.
        delay = 0.0
        if self.think_time is not None:
            delay = self.rng.expovariate(self.load_factor / self.think_time)
        if self.rate_limiter is not None:
            delay = max(delay, self.rate_limiter.reserve(self.now))
        if delay > 0:
            self.set_timer(delay, lambda: self._begin(command))
        else:
            self._begin(command)

    def _begin(self, command: Command) -> None:
        if self.done:
            return
        if self.stop_at is not None and self.now >= self.stop_at:
            self.done = True
            return
        self._current = command
        self._seq += 1
        self._attempt = 0
        self._built.clear()
        self._invoked_at = self.now
        self._was_multi = False
        if self.retry_budget is not None:
            self.retry_budget.deposit()
        if self.tracer.enabled:
            self.tracer.start_trace(
                command.uid, self.now, client=self.name, op=command.op,
                kind=command.kind.name.lower(),
            )
        self._issue()

    # -- request timeouts -----------------------------------------------------

    def _arm_timeout(self) -> None:
        if self.request_timeout is None:
            return
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
        delay = self.request_timeout * self.backoff_factor**self._attempt
        if self.max_timeout is not None:
            delay = min(delay, self.max_timeout)
        if self.retry_jitter > 0:
            delay *= 1.0 + self.rng.uniform(-self.retry_jitter, self.retry_jitter)
        self._timeout_timer = self.set_timer(delay, self._on_timeout)

    def _cancel_timeout(self) -> None:
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None

    def _on_timeout(self) -> None:
        if self.done or self._current is None:
            return
        self.timeouts += 1
        self.monitor.counter("client", event="timeout").inc()
        if self.tracer.enabled:
            self.tracer.event(
                self._current.uid, "timeout", self.now, attempt=self._attempt
            )
        if self._replies is not None:
            self._replies.forget(self._attempt)  # no sample (Karn)
        self._attempt += 1
        if self._attempt >= self.max_attempts:
            self._give_up("timed out")
            return
        if self.retry_budget is not None and not self.retry_budget.withdraw():
            self._give_up("retry budget exhausted")
            return
        self._record_overload_signal()
        self._issue()

    # -- overload defenses ------------------------------------------------------

    def _record_overload_signal(self) -> None:
        """Feed one busy/timeout signal to the breaker; when it trips,
        arm the (seeded, deterministic) half-open probe timer."""
        if self.breaker is None:
            return
        cooldown = self.breaker.record_failure()
        if cooldown is not None:
            self.monitor.counter("admission", event="breaker_trip").inc()
            if self.tracer.enabled and self._current is not None:
                self.tracer.event(
                    self._current.uid, "breaker-open", self.now,
                    client=self.name, cooldown=cooldown,
                )
            self.set_timer(cooldown, self._breaker_probe)

    def _breaker_probe(self) -> None:
        if self.breaker is None or self.done:
            return
        self.breaker.half_open()
        if self._current is not None and (
            self._retry_timer is None or not self._retry_timer.active
        ):
            self._issue()

    def _on_busy(self, busy: ServerBusy) -> None:
        command = self._current
        # Only the current attempt's backpressure matters; every replica
        # of the refusing partition sends one, the first wins.
        if (
            command is None
            or busy.uid != command.uid
            or busy.attempt != self._attempt
        ):
            return
        self._cancel_timeout()
        if self._replies is not None:
            self._replies.forget(self._attempt)
        self.busy_rejections += 1
        self.monitor.counter("admission", event="client_busy").inc()
        if self.tracer.enabled:
            self.tracer.event(
                command.uid, "backpressure", self.now,
                attempt=busy.attempt, partition=busy.partition,
                reason=busy.reason,
            )
        self._attempt += 1
        if self._attempt >= self.max_attempts:
            self._give_up("server busy")
            return
        if busy.reason == "retired":
            # Not overload: the cached location points at a partition
            # that drained away.  Drop every entry for it so the retry
            # falls through to the oracle (whose map already moved on),
            # and leave the breaker/retry-budget untouched.
            for node, partition in list(self.cache.items()):
                if partition == busy.partition:
                    del self.cache[node]
            self.monitor.counter("client", event="retired_redirect").inc()
        else:
            if self.retry_budget is not None and not self.retry_budget.withdraw():
                self._give_up("retry budget exhausted")
                return
            self._record_overload_signal()
        # Retry-After-aware backoff: at least the server's hint, growing
        # like the timeout schedule under repeated pushback.
        base = (
            self.request_timeout
            if self.request_timeout is not None
            else busy.retry_after
        )
        delay = base * self.backoff_factor**self._attempt
        if self.max_timeout is not None:
            delay = min(delay, self.max_timeout)
        delay = max(delay, busy.retry_after)
        if self.retry_jitter > 0:
            delay *= 1.0 + self.rng.uniform(0.0, self.retry_jitter)
        self._retry_timer = self.set_timer(delay, self._reissue)

    def _reissue(self) -> None:
        self._retry_timer = None
        if self.done or self._current is None:
            return
        self._issue()

    def _give_up(self, reason: str) -> None:
        """Terminal failure: stop retrying, count it, surface it to the
        workload driver, move on."""
        self.gave_up += 1
        self.monitor.counter("client", event="gave_up").inc()
        command = self._current
        if self.tracer.enabled and command is not None:
            self.tracer.event(
                command.uid, "gave-up", self.now,
                attempt=self._attempt, reason=reason,
            )
        if command is not None:
            self.workload.on_command_failed(self, command, reason)
        self._complete(ReplyStatus.NOK, reason)

    # -- issuing -------------------------------------------------------------

    def _issue(self) -> None:
        if self.breaker is not None and self.breaker.is_open:
            # Hold the command until the breaker half-opens; the probe
            # timer armed at trip time re-issues it.
            self._cancel_timeout()
            return
        self._arm_timeout()
        command = self._current
        submit = None
        if self.tracer.enabled:
            submit = self.tracer.begin(
                command.uid, "client-submit", self.now, disc=self._attempt,
                attempt=self._attempt,
            )
        if (
            command.kind != CommandKind.ACCESS
            or not self.use_cache
            or self.dispatch_via_oracle
        ):
            self._query_oracle()
            return
        nodes = self.app.nodes_of(command)
        if all(node in self.cache for node in nodes):
            if submit is not None:
                submit.event("cache-hit", self.now)
            locations = tuple(
                sorted(((n, self.cache[n]) for n in nodes), key=lambda kv: repr(kv[0]))
            )
            if self._try_local_read(locations):
                return
            target = choose_target(
                self.target_policy, locations, command.uid, self._attempt
            )
            self._dispatch(locations, target)
        else:
            self._query_oracle()

    def _try_local_read(self, locations: tuple) -> bool:
        """Route a cached, single-partition, read-only first attempt to
        one of the partition's read learners (seeded spread)."""
        if self.learners_of is None or self._attempt != 0:
            return False
        command = self._current
        if not self.app.is_readonly(command):
            return False
        partitions = {p for _, p in locations}
        if len(partitions) != 1:
            return False
        partition = next(iter(partitions))
        learners = tuple(self.learners_of(partition) or ())
        if not learners:
            return False
        target = learners[
            stable_hash((command.uid, self._attempt)) % len(learners)
        ]
        self._was_multi = False
        self.local_reads += 1
        self.monitor.counter("reads", event="local_dispatch").inc()
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "client-submit", self.now, disc=self._attempt,
                target=target, local_read=True,
            )
        self.send(target, LocalRead(command, self.name, self._attempt))
        return True

    def _query_oracle(self) -> None:
        command = self._current
        if self.tracer.enabled:
            self.tracer.begin(
                command.uid, "oracle-lookup", self.now, disc=self._attempt,
                parent=self.tracer.find(
                    command.uid, "client-submit", self._attempt
                ),
                attempt=self._attempt,
            )
        query = OracleQuery(
            command, self.name, self._attempt, self._seq,
            dispatch=self.dispatch_via_oracle,
        )
        self._amcast(
            f"q:{command.uid}:a{self._attempt}", (self.oracle_group,), query
        )

    def _amcast(self, uid: str, dests: tuple, payload: Any) -> None:
        message = self._built.get(uid)
        if message is None:
            message = self._built[uid] = self.directory.make_message(
                dests, payload, uid=uid, sender=self.name
            )
        self.directory.amcast(self, message)

    def _dispatch(self, locations: tuple, target: str) -> None:
        command = self._current
        involved = tuple(sorted({p for _, p in locations}))
        self._was_multi = len(involved) > 1
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "client-submit", self.now, disc=self._attempt,
                target=target, partitions=len(involved),
            )
            self.tracer.begin(
                command.uid, "multicast-order", self.now, disc=self._attempt,
                attempt=self._attempt, target=target, partitions=len(involved),
            )
        if len(involved) == 1:
            payload: Any = ExecCommand(command, self.name, self._attempt, self._seq)
        else:
            payload = GlobalCommand(
                command, self.name, self._attempt, target, locations, self._seq
            )
        self._amcast(f"x:{command.uid}:a{self._attempt}", involved, payload)
        if self._replies is not None:
            self._involved = involved
            self._replies.arm(self._attempt)

    # -- replies -----------------------------------------------------------------

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Prophecy):
            self._on_prophecy(message)
        elif isinstance(message, Reply):
            self._on_reply(message)
        elif isinstance(message, ServerBusy):
            self._on_busy(message)

    def _on_prophecy(self, prophecy: Prophecy) -> None:
        command = self._current
        if (
            command is None
            or prophecy.uid != command.uid
            or prophecy.attempt != self._attempt
        ):
            return
        if self.breaker is not None:
            self.breaker.record_success()
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "oracle-lookup", self.now, disc=prophecy.attempt,
                status=prophecy.status.name.lower(),
            )
        if prophecy.status == ProphecyStatus.NOK:
            self._complete(ReplyStatus.NOK, prophecy.reason)
            return
        for node, partition in prophecy.locations:
            self.cache[node] = partition
        if command.kind != CommandKind.ACCESS or self.dispatch_via_oracle:
            # The oracle dispatched; the client's submit phase ends here.
            if self.tracer.enabled:
                self.tracer.finish(
                    command.uid, "client-submit", self.now,
                    disc=prophecy.attempt, via_oracle=True,
                )
            return
        self._dispatch(prophecy.locations, prophecy.target)

    def _query_reply(self, attempt: int) -> bool:
        """A dispatched attempt still unanswered after its timeout: its
        replies may be lost while the command executed, so ask every
        replica of its partitions for the outcome (``ReplyQuery``).  A
        command that nobody executed waits for the full retry."""
        command = self._current
        if command is None or attempt != self._attempt:
            return False
        query = ReplyQuery(command.uid, self.name, self._seq, attempt)
        for partition in self._involved:
            self.send_all(self.directory.replicas_of(partition), query)
        return True

    def _on_reply(self, reply: Reply) -> None:
        command = self._current
        if command is None or reply.uid != command.uid:
            return
        if self._replies is not None:
            self._replies.done(reply.attempt)
        if self.breaker is not None:
            # Any real server answer — OK, NOK, even a protocol RETRY —
            # means the partition is alive and admitting; close up.
            self.breaker.record_success()
        if reply.status == ReplyStatus.RETRY:
            # Only the current attempt's RETRY matters; a stale one from
            # an attempt we already abandoned must not burn another retry.
            if reply.attempt != self._attempt:
                return
            self.retries += 1
            self.monitor.counter("client", event="retry").inc()
            if self.tracer.enabled:
                self.tracer.finish(
                    command.uid, "reply", self.now, disc=reply.attempt,
                    status="retry",
                )
                self.tracer.event(
                    command.uid, "retry", self.now,
                    attempt=reply.attempt, partition=reply.partition,
                )
            self._attempt += 1
            if self._attempt >= self.max_attempts:
                self._give_up("too many retries")
                return
            for node in self.app.nodes_of(command):
                self.cache.pop(node, None)
            self._arm_timeout()
            self._query_oracle()
            return
        # OK/NOK is accepted from *any* attempt: a late reply to a
        # timed-out attempt still carries the command's actual outcome
        # (servers answer retransmissions from their client table).
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "reply", self.now, disc=reply.attempt,
                status=reply.status.name.lower(),
            )
        self._complete(reply.status, reply.result)

    def _complete(self, status: ReplyStatus, result: Any) -> None:
        self._cancel_timeout()
        if self._replies is not None:
            self._replies.clear()
        if self._retry_timer is not None:
            # A late reply can land mid-backoff; the queued retry must
            # not fire against the *next* command's attempt counter.
            self._retry_timer.cancel()
            self._retry_timer = None
        command = self._current
        latency = self.now - self._invoked_at
        self._current = None
        if self.tracer.enabled:
            self.tracer.finish_trace(
                command.uid, self.now,
                status=status.name.lower(), latency=latency,
                attempts=self._attempt + 1, multi=self._was_multi,
            )
        self.results.record(command.uid, status, result)
        if status == ReplyStatus.OK:
            self.completed += 1
            self.monitor.histogram("latency").observe(latency)
            self.monitor.histogram(
                "latency_multi" if self._was_multi else "latency_single"
            ).observe(latency)
            self.monitor.series("completed").record(self.now)
            self.monitor.counter("commands_completed").inc()
            if self.history is not None:
                self.history.record(
                    Operation(
                        client=self.name,
                        command=command,
                        invoked_at=self._invoked_at,
                        returned_at=self.now,
                        result=result,
                    )
                )
        else:
            self.failed += 1
            self.monitor.counter("commands_failed").inc()
        self._next()
