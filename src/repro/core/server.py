"""DynaStar partition servers.

A :class:`PartitionServer` is a multicast replica hosting the application
state machine for one partition.  A-delivered payloads enter an execution
queue that one scheduler (:meth:`PartitionServer._pump`) runs in delivery
order (the SMR contract).  A command cannot finish while

* borrowed variables for a multi-partition command are in flight
  (target side),
* lent variables are on their way back (source side, Algorithm 3
  line 17), or
* a node this partition now owns is still in transit under a
  repartitioning plan.

None of these waits holds a CPU, so none holds the queue: a command
behind an unfinished one may run iff it conflicts with no unfinished
command ahead, where a multi-partition command — it *moves* the
variables it names — counts as a writer of all of them.  What it touches
does wait, and it costs its partitions the messages and round trips of
the exchange — multi-partition commands really are expensive here, which
is precisely the cost DynaStar's repartitioning optimizes away.  An
execution holds one of ``lanes`` virtual CPUs for ``service_time``; the
lane count bounds how many overlap, nothing else.  Plan-driven
relocation itself does **not** block the queue: only commands touching a
still-in-transit node wait.

Staleness: if a command's believed locations disagree with the current
plan, the server answers ``RETRY`` and aborts the gather (notifying the
other involved partitions), and the client refreshes its cache at the
oracle — the retry mechanism of §4.3.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain
from typing import Any, Optional

from repro.compartment.config import CompartmentConfig
from repro.compartment.messages import LeaseGrant, ProxyBatch
from repro.compartment.serverside import ReadPath
from repro.consensus.messages import Submit
from repro.core.admission import IngressGate
from repro.core.clienttable import ClientTable
from repro.core.reliable import ReliableChannel
from repro.core.messages import (
    CreateVar,
    DeleteVar,
    DrainComplete,
    ExecCommand,
    ExecutionHint,
    GlobalCommand,
    PartitionPlan,
    PlanTransfer,
    ReliableAck,
    ReliableMsg,
    ReplyQuery,
    TransferFailed,
    VarReturn,
    VarTransfer,
)
from repro.multicast.basecast import MulticastReplica
from repro.multicast.messages import MulticastMessage, OrderEvent
from repro.obs import audit as audit_mod
from repro.obs.audit import NULL_AUDIT, AuditLog
from repro.sim.monitor import Monitor
from repro.smr.command import Reply, ReplyStatus
# Not called here: kept importable for the benchmark (see fastcopy).
from repro.smr.fastcopy import copy_value  # noqa: F401
from repro.smr.statemachine import AppStateMachine, Signature, VariableStore

#: Commands touching more nodes than this record a star instead of a
#: clique in the workload-graph hint (keeps hint sizes linear for e.g.
#: celebrity posts that touch hundreds of users).
CLIQUE_HINT_LIMIT = 12


class _Attempt:
    """What a replica knows about one attempt ``(uid, attempt)`` of a
    command.  The record lives from first mention — the a-delivered
    command or a message about it, whichever comes first — until the
    command leaves the queue; a tombstone in ``_closed`` after.
    Checkpointed, except ``admitted``: volatile by design."""

    __slots__ = ("checked", "sent", "transfers", "returns", "failed", "admitted")

    def __init__(self, checked=False, sent=False, transfers=(), returns=(), failed=()):
        #: Judged fresh, its claimed nodes owned and settled.
        self.checked = checked
        #: Source side: our variables were shipped to the target.
        self.sent = sent
        #: ``VarTransfer`` / ``VarReturn`` received, by sending partition
        #: (the first copy wins: every replica of the sender ships one).
        self.transfers: dict = dict(transfers)
        self.returns: dict = dict(returns)
        #: The involved partitions that reported ``TransferFailed``.
        self.failed: tuple = tuple(failed)
        #: A single-partition command that passed its checks and waits
        #: for a lane (:meth:`PartitionServer._try_exec`).
        self.admitted = False

    def capture(self) -> tuple:
        return (
            self.checked,
            self.sent,
            sorted(self.transfers.items()),
            sorted(self.returns.items()),
            self.failed,
        )


class PartitionServer(MulticastReplica):
    """One replica of a data partition."""

    #: Workload-graph hints feed the oracle's repartitioning; the static
    #: and naive-migration baselines (``repro.baselines``) send none.
    sends_hints = True

    #: Whether a multi-partition command changes node ownership for good.
    #: Here it lends and takes back, so only what conflicts with it
    #: waits; where it does (DS-SMR) it is a barrier of the scheduler.
    moves_are_final = False

    def __init__(
        self,
        *args,
        app: Optional[AppStateMachine] = None,
        monitor: Optional[Monitor] = None,
        oracle_group: str = "oracle",
        hint_period: float = 1.0,
        service_time: float = 0.0,
        lanes: int = 1,
        retransmit_period: float = 0.5,
        admission_bound: Optional[int] = None,
        admission_headroom: Optional[int] = None,
        admission_retry_after: float = 0.05,
        audit: Optional[AuditLog] = None,
        compartment: Optional[CompartmentConfig] = None,
        learner_names: tuple = (),
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.app = app
        self.monitor = monitor or Monitor()
        #: Shared decision audit log; replica 0 records relocation /
        #: quiesce events (metrics convention).
        self.audit = audit if audit is not None else NULL_AUDIT
        self.oracle_group = oracle_group
        self.hint_period = hint_period
        #: Virtual CPU time one command execution occupies a lane for.
        #: 0 disables the model (protocol tests); benchmarks set it so
        #: throughput saturates like a real server.
        self.service_time = service_time
        self._service_timer = None
        #: Virtual execution lanes: how many commands may overlap in
        #: simulated service time (see :meth:`_pump`), and when each is
        #: free again (volatile: this replica's CPU).
        self.lanes = max(1, int(lanes))
        self._lane_free = [0.0] * self.lanes
        #: Lane of the last execution; stays None with one lane, where
        #: neither the ``lane`` span tag nor the occupancy series exists.
        self._last_lane: Optional[int] = None
        #: Set when the service gate refuses: the current scan ends.
        self._gate_refused = False
        #: The attempts ``(uid, attempt)`` this replica has heard of and
        #: not finished with, and a tombstone for every multi-partition
        #: one that left the queue (:meth:`_close`): a bit per closed
        #: attempt under its uid — most commands have one attempt — and,
        #: for one that aborted here as the target, the sources that had
        #: not shipped yet, whose transfers it still bounces.  Checkpointed.
        self._attempts: dict[tuple, _Attempt] = {}
        self._closed: dict[str, int] = {}
        self._unbounced: dict[tuple, tuple] = {}

        #: The one place a fresh client submission may be refused: by
        #: admission control, or because the group is retiring.
        self.ingress = IngressGate(
            self,
            (ExecCommand, GlobalCommand),
            self._past_refusing,
            lambda payload: isinstance(payload, GlobalCommand),
            admission_bound,
            admission_headroom,
            admission_retry_after,
        )
        #: Its admission controller (queue-based load leveling); None
        #: disables it.  Volatile by design — not checkpointed; the TTL
        #: sweep reclaims slots a crash or give-up leaked.
        self.admission = self.ingress.controller

        self.partition = self.group
        self.store = VariableStore()

        #: Learner feed, leader lease and read probes; None unless the
        #: compartmentalized pipeline is on (zero footprint: no observer,
        #: no timers, no extra messages).
        self.reads: Optional[ReadPath] = (
            ReadPath(self, compartment, learner_names)
            if compartment is not None and compartment.enabled
            else None
        )

        self.owned_nodes: set = set()
        self.node_vars: dict[Any, set] = {}
        self.in_transit: set = set()
        self.version = 0
        self.last_plan: dict[Any, str] = {}

        # Elastic retirement (merge reconfiguration).  ``draining``: a
        # cutover plan listed this partition as retiring — ship state out,
        # NACK fresh client traffic, announce DrainComplete when empty.
        # ``retired``: the DrainComplete a-delivered in our own log — the
        # totally ordered point after which this group only answers
        # stragglers.  Both are stable (checkpointed) state.
        self.draining = False
        self.retired = False
        self._drain_version = 0
        self._drain_timer_armed = False
        #: Re-announce cadence while drained (uid-deduped, so repeats are
        #: free); survives total loss of the first announcement.
        self.drain_period = 0.5

        self.queue: deque = deque()

        self._plan_transfer_seen: set = set()
        self._early_plan_transfers: dict = {}

        #: Exactly-once under client retries (stable: checkpointed).
        self.clients = ClientTable()

        #: Transfer / return / abort and plan-move traffic, which must
        #: survive loss and receiver crashes; ``retransmit_period`` is its
        #: back-off cap (0 turns it off).
        self.reliable = ReliableChannel(self, retransmit_period)

        self._hint_vertices: Counter = Counter()
        self._hint_edges: Counter = Counter()
        #: When this replica's group started: hints are cut every
        #: ``hint_period`` from here, at every replica alike.
        self._hint_origin: Optional[float] = None

        self.executed_count = 0
        self.multi_partition_count = 0

        # Labeled per-partition series, resolved once — the label-suffix
        # rendering is too costly for the per-command hot path.
        self._partition_series: dict[str, object] = {}

    # -- bootstrap -----------------------------------------------------------

    def preload(self, variables: dict, nodes: set, plan: dict) -> None:
        """Install the initial variables/ownership (system builder)."""
        for var, value in variables.items():
            self.store.put(var, value)
            self._index_var(var)
        self.owned_nodes.update(nodes)
        self.last_plan.update(plan)

    def start(self) -> None:
        super().start()
        if self.sends_hints:
            if self._hint_origin is None:
                self._hint_origin = self.now
                self.set_periodic_timer(self.hint_period, self._flush_hints)
            else:
                # Recovering: rejoin the group's cadence of hint cuts.
                since = (self.now - self._hint_origin) % self.hint_period
                self.set_timer(self.hint_period - since, self._resume_hints)
        if self.reads is not None:
            self.reads.start()

    def crash(self) -> None:
        super().crash()
        self.reliable.crash()

    def on_recover(self) -> None:
        self._service_timer = None
        self._lane_free = [0.0] * self.lanes
        self._drain_timer_armed = False
        if self.reads is not None:
            self.reads.on_recover()
        super().on_recover()
        self.reliable.recover()
        # The execution queue and gather buffers are stable; whatever was
        # ready to run before the crash can run again now.
        self._pump()
        # A crash mid-drain must not wedge retirement: re-arm the
        # announcement loop (the drain uid dedups any pre-crash copy).
        if self.draining and not self.retired:
            self._arm_drain_timer()
            self._maybe_announce_drain()

    @property
    def _records_metrics(self) -> bool:
        return self.index == 0

    # -- variable index ---------------------------------------------------------

    def _index_var(self, var: Any) -> None:
        node = self.app.graph_node_of(var)
        self.node_vars.setdefault(node, set()).add(var)

    def _unindex_var(self, var: Any) -> None:
        node = self.app.graph_node_of(var)
        bucket = self.node_vars.get(node)
        if bucket is not None:
            bucket.discard(var)
            if not bucket:
                del self.node_vars[node]

    def _tracked_execute(self, command):
        """Run the app with mutation tracking; returns
        (result, status, written, removed) and keeps the index in sync."""
        self.store.begin_tracking()
        try:
            result = self.app.execute(command, self.store)
            status = ReplyStatus.OK
        except (KeyError, ValueError) as exc:
            result = repr(exc)
            status = ReplyStatus.NOK
        written, removed = self.store.end_tracking()
        for var in written:
            self._index_var(var)
        for var in removed:
            self._unindex_var(var)
        return result, status, written, removed

    def _borrowable_vars(self, command, claimed_nodes: set) -> list:
        """The variables this partition must ship when lending its part of
        ``command``: the concrete declared vars living on claimed nodes,
        plus every variable of claimed wildcard nodes."""
        vars_out = []
        for var in sorted(self.app.concrete_variables_of(command), key=repr):
            if self.app.graph_node_of(var) in claimed_nodes and var in self.store:
                vars_out.append(var)
        for node in sorted(self.app.wildcard_nodes_of(command), key=repr):
            if node in claimed_nodes:
                node_vars = self.node_vars.get(node, set())
                selected = self.app.borrow_variables(
                    command, node, self.store, node_vars
                )
                if selected is None:
                    selected = node_vars
                for var in sorted(selected, key=repr):
                    if var not in vars_out and var in self.store:
                        vars_out.append(var)
        return vars_out

    # -- ingress ------------------------------------------------------------------

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Submit) and isinstance(message.value, OrderEvent):
            if not self.ingress.admit(
                sender, message.value.message, self.draining or self.retired
            ):
                return
        elif isinstance(message, ProxyBatch):
            retiring = self.draining or self.retired
            for event in message.events:
                # The gate waves through what a peer sends, and the proxy
                # is one — a proxied client command must NOT ride that
                # exemption, so gate it as if its client had sent it.
                msg = event.message
                client = getattr(msg.payload, "client", None)
                if self.ingress.admit(client, msg, retiring):
                    self.submit(event)
            return
        super().on_message(sender, message)

    def _past_refusing(self, payload) -> bool:
        """The gate's ``settled``: the client table already answers this
        command, or — multi-partition — its borrows are in flight here:
        aborting a half-gathered command costs every involved partition
        another round."""
        if self.clients.answered(payload.client, payload.seq):
            return True
        if not isinstance(payload, GlobalCommand):
            return False
        uid = payload.command.uid
        return any(
            key[0] == uid and (rec.transfers or rec.returns)
            for key, rec in self._attempts.items()
        )

    # -- a-delivery --------------------------------------------------------------

    def adeliver(self, msg: MulticastMessage) -> None:
        self._trace_adeliver(msg.payload)
        self.queue.append(msg.payload)
        self._pump()

    def _pseries(self, name: str):
        """This partition's labeled series for ``name``, cached."""
        series = self._partition_series.get(name)
        if series is None:
            series = self.monitor.series(name, partition=self.partition)
            self._partition_series[name] = series
        return series

    def _trace_adeliver(self, payload: Any) -> None:
        """A-delivery at the *executing* partition ends ``multicast-order``
        and opens ``queue`` (time spent waiting in the execution queue
        plus the service gate).  Source partitions of a multi-partition
        command a-deliver too but must not close the span — the command
        has not reached its target yet from the client's point of view."""
        if not self.tracer.enabled:
            return
        if isinstance(payload, (ExecCommand, GlobalCommand)):
            executing = getattr(payload, "target", self.partition) == self.partition
        elif isinstance(payload, (CreateVar, DeleteVar)):
            executing = payload.partition == self.partition
        else:
            return
        if not executing:
            return
        uid = payload.command.uid
        self.tracer.finish(
            uid, "multicast-order", self.now, disc=payload.attempt,
            partition=self.partition,
        )
        self.tracer.begin(
            uid, "queue", self.now, disc=payload.attempt,
            partition=self.partition, attempt=payload.attempt,
        )

    def on_app_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ReliableMsg):
            # Acked on every copy, so that every sending replica stops.
            self.send(sender, ReliableAck(message.uid))
            self.on_app_message(sender, message.payload)
        elif isinstance(message, ReliableAck):
            self.reliable.ack(sender, message.uid)
            if self.draining and not self.reliable:
                self._maybe_announce_drain()
        elif isinstance(message, VarTransfer):
            self._on_var_transfer(message)
        elif isinstance(message, VarReturn):
            self._on_var_return(message)
        elif isinstance(message, TransferFailed):
            self._on_transfer_failed(message)
        elif isinstance(message, PlanTransfer):
            self._on_plan_transfer(message)
        elif isinstance(message, ReplyQuery):  # a lost reply: re-send, run nothing
            outcome = self.clients.outcome_of(message.client, message.seq)
            if outcome is not None:
                reply = Reply(message.uid, *outcome, message.attempt, self.partition)
                self.send(sender, reply)
        elif self.reads is not None:
            self.reads.on_message(message)  # read probes, feed requests

    # -- the read path's view of the queue (repro.compartment.serverside) ----------

    def deliver_value(self, value: Any) -> None:
        if isinstance(value, LeaseGrant):
            if self.reads is not None:
                self.reads.apply_grant(value)
            return
        super().deliver_value(value)

    def holds(self, nodes: frozenset) -> bool:
        """Whether the current plan gives this partition all of
        ``nodes``, settled here or still on their way."""
        return all(
            node in self.owned_nodes or node in self.in_transit for node in nodes
        )

    def may_still_touch(self, nodes: frozenset) -> bool:
        """True while an already-ordered (or still-ordering) command could
        still mutate the variables of ``nodes``.  The leader learns every
        decision first and delivers strictly in order, so anything any
        replica may have executed and replied is — at this replica, the
        leaseholding leader — either executed (covered by the feed
        versions) or visible in these buffers."""
        if any(node in self.in_transit for node in nodes):
            return True
        pending = (entry.message.payload for entry in self.pending_msgs.values())
        for payload in chain(self.queue, pending):
            command = getattr(payload, "command", None)
            # Plans, drains, unknown payloads: assume the worst.
            if command is None or nodes & self.app.nodes_of(command):
                return True
        return False

    # -- the execution queue -------------------------------------------------------

    def _pump(self) -> None:
        """The one scheduler: scan the decided prefix front to back and
        run what may run now.

        A lane is a CPU: an execution holds one for ``service_time`` and
        nothing else does.  A command that waits on the network instead
        (borrowed variables in flight, lent ones not home, a node in
        transit) becomes a *blocker*; a command behind it dispatches iff
        it conflicts with no blocker (:class:`Signature`), so
        conflicting commands keep log order and independent ones use the
        lane the blocker leaves idle — at one lane as at four.  The scan
        ends at the first command the service gate refuses: every lane
        is busy, and the gate's timer re-pumps.  A queue whose commands
        finish in order compares nothing.

        Ownership-changing payloads (create/delete/plan/drain, and a
        multi-partition command where :attr:`moves_are_final`) are
        barriers: they run only with nothing unfinished ahead and nothing
        may pass them — they are the only payloads that change node
        ownership, which is what makes the passing commands'
        ownership/RETRY checks order-insensitive.
        """
        queue = self.queue
        blockers: list = []  # signatures of the unfinished commands passed
        self._gate_refused = False
        idx = 0
        while idx < len(queue):
            payload = queue[idx]
            if isinstance(payload, (ExecCommand, GlobalCommand)):
                multi = isinstance(payload, GlobalCommand)
                barrier = multi and self.moves_are_final
                if blockers:
                    if barrier:
                        return  # runs only with nothing unfinished ahead
                    sig = self._signature(payload)
                    if any(sig.conflicts(blocker) for blocker in blockers):
                        blockers.append(sig)
                        idx += 1
                        continue
                if multi:
                    done = self._try_global(payload)
                else:
                    done = self._try_exec(payload)
                if done:
                    # The one place a command leaves the queue.
                    del queue[idx]
                    key = (payload.command.uid, payload.attempt)
                    self._attempts.pop(key, None)
                    if multi:
                        self._close(key)
                    if self.admission is not None:
                        self.admission.release(key[0])
                elif self._gate_refused or barrier:
                    return
                else:
                    blockers.append(self._signature(payload))
                    idx += 1
                continue
            if idx > 0:
                return  # barrier: nothing behind it may run
            if isinstance(payload, CreateVar):
                self._apply_create(payload)
            elif isinstance(payload, DeleteVar):
                self._apply_delete(payload)
            elif isinstance(payload, PartitionPlan):
                self._apply_plan(payload)
            elif isinstance(payload, DrainComplete):
                self._apply_drain_complete(payload)
            queue.popleft()  # unknown payloads are skipped

    def _signature(self, payload) -> Signature:
        """The payload's scheduling signature, compiled by whichever
        server asks first: the payload object is shared by every replica
        of every partition it was multicast to, and its signature is a
        function of application and command alone.  A multi-partition
        command is the kind that moves what it names."""
        sig = payload.sched
        if sig is None or sig.app is not self.app:
            sig = Signature(
                self.app, payload.command, isinstance(payload, GlobalCommand)
            )
            object.__setattr__(payload, "sched", sig)
        return sig

    def _close(self, key: tuple) -> None:
        uid, attempt = key
        self._closed[uid] = self._closed.get(uid, 0) | 1 << attempt

    def _is_closed(self, key: tuple) -> bool:
        uid, attempt = key
        return self._closed.get(uid, 0) >> attempt & 1 == 1

    def _attempt(self, key: tuple) -> _Attempt:
        """The record of attempt ``key``, created at first mention."""
        rec = self._attempts.get(key)
        if rec is None:
            rec = self._attempts[key] = _Attempt()
        return rec

    # -- single-partition commands -----------------------------------------------------

    def _gate_service(self) -> bool:
        """The service gate, asked where a lane is about to be consumed:
        True when a simulated CPU lane is free; otherwise ends the
        current scan and re-pumps once the earliest busy lane's service
        time has elapsed."""
        if self.service_time <= 0:
            return True
        free_at = min(self._lane_free)
        if self.now >= free_at:
            return True
        self._gate_refused = True
        if self._service_timer is None or not self._service_timer.active:
            self._service_timer = self.set_timer(free_at - self.now, self._pump)
        return False

    def _consume_service(self) -> None:
        if self.service_time <= 0:
            return
        free = self._lane_free
        lane = free.index(min(free))
        free[lane] = max(free[lane], self.now) + self.service_time
        if self.lanes > 1:
            self._last_lane = lane
            if self._records_metrics:
                self._lane_series(lane).record(self.now)

    def _lane_series(self, lane: int):
        series = self._partition_series.get(f"lane{lane}")
        if series is None:
            series = self.monitor.series(
                "lane_occupancy", partition=self.partition, lane=str(lane)
            )
            self._partition_series[f"lane{lane}"] = series
        return series

    def _try_exec(self, payload: ExecCommand) -> bool:
        command = payload.command
        # Admitted — its nodes owned, settled and the attempt judged
        # fresh — stays true while the command is queued; it is noted
        # only if the service gate refuses (the command is tried again
        # at every pump until a lane frees), so a command that runs at
        # its first pump allocates no record.
        key = (command.uid, payload.attempt)
        rec = self._attempts.get(key)
        nodes = self._signature(payload).nodes
        if rec is None or not rec.admitted:
            if not nodes <= self.owned_nodes:
                if self.tracer.enabled:
                    self.tracer.finish(
                        command.uid, "queue", self.now, disc=payload.attempt,
                        status="retry",
                    )
                self._reply(payload, ReplyStatus.RETRY)
                return True
            if not nodes.isdisjoint(self.in_transit):
                return False  # wait for the node's variables to arrive
            if self._answer_repeat(payload, nodes):
                return True
        if not self._gate_service():
            self._attempt(key).admitted = True
            return False
        self._consume_service()
        self._execute_and_reply(payload, record_hint_nodes=nodes)
        return True

    def _execute_and_reply(self, payload, record_hint_nodes=()) -> None:
        command = payload.command
        self._trace_execute_start(payload)
        result, status, _, _ = self._tracked_execute(command)
        self._trace_execute_end(payload, status)
        self.clients.record(payload, record_hint_nodes, status, result)
        self._reply(payload, status, result)
        self.executed_count += 1
        self._record_hint(record_hint_nodes)
        if self._records_metrics:
            self._pseries("tput").record(self.now)
            if self.reads is not None and self.app.is_readonly(command):
                self.monitor.counter(
                    "reads", partition=self.partition, event="ordered"
                ).inc()

    def _trace_execute_start(self, payload) -> None:
        """Close ``queue`` and open ``execute``.  Execution is atomic on
        the virtual clock (the service-time cost shows up as queue wait
        via the service gate), so the execute span is zero-duration with
        the modeled service time as a tag."""
        if not self.tracer.enabled:
            return
        uid = payload.command.uid
        self.tracer.finish(uid, "queue", self.now, disc=payload.attempt)
        tags = {} if self._last_lane is None else {"lane": self._last_lane}
        self.tracer.begin(
            uid, "execute", self.now, disc=payload.attempt,
            partition=self.partition, service_time=self.service_time, **tags,
        )

    def _trace_execute_end(self, payload, status) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.finish(
            payload.command.uid, "execute", self.now, disc=payload.attempt,
            status=status.name.lower(),
        )

    # -- exactly-once: repeats of executed commands ---------------------------------

    def _answer_repeat(self, payload, nodes) -> bool:
        """True when ``payload`` must not run, as the client table judges
        by the numbers of ``nodes`` (all owned and settled here): a
        duplicate the client may still wait for is answered from the
        table, one it has left behind — or a stale attempt — is dropped."""
        outcome = self.clients.repeat_of(payload, nodes)
        if outcome is None:
            return False
        if self.tracer.enabled:
            self.tracer.finish(
                payload.command.uid, "queue", self.now, disc=payload.attempt,
                status="cached" if outcome else "stale",
            )
        if outcome:
            self._reply(payload, *outcome)
            if self._records_metrics:
                self.monitor.counter("dedup_replies").inc()
        return True

    # -- multi-partition commands ----------------------------------------------------------

    def _try_global(self, payload: GlobalCommand) -> bool:
        rec = self._attempt((payload.command.uid, payload.attempt))

        # Judged once, before this partition does anything for the
        # attempt and with its claimed nodes settled: their numbers are
        # node state, so every replica judges alike — also one that lags
        # and already holds the VarReturn of this (or a later) command,
        # which changes nothing until it is consumed below.
        if not rec.checked:
            claimed = payload.nodes_at(self.partition)
            if any(node not in self.owned_nodes for node in claimed):
                self._abort_global(payload)
                return True
            if any(node in self.in_transit for node in claimed):
                return False
            if self._answer_repeat(payload, claimed):
                # A repeat (or stale attempt) does not run here: unwind
                # its gather so no partition blocks.  As a source we will
                # not ship — tell the others so a target that judged
                # differently aborts instead of gathering forever.
                if payload.target == self.partition:
                    self._close_aborted_target(payload)
                else:
                    self._notify_transfer_failed(payload)
                return True
            rec.checked = True

        if payload.target == self.partition:
            return self._global_as_target(payload, rec)
        return self._global_as_source(payload, rec)

    def _notify_transfer_failed(self, payload: GlobalCommand) -> None:
        for partition in payload.involved():
            if partition != self.partition:
                self._send_to_partition(
                    partition,
                    TransferFailed(
                        payload.command.uid, self.partition, payload.attempt
                    ),
                    uid=f"tf:{payload.command.uid}:{payload.attempt}:{self.partition}",
                )

    def _gather(self, payload: GlobalCommand, rec: _Attempt, **borrow_tags) -> tuple:
        """Target side, before executing: ``(finished, received)``.

        ``received`` maps each source to its VarTransfer once every
        source has shipped and a lane was taken for the execution;
        until then it is None and ``finished`` says whether the command
        is over (aborted: some source was stale) or must wait."""
        command = payload.command
        needed = {p for p in payload.involved() if p != self.partition}

        if self.tracer.enabled:
            self.tracer.begin(
                command.uid, "borrow", self.now, disc=payload.attempt,
                target=self.partition, sources=len(needed),
                attempt=payload.attempt, **borrow_tags,
            )
        if rec.failed:
            # Some source is stale; abort and bounce whatever arrived.
            self._abort_global(payload)
            return True, None
        received = rec.transfers
        if not needed <= received.keys():
            return False, None  # still gathering
        # Gather complete: service-gate wait from here on belongs to the
        # still-open queue span, not the borrow.
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "borrow", self.now, disc=payload.attempt
            )
        if not self._gate_service():
            return False, None
        self._consume_service()
        return False, received

    def _global_as_target(self, payload: GlobalCommand, rec: _Attempt) -> bool:
        command = payload.command
        finished, received = self._gather(payload, rec)
        if received is None:
            return finished

        # Insert the borrowed variables.
        borrowed: list = []
        for transfer in received.values():
            for var, value in transfer.vars:
                self.store.put(var, value)
                self._index_var(var)
                borrowed.append(var)
        self._trace_execute_start(payload)
        result, status, written, _removed = self._tracked_execute(command)
        self._trace_execute_end(payload, status)
        self.clients.record(
            payload, payload.nodes_at(self.partition), status, result
        )

        # Return every variable that belongs to a source node — including
        # variables the execution just created for those nodes.  The
        # outcome rides along: each source records it on the nodes it lent.
        home_of = dict(payload.locations)
        returns: dict[str, list] = {}
        for var in set(borrowed) | written:
            if var not in self.store:
                continue
            home = home_of.get(self.app.graph_node_of(var))
            if home is not None and home != self.partition:
                returns.setdefault(home, []).append(
                    (var, self.store.get(var))
                )
        returned_objects = 0
        for home, pairs in returns.items():
            if self.tracer.enabled:
                self.tracer.begin(
                    command.uid, "return", self.now,
                    disc=(payload.attempt, home),
                    target=self.partition, home=home, variables=len(pairs),
                )
            self._send_to_partition(
                home,
                VarReturn(
                    command.uid,
                    self.partition,
                    tuple(pairs),
                    payload.attempt,
                    (status, result),
                ),
                uid=f"vr:{command.uid}:{payload.attempt}:{self.partition}->{home}",
            )
            for var, _ in pairs:
                self.store.discard(var)
                self._unindex_var(var)
            returned_objects += len(pairs)

        self._reply(payload, status, result)
        self.executed_count += 1
        self.multi_partition_count += 1
        self._record_hint({n for n, _ in payload.locations})
        if self._records_metrics:
            self._pseries("tput").record(self.now)
            self._pseries("multipart").record(self.now)
            self.monitor.counter("multi_partition_commands").inc()
            exchanged = sum(len(t.vars) for t in received.values()) + returned_objects
            self.monitor.counter("objects_exchanged").inc(exchanged)
            self._pseries("objects").record(self.now, exchanged)
        return True

    def _global_as_source(self, payload: GlobalCommand, rec: _Attempt) -> bool:
        command = payload.command

        if not rec.sent:
            claimed = set(payload.nodes_at(self.partition))
            pairs = []
            for var in self._borrowable_vars(command, claimed):
                pairs.append((var, self.store.take(var)))
                self._unindex_var(var)
            # Annotate the target-owned borrow span, if it is open yet.
            if self.tracer.enabled:
                self.tracer.event_on(
                    command.uid, "borrow", payload.attempt,
                    "var-transfer-sent", self.now,
                    source=self.partition, variables=len(pairs),
                )
            self._send_to_partition(
                payload.target,
                VarTransfer(
                    command.uid, self.partition, tuple(pairs), payload.attempt
                ),
                uid=f"vt:{command.uid}:{payload.attempt}:{self.partition}",
            )
            rec.sent = True
            if self._records_metrics:
                self._pseries("objects").record(self.now, len(pairs))

        # Wait for our variables to come home (or an abort bounce, which
        # also arrives as a VarReturn).  Consumed here, at the command's
        # log position, the return installs the nodes' new state: their
        # variables and — if the command executed — its number.
        returned = rec.returns.get(payload.target)
        if returned is None:
            return False
        for var, value in returned.vars:
            self.store.put(var, value)
            self._index_var(var)
        if returned.outcome is not None:
            self.clients.record(
                payload, payload.nodes_at(self.partition), *returned.outcome
            )
        if self.tracer.enabled:
            self.tracer.finish(
                command.uid, "return", self.now,
                disc=(payload.attempt, self.partition), home=self.partition,
            )
        return True

    def _abort_global(self, payload: GlobalCommand) -> None:
        """This partition cannot honor the command's location map: tell
        the client to retry and unwind the gather."""
        uid = payload.command.uid
        if self.tracer.enabled:
            self.tracer.finish(
                uid, "borrow", self.now, disc=payload.attempt, aborted=True
            )
            self.tracer.finish(
                uid, "queue", self.now, disc=payload.attempt, status="retry"
            )
            self.tracer.event(
                uid, "abort", self.now,
                partition=self.partition, attempt=payload.attempt,
            )
        self._reply(payload, ReplyStatus.RETRY)
        if self._records_metrics:
            self.monitor.counter("retries_sent").inc()
        self._notify_transfer_failed(payload)
        if payload.target == self.partition:
            self._close_aborted_target(payload)

    def _close_aborted_target(self, payload: GlobalCommand) -> None:
        """The gather of this attempt is over and will not execute: its
        sources may still ship, so bounce what arrived and leave the
        tombstone that bounces the rest — their heads unblock with the
        variables unchanged.  A source that reported ``TransferFailed``
        ships nothing and gets no entry."""
        key = (payload.command.uid, payload.attempt)
        rec = self._attempts[key]
        self._close(key)
        unbounced = tuple(
            p for p in payload.involved()
            if p != self.partition and p not in rec.transfers and p not in rec.failed
        )
        if unbounced:
            self._unbounced[key] = unbounced
        for transfer in rec.transfers.values():
            self._bounce(transfer)

    def _bounce(self, transfer: VarTransfer) -> None:
        """Return borrowed variables unmodified, with no outcome."""
        source = transfer.from_partition
        self._send_to_partition(
            source,
            VarReturn(
                transfer.cmd_uid, self.partition, transfer.vars, transfer.attempt
            ),
            uid=f"vr:{transfer.cmd_uid}:{transfer.attempt}:{self.partition}->{source}",
        )

    # -- transfer plumbing ------------------------------------------------------------------

    # Every sender replica ships a copy, and the reliable channel may
    # repeat one: the first copy from a partition counts, no other does.

    def _on_var_transfer(self, msg: VarTransfer) -> None:
        if not self._is_closed(msg.key):
            transfers = self._attempt(msg.key).transfers
            if msg.from_partition not in transfers:
                transfers[msg.from_partition] = msg
                self._pump()
        elif self._strike(msg.key, msg.from_partition):
            self._bounce(msg)  # late for a gather aborted here: home, once

    def _on_var_return(self, msg: VarReturn) -> None:
        if not self._is_closed(msg.key):
            returns = self._attempt(msg.key).returns
            if msg.from_partition not in returns:
                returns[msg.from_partition] = msg
                self._pump()

    def _on_transfer_failed(self, msg: TransferFailed) -> None:
        if not self._is_closed(msg.key):
            rec = self._attempt(msg.key)
            if msg.from_partition not in rec.failed:
                rec.failed = tuple(sorted((*rec.failed, msg.from_partition)))
                self._pump()
        else:
            self._strike(msg.key, msg.from_partition)  # it will not ship

    def _strike(self, key: tuple, partition: str) -> bool:
        """Closed ``key`` stops waiting for ``partition``'s transfer: had it?"""
        unbounced = self._unbounced.pop(key, ())
        rest = tuple(p for p in unbounced if p != partition)
        if rest:
            self._unbounced[key] = rest
        return len(rest) < len(unbounced)

    # -- create / delete -----------------------------------------------------------------------

    def _apply_create(self, payload: CreateVar) -> None:
        nodes = (payload.node,)
        if payload.partition != self.partition or self._answer_repeat(payload, nodes):
            return
        self.store.put(payload.var, self.app.initial_value_of(payload.var))
        self._index_var(payload.var)
        self.owned_nodes.add(payload.node)
        self.last_plan[payload.node] = self.partition
        self.clients.record(payload, nodes, ReplyStatus.OK, True)
        self._reply(payload, ReplyStatus.OK, True)

    def _apply_delete(self, payload: DeleteVar) -> None:
        nodes = (payload.node,)
        if payload.partition != self.partition or self._answer_repeat(payload, nodes):
            return
        self.store.discard(payload.var)
        self._unindex_var(payload.var)
        self.owned_nodes.discard(payload.node)
        # The node's numbers stay behind: a late replay of this delete
        # must still be recognised after somebody re-created the node.
        self.clients.record(payload, nodes, ReplyStatus.OK, True)
        self._reply(payload, ReplyStatus.OK, True)

    # -- repartitioning (Task 3) -------------------------------------------------------------------

    def _apply_plan(self, plan: PartitionPlan) -> None:
        if plan.version <= self.version:
            return
        self.version = plan.version
        assignment = plan.as_dict()
        self.last_plan = dict(assignment)
        if self.partition in plan.retiring and not self.draining:
            self.draining = True
            self._drain_version = plan.version
            self._arm_drain_timer()

        moved_out_objects = 0
        moved_out_bytes = 0
        nodes_out = 0
        nodes_in = 0
        for node, new_owner in assignment.items():
            if new_owner == self.partition:
                if node not in self.owned_nodes:
                    self.owned_nodes.add(node)
                    nodes_in += 1
                    early = self._early_plan_transfers.pop(node, None)
                    if early is not None:
                        self._install_node_vars(*early)
                    else:
                        self.in_transit.add(node)
            else:
                if node in self.owned_nodes:
                    self.owned_nodes.discard(node)
                    self.in_transit.discard(node)
                    vars_of_node = list(self.node_vars.get(node, ()))
                    pairs = tuple(
                        (var, self.store.get(var)) for var in vars_of_node
                    )
                    for var in vars_of_node:
                        self.store.discard(var)
                        self._unindex_var(var)
                    self._send_to_partition(
                        new_owner,
                        PlanTransfer(
                            plan.version,
                            node,
                            self.partition,
                            pairs,
                            self.clients.export_nodes((node,)),
                        ),
                        uid=f"pt:{plan.version}:{node!r}:{self.partition}",
                    )
                    moved_out_objects += len(pairs)
                    moved_out_bytes += sum(
                        len(repr(value)) for _, value in pairs
                    )
                    nodes_out += 1
        if self._records_metrics:
            self.monitor.counter("plan_objects_moved").inc(moved_out_objects)
            self._pseries("objects").record(self.now, moved_out_objects)
            if self.audit.enabled:
                if nodes_out or nodes_in:
                    self.audit.record(
                        audit_mod.RELOCATION, self.now,
                        version=plan.version, partition=self.partition,
                        objects_out=moved_out_objects,
                        bytes_out=moved_out_bytes,
                        nodes_out=nodes_out, nodes_in=nodes_in,
                        awaiting=len(self.in_transit),
                    )
                if not self.in_transit:
                    # Nothing left in flight: this partition quiesces at
                    # plan application time.
                    self.audit.record(
                        audit_mod.QUIESCE, self.now,
                        version=plan.version, partition=self.partition,
                    )
        if self.draining:
            self._maybe_announce_drain()

    # -- elastic retirement (merge drain) ---------------------------------------------

    def _arm_drain_timer(self) -> None:
        if self._drain_timer_armed or self.drain_period <= 0:
            return
        self._drain_timer_armed = True
        self.set_periodic_timer(self.drain_period, self._maybe_announce_drain)

    def _maybe_announce_drain(self) -> None:
        """Announce ``DrainComplete`` once everything this partition owned
        has verifiably left: no owned or in-flight nodes and an empty
        reliable outbox (every shipped transfer acked by its receiver).
        Multicast to the oracle *and* our own group: a-delivery in our own
        log is the totally ordered retire point, a-delivery at the oracle
        completes the merge.  The version-derived uid makes the periodic
        re-announcement (and post-recovery duplicates) free."""
        if not self.draining or self.retired:
            return
        if self.owned_nodes or self.in_transit or self.reliable:
            return
        message = self._directory.make_message(
            {self.oracle_group, self.partition},
            DrainComplete(self._drain_version, self.partition),
            uid=f"drain:{self._drain_version}:{self.partition}",
        )
        self._directory.amcast_local(self, message)

    def _apply_drain_complete(self, done: DrainComplete) -> None:
        """Our own DrainComplete a-delivered: the retire point.  Every
        replica of the group passes this at the same log position."""
        if done.partition != self.partition or self.retired:
            return
        self.retired = True
        if self.audit.enabled and self._records_metrics:
            self.audit.record(
                audit_mod.RECONFIG_DRAIN, self.now,
                version=done.version, partition=self.partition,
            )

    def _install_node_vars(self, pairs: tuple, table: tuple) -> None:
        """A node settles here: its variables and, with them, its share
        of the old owner's client table."""
        for var, value in pairs:
            self.store.put(var, value)
            self._index_var(var)
        self.clients.install_nodes(table)

    def _on_plan_transfer(self, msg: PlanTransfer) -> None:
        key = (msg.version, msg.node, msg.from_partition)
        if key in self._plan_transfer_seen:
            return
        self._plan_transfer_seen.add(key)
        if msg.version > self.version:
            # Our copy of the plan has not arrived yet; hold the variables.
            self._early_plan_transfers[msg.node] = (msg.vars, msg.table)
            self._pump()
            return
        if msg.node in self.in_transit:
            self._install_node_vars(msg.vars, msg.table)
            self.in_transit.discard(msg.node)
            if (
                not self.in_transit
                and self.audit.enabled
                and self._records_metrics
            ):
                # Last in-flight node settled: relocation quiesce point.
                self.audit.record(
                    audit_mod.QUIESCE, self.now,
                    version=self.version, partition=self.partition,
                )
            self._pump()
            return
        if msg.node not in self.owned_nodes:
            # The node has already moved on under a newer plan; forward.
            owner = self.last_plan.get(msg.node)
            if owner is not None and owner != self.partition:
                self._send_to_partition(
                    owner,
                    PlanTransfer(
                        self.version,
                        msg.node,
                        self.partition,
                        msg.vars,
                        msg.table,
                    ),
                    uid=f"pt:{self.version}:{msg.node!r}:{self.partition}",
                )
        # Owned and settled: duplicate copy, nothing to do.

    # -- workload hints ---------------------------------------------------------------------------------

    def _record_hint(self, nodes) -> None:
        if not self.sends_hints:
            return
        nodes = sorted(nodes, key=repr)
        for node in nodes:
            self._hint_vertices[node] += 1
        if len(nodes) <= CLIQUE_HINT_LIMIT:
            for i, u in enumerate(nodes):
                for v in nodes[i + 1 :]:
                    self._hint_edges[(u, v)] += 1
        else:
            hub = nodes[0]
            for v in nodes[1:]:
                self._hint_edges[(hub, v)] += 1

    def _resume_hints(self) -> None:
        self._flush_hints()
        self.set_periodic_timer(self.hint_period, self._flush_hints)

    def _flush_hints(self) -> None:
        """Cut the hint of the period ending now.  Its number is the
        period's — a function of the clock, not of the ticks this
        replica saw — so the replicas of a partition, which cut at the
        same instants, send each period's hint under one number and the
        oracle counts it once, also after one of them was down."""
        if not self._hint_vertices and not self._hint_edges:
            return
        seq = round((self.now - self._hint_origin) / self.hint_period) - 1
        hint = ExecutionHint(
            partition=self.partition,
            seq=seq,
            vertices=tuple(self._hint_vertices.items()),
            edges=tuple(
                (u, v, w) for (u, v), w in self._hint_edges.items()
            ),
        )
        self._hint_vertices.clear()
        self._hint_edges.clear()
        message = self._directory.make_message(
            (self.oracle_group,), hint, f"hint:{self.partition}:{seq}",
            self.partition, seq,
        )
        self._directory.amcast_local(self, message)

    # -- plumbing ----------------------------------------------------------------------------------------

    def _reply(self, payload, status: ReplyStatus, result: Any = None) -> None:
        # Every replica replies (the client dedups); get-or-create means
        # the first replica to send stamps the span's start, and the
        # client closes it on receipt.
        if (
            status == ReplyStatus.RETRY
            and (self.draining or self.retired)
            and self._records_metrics
        ):
            # Command ordered before the cutover but landing after it:
            # the RETRY redirects the client through the oracle to the
            # partition that absorbed the nodes.
            self.monitor.counter(
                "reconfig", partition=self.partition, event="redirected"
            ).inc()
        if self.tracer.enabled:
            self.tracer.begin(
                payload.command.uid, "reply", self.now, disc=payload.attempt,
                partition=self.partition, attempt=payload.attempt,
            )
        self.send(
            payload.client,
            Reply(
                uid=payload.command.uid,
                status=status,
                result=result,
                attempt=payload.attempt,
                partition=self.partition,
            ),
        )

    def _send_to_partition(
        self, partition: str, message: Any, uid: Optional[str] = None
    ) -> None:
        """Send ``message`` to every replica of ``partition``, through the
        reliable channel when it has a ``uid`` (:mod:`repro.core.reliable`)."""
        self.reliable.send(self._directory.replicas_of(partition), message, uid)

    # -- checkpointing -----------------------------------------------------------------------------------

    def capture_app_state(self) -> dict:
        state = super().capture_app_state()
        # The store is its own section so snapshot chunking happens at
        # per-variable granularity (it dominates checkpoint size).
        state["server.store"] = self.store.snapshot(self.store.variables())
        state["server.state"] = {
            "owned_nodes": sorted(self.owned_nodes, key=repr),
            "in_transit": sorted(self.in_transit, key=repr),
            "version": self.version,
            "last_plan": sorted(self.last_plan.items(), key=repr),
            # Queued payloads / buffered transfers hold immutable message
            # dataclasses and stored values, immutable too — shipping
            # references is safe.
            "queue": tuple(self.queue),
            "attempts": sorted(
                ((key, rec.capture()) for key, rec in self._attempts.items()),
                key=repr,
            ),
            "closed": sorted(self._closed.items()),
            "unbounced": sorted(self._unbounced.items()),
            "plan_transfer_seen": sorted(self._plan_transfer_seen, key=repr),
            "early_plan_transfers": sorted(
                self._early_plan_transfers.items(), key=repr
            ),
            "clients": self.clients.capture(),
            "draining": self.draining,
            "retired": self.retired,
            "drain_version": self._drain_version,
            "outbox": self.reliable.capture(),
            "hint_vertices": sorted(self._hint_vertices.items(), key=repr),
            "hint_edges": sorted(self._hint_edges.items(), key=repr),
            "executed_count": self.executed_count,
            "multi_partition_count": self.multi_partition_count,
        }
        if self.reads is not None:
            state["compartment.state"] = self.reads.capture()
        return state

    def install_app_state(self, sections: dict) -> None:
        super().install_app_state(sections)
        self.store = VariableStore()
        self.node_vars = {}
        for var, value in sections.get("server.store", {}).items():
            self.store.put(var, value)
            self._index_var(var)
        if self.reads is not None:
            self.reads.install(sections.get("compartment.state", {}))
        state = sections.get("server.state", {})
        self.owned_nodes = set(state.get("owned_nodes", ()))
        self.in_transit = set(state.get("in_transit", ()))
        self.version = state.get("version", 0)
        self.last_plan = dict(state.get("last_plan", ()))
        self.queue = deque(state.get("queue", ()))
        self._attempts = {
            key: _Attempt(*captured) for key, captured in state.get("attempts", ())
        }
        self._closed = dict(state.get("closed", ()))
        self._unbounced = dict(state.get("unbounced", ()))
        self._lane_free = [0.0] * self.lanes
        self._plan_transfer_seen = set(state.get("plan_transfer_seen", ()))
        self._early_plan_transfers = dict(state.get("early_plan_transfers", ()))
        self.clients.install(state.get("clients", ()))
        self.draining = state.get("draining", False)
        self.retired = state.get("retired", False)
        self._drain_version = state.get("drain_version", 0)
        self.reliable.install(state.get("outbox", ()))
        self._hint_vertices = Counter(dict(state.get("hint_vertices", ())))
        self._hint_edges = Counter(dict(state.get("hint_edges", ())))
        self.executed_count = state.get("executed_count", 0)
        self.multi_partition_count = state.get("multi_partition_count", 0)
        # Whatever is runnable in the adopted queue can run right away.
        self._pump()
        if self.draining and not self.retired:
            self._arm_drain_timer()
            self._maybe_announce_drain()
