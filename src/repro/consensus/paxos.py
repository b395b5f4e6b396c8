"""Multi-Paxos acceptors and replicas.

Topology per group (matching the paper's libpaxos3 deployment): ``n``
replica actors that act as proposer/learner and host the application
state machine, plus ``k`` acceptor actors.  The leader for ballot ``b``
is replica ``b % n``; ballot 0 needs no phase 1 because acceptors start
with an implicit promise at ballot 0 and only replica 0 leads ballot 0.

Values are proposed in *batches* (libpaxos-style) to amortize quorum
round-trips under load; batches are unpacked in instance order at
delivery, with per-value ``uid`` deduplication so re-proposals after a
leader change deliver exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.trace import NULL_TRACER, Tracer
from repro.recovery.checkpoint import (
    CheckpointRecord,
    assemble_sections,
    flatten_sections,
)
from repro.recovery import transfer
from repro.recovery.transfer import SnapshotFetch
from repro.sim.actors import Actor
from repro.sim.rto import Retransmitter
from repro.consensus.rangeset import RangeSet
from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    Frontier,
    Heartbeat,
    LearnRequest,
    LogTruncated,
    Nack,
    NoOp,
    Prepare,
    Promise,
    RecoverInfo,
    RecoverQuery,
    SnapshotChunk,
    SnapshotChunkRequest,
    SnapshotMeta,
    SnapshotRequest,
    Submit,
)


@dataclass(frozen=True)
class Batch:
    """An ordered batch of application values, the unit of consensus."""

    values: tuple


#: A peer whose last frontier report is older than this stops holding
#: the log above this replica's newest checkpoint (it comes back through
#: a snapshot).  Without checkpoints it holds the log forever.
WATERMARK_TTL = 2.0


@dataclass
class ReplicaConfig:
    """Tuning knobs for a Paxos replica."""

    heartbeat_period: float = 0.1
    leader_timeout: float = 0.5
    #: Longest a value waits behind an instance in flight before it is
    #: proposed anyway; an idle leader proposes at once.
    batch_delay: float = 0.0005
    max_batch: int = 64
    window: int = 32
    catchup_period: float = 0.2
    recovery_retry: float = 0.3
    #: Upper bound on the exponentially backed-off recovery retry delay.
    recovery_retry_cap: float = 5.0
    #: Checkpoint every N delivered instances (0 disables checkpoints and
    #: with them snapshot transfer; the logs are bounded either way — see
    #: :meth:`PaxosReplica._stable_floor`).
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        # Load-bearing for liveness: a zero or negative window/batch
        # silently wedges `_flush_pending`, and a zero period re-arms its
        # timer at the same instant forever, instead of failing loudly
        # at configuration time.
        for name in ("window", "max_batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name in (
            "batch_delay", "heartbeat_period", "leader_timeout",
            "catchup_period", "recovery_retry", "recovery_retry_cap",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


class Acceptor(Actor):
    """A Paxos acceptor: one promise ballot for all instances, per-instance
    accepted (ballot, value) pairs."""

    def __init__(self, name: str):
        super().__init__(name)
        self.promised = 0
        self.accepted: dict[int, tuple[int, Any]] = {}
        #: Group-stable floor last seen on an Accept: every replica has
        #: delivered the instances below it, their state was discarded.
        self.truncated_below = 0

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Prepare):
            self._on_prepare(sender, message)
        elif isinstance(message, Accept):
            self._on_accept(sender, message)
        elif isinstance(message, RecoverQuery):
            self._on_recover_query(sender, message)
        elif isinstance(message, Heartbeat) and message.floor > self.truncated_below:
            self._forget_below(message.floor)

    def _on_prepare(self, sender: str, msg: Prepare) -> None:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            accepted = {i: va for i, va in self.accepted.items() if i >= msg.low}
            self.send(sender, Promise(msg.ballot, accepted, self.truncated_below))
        else:
            self.send(sender, Nack(self.promised))

    def _on_accept(self, sender: str, msg: Accept) -> None:
        if msg.instance < self.truncated_below:
            return  # chosen and forgotten: only a leader behind the group asks
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted[msg.instance] = (msg.ballot, msg.value)
            self.send(sender, Accepted(msg.ballot, msg.instance))
            if msg.floor > self.truncated_below:
                self._forget_below(msg.floor)
        else:
            self.send(sender, Nack(self.promised, msg.instance))

    def _forget_below(self, floor: int) -> None:
        """Every replica has delivered the instances below the leader's
        ``floor``: their accepted state can never be asked for again."""
        for instance in range(self.truncated_below, floor):
            self.accepted.pop(instance, None)
        self.truncated_below = floor

    def _on_recover_query(self, sender: str, msg: RecoverQuery) -> None:
        """Read-only reply for replica recovery: report accepted values
        without promising anything (unlike Prepare, this does not disturb
        the current leader)."""
        accepted = {i: va for i, va in self.accepted.items() if i >= msg.low}
        self.send(sender, RecoverInfo(msg.epoch, accepted, self.truncated_below))


class PaxosReplica(Actor):
    """Proposer + learner + application host.

    Subclasses (or callers via ``on_deliver``) receive every decided value
    exactly once, in log order, by overriding :meth:`deliver_value`.
    """

    def __init__(
        self,
        name: str,
        group: str,
        index: int,
        replicas: list[str],
        acceptors: list[str],
        config: Optional[ReplicaConfig] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(name)
        self.group = group
        self.index = index
        self.replicas = list(replicas)
        self.peers = [replica for replica in self.replicas if replica != name]
        self.acceptors = list(acceptors)
        self.config = config or ReplicaConfig()
        self.on_deliver = on_deliver
        self.rng = rng or random.Random(index)
        self.tracer = tracer or NULL_TRACER

        # Ballot / leadership
        self.ballot = 0
        self.phase1_done = index == 0  # ballot 0 leader skips phase 1
        self._promises: dict[str, Promise] = {}

        # Proposer state
        self.next_instance = 0
        self.proposals: dict[int, tuple[int, Any]] = {}
        self._accept_votes: dict[int, set[str]] = {}
        #: Submitted values not yet proposed here nor delivered, in
        #: arrival order: uid -> value (a value without a uid under a key
        #: of its own).  A delivery removes its value at once.
        self.pending: dict = {}
        self.proposed_uids: set = set()
        self._batch_timer = None
        #: Volatile loss recovery (``repro.sim.rto``): the leader times
        #: each Accept until its quorum, a follower each buffered
        #: submission until its delivery, every replica its one gap
        #: (keyed by ``next_deliver``) until delivery passes it, and a
        #: candidate its Prepare (keyed by ballot) until a quorum promised.
        self._accepts = Retransmitter(self, self._resend_accept, "accept")
        self._forwards = Retransmitter(self, self._forward, "forward")
        self._gaps = Retransmitter(self, self._learn_gap, "learn")
        self._prepares = Retransmitter(self, self._resend_prepare, "prepare")

        # Learner state
        self.decided: dict[int, Any] = {}
        self.next_deliver = 0
        #: Running count of the values in delivered instances (``decided``
        #: is only the untruncated suffix, so it cannot be counted there).
        self.values_delivered = 0
        self.delivered_uids = RangeSet()
        self._peer_max_decided = -1

        # Failure detection: the leader is suspected ``_suspect_after``
        # (``leader_timeout`` plus this replica's jitter) past the last
        # contact with it.
        self._last_leader_contact = 0.0
        self._suspect_after = self.config.leader_timeout
        self._started = False

        # Crash recovery (volatile; rebuilt by on_recover)
        self._recovery_epoch = 0
        self._recovery_replies: dict[str, RecoverInfo] = {}
        self._recovering = False
        self._recovery_attempts = 0

        # Log truncation / checkpointing (stable across crashes).
        #: First instance still present in ``decided``.
        self.log_floor = 0
        #: peer replica -> (delivery frontier it last reported, when).
        self._peer_frontiers: dict[str, tuple[int, float]] = {}
        #: Highest floor this replica has sent the acceptors.
        self._floor_told = 0
        #: Watermark of the newest local checkpoint (0 = none yet).
        self.checkpoint_watermark = 0
        self.last_checkpoint: Optional[CheckpointRecord] = None
        #: snapshot_id -> (watermark, flattened items); the last two
        #: checkpoints stay servable so a transfer survives one turnover.
        self._served_snapshots: dict[str, tuple[int, list]] = {}
        self._checkpoint_id = ""

        # Snapshot download (volatile; reset by on_recover).
        self._snapshot_epoch = 0
        self._fetching: Optional[SnapshotFetch] = None

        #: Optional metrics sink; subclasses (servers, oracle) install a
        #: real Monitor after construction.
        self.monitor = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm heartbeat / failure-detection timers.  Call after the actor
        is registered with the network."""
        if self._started:
            return
        self._started = True
        self._last_leader_contact = self.now
        for peer in self.peers:
            # A peer not heard from yet holds the floor at 0, as of now.
            self._peer_frontiers.setdefault(peer, (0, self.now))
        self.set_periodic_timer(self.config.heartbeat_period, self._heartbeat_tick)
        jitter = self.rng.uniform(0, 0.1 * self.config.leader_timeout)
        self._suspect_after = self.config.leader_timeout + jitter
        self.set_timer(self._suspect_after, self._leader_check_tick)
        self.set_periodic_timer(self.config.catchup_period, self._catchup_tick)

    def crash(self) -> None:
        super().crash()
        self._batch_timer = None
        self._accepts.clear()
        self._forwards.clear()
        self._gaps.clear()
        self._prepares.clear()

    def on_recover(self) -> None:
        """Rebuild volatile state after a crash (crash-recovery, §2.1).

        The Paxos *log* (``decided``, ``delivered_uids``, ``next_deliver``)
        and the promise-relevant ``ballot`` are treated as stable storage;
        leadership and in-flight proposer bookkeeping are volatile and
        reset.  The replica then re-syncs decided instances from the
        acceptors before relying on peer catch-up for the rest.
        """
        self._abandon_proposals()
        self._batch_timer = None
        self._started = False
        self._recovery_attempts = 0
        self._fetching = None
        self.tracer.record(
            "replica-recovered", self.now, group=self.group, replica=self.name
        )
        self.start()
        self._request_recovery()

    # -- leadership helpers ---------------------------------------------------

    def leader_of(self, ballot: int) -> str:
        return self.replicas[ballot % len(self.replicas)]

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.ballot) == self.name and self.phase1_done

    def _quorum(self) -> int:
        return len(self.acceptors) // 2 + 1

    @property
    def max_decided(self) -> int:
        # After truncation ``decided`` may be empty even though instances
        # were delivered; the delivery frontier keeps heartbeats truthful.
        return max(self.decided) if self.decided else self.next_deliver - 1

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        """Labeled counter increment, tolerating replicas without a
        metrics sink (bare PaxosReplica instances in unit tests)."""
        if self.monitor is not None:
            self.monitor.counter(name, **labels).inc(amount)

    # -- message dispatch -----------------------------------------------------

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, Submit):
            self.submit(message.value)
        elif isinstance(message, Promise):
            self._on_promise(sender, message)
        elif isinstance(message, Accepted):
            self._on_accepted(sender, message)
        elif isinstance(message, Decision):
            self._on_decision(message.instance, message.value)
            self._repair_gap(sender, message.instance)
        elif isinstance(message, Nack):
            self._on_nack(message)
        elif isinstance(message, Heartbeat):
            self._on_heartbeat(sender, message)
        elif isinstance(message, LearnRequest):
            self._on_learn_request(sender, message)
        elif isinstance(message, RecoverInfo):
            self._on_recover_info(sender, message)
        elif isinstance(message, Frontier):
            self._on_frontier(sender, message.next_deliver)
        elif isinstance(message, LogTruncated):
            self._on_log_truncated(sender, message)
        elif isinstance(message, SnapshotRequest):
            self._on_snapshot_request(sender, message)
        elif isinstance(message, SnapshotMeta):
            self._on_snapshot_meta(sender, message)
        elif isinstance(message, SnapshotChunkRequest):
            self._on_snapshot_chunk_request(sender, message)
        elif isinstance(message, SnapshotChunk):
            self._on_snapshot_chunk(sender, message)
        else:
            self.on_other_message(sender, message)

    def on_other_message(self, sender: str, message: Any) -> None:
        """Hook for subclasses layering protocols on top of the replica."""

    # -- submission / proposing -------------------------------------------------

    def submit(self, value: Any) -> None:
        """Enqueue ``value`` for ordering.  Any replica accepts submissions;
        only the leader proposes.  A follower buffers the value, in case
        it takes over, and forwards it to the leader if it is not
        delivered within its timeout (the leader's copy may be lost)."""
        uid = getattr(value, "uid", None)
        if uid is None:
            self.pending[object()] = value
        elif (
            uid in self.delivered_uids
            or uid in self.pending
            or (self.is_leader and uid in self.proposed_uids)
        ):
            return
        else:
            self.pending[uid] = value
        if self.is_leader:
            self._schedule_flush()
        elif uid is not None:
            self._forwards.arm(uid)

    def _schedule_flush(self) -> None:
        """Self-clocked batching: an idle leader proposes in this tick;
        behind an instance in flight a value waits for the next decision
        (``_on_accepted``) or ``batch_delay``, whichever comes first."""
        if not self.proposals or len(self.pending) >= self.config.max_batch:
            self._flush_pending()
        elif self._batch_timer is None or not self._batch_timer.active:
            self._batch_timer = self.set_timer(
                self.config.batch_delay, self._flush_pending
            )

    def _flush_pending(self) -> None:
        if not self.is_leader:
            return
        pending = self.pending
        while pending and len(self.proposals) < self.config.window:
            batch_values = []
            while pending and len(batch_values) < self.config.max_batch:
                value = pending.pop(next(iter(pending)))
                uid = getattr(value, "uid", None)
                if uid is not None:
                    if uid in self.proposed_uids or uid in self.delivered_uids:
                        continue
                    self.proposed_uids.add(uid)
                batch_values.append(value)
            if not batch_values:
                continue
            self._propose(self.next_instance, Batch(tuple(batch_values)))
            self.next_instance += 1

    def _propose(self, instance: int, value: Any) -> None:
        self.proposals[instance] = (self.ballot, value)
        self._accept_votes[instance] = set()
        self._send_accept(self.ballot, instance, value)
        self._accepts.arm(instance)

    def _send_accept(self, ballot: int, instance: int, value: Any) -> None:
        """Every Accept tells the acceptors the current floor."""
        self._floor_told = self.log_floor
        self.send_all(self.acceptors, Accept(ballot, instance, value, self.log_floor))

    def _on_accepted(self, sender: str, msg: Accepted) -> None:
        if msg.ballot != self.ballot:
            return
        proposal = self.proposals.get(msg.instance)
        if proposal is None or proposal[0] != msg.ballot:
            return
        votes = self._accept_votes.setdefault(msg.instance, set())
        votes.add(sender)
        if len(votes) >= self._quorum():
            value = proposal[1]
            self.send_all(self.peers, Decision(msg.instance, value))
            self._on_decision(msg.instance, value)

    # -- learning / delivery ------------------------------------------------------

    def _on_decision(self, instance: int, value: Any) -> None:
        # However the decision is learnt — our quorum of Accepteds, a
        # peer's Decision or LearnReply, the acceptors on recovery — our
        # own proposal for the instance has nothing left to win; kept, it
        # is retransmitted for ever to acceptors that have truncated it.
        proposal = self.proposals.pop(instance, None)
        if proposal is not None:
            self._accepts.done(instance)
            self._accept_votes.pop(instance, None)
            if proposal[1] is not value and proposal[1] != value:
                self._requeue(proposal[1])  # lost to a higher ballot
                self._time_forwards()
        # Below the floor: already delivered *and* truncated — a
        # re-proposal from a behind leader must not resurrect it.
        if instance >= self.log_floor and instance not in self.decided:
            self.decided[instance] = value
            self._deliver_ready()
        if proposal is not None:
            self._flush_pending()  # the instance's slot in the window is free

    def _deliver_ready(self) -> None:
        gap = self.next_deliver
        while self.next_deliver in self.decided:
            batch = self.decided[self.next_deliver]
            self.next_deliver += 1
            values = batch.values if isinstance(batch, Batch) else (batch,)
            self.values_delivered += len(values)
            for v in values:
                self._deliver_once(v)
            self._maybe_checkpoint()
        if self.next_deliver != gap:
            self._gaps.done(gap)

    def _repair_gap(self, sender: str, instance: int) -> None:
        """A Decision beyond the delivery frontier means an earlier one was
        lost (or overtaken): ask its sender for the gap at once and time
        the gap (:meth:`_learn_gap`) until delivery passes it."""
        low = self.next_deliver
        if low < instance and low not in self._gaps and self._fetching is None:
            self._gaps.arm(low)
            self.send(sender, LearnRequest(low, instance - 1))

    def _learn_gap(self, low: int) -> bool:
        """A gap still open after its timeout (the request or its answers
        were lost, or the sender crashed): ask every peer for everything
        from the gap to the highest decision known."""
        high = max(self._peer_max_decided, self.max_decided)
        self.send_all(self.peers, LearnRequest(low, high))
        return True

    def _deliver_once(self, value: Any) -> None:
        if isinstance(value, NoOp):
            return
        uid = getattr(value, "uid", None)
        if uid is not None:
            if not self.delivered_uids.add(uid):
                return
            # delivered_uids answers every later dedup question first.
            self.pending.pop(uid, None)
            self.proposed_uids.discard(uid)
            self._forwards.done(uid)
        self.deliver_value(value)

    def deliver_value(self, value: Any) -> None:
        """Exactly-once, in-order delivery point.  Subclasses override."""
        if self.on_deliver is not None:
            self.on_deliver(value)

    # -- heartbeats & failure detection ----------------------------------------------

    def _heartbeat_tick(self) -> None:
        """Every replica drops the group-stable prefix and reports its
        delivery frontier to its peers, the leader inside its heartbeat.
        The acceptors learn the floor from the Accepts; an idle leader,
        with no Accept to carry a floor that moved, sends them the
        heartbeat too."""
        self._truncate_stable_prefix()
        if not self.is_leader:
            self.send_all(self.peers, Frontier(self.next_deliver))
            return
        beat = Heartbeat(
            self.ballot, self.max_decided, self.next_deliver, self.log_floor
        )
        if self.log_floor > self._floor_told:
            self._floor_told = self.log_floor
            self.send_all(self.acceptors, beat)
        self.send_all(self.peers, beat)

    def _resend_accept(self, instance: int) -> bool:
        """An Accept without a quorum after its timeout (the Accept or an
        Accepted was lost): send it again to the acceptors that have not
        voted."""
        proposal = self.proposals.get(instance)
        if proposal is None or not self.is_leader:
            return False
        ballot, value = proposal
        votes = self._accept_votes[instance]
        accept = Accept(ballot, instance, value, self.log_floor)
        for acceptor in self.acceptors:
            if acceptor not in votes:
                self.send(acceptor, accept)
        return True

    def _on_heartbeat(self, sender: str, msg: Heartbeat) -> None:
        self._on_frontier(sender, msg.frontier)
        if msg.ballot >= self.ballot:
            if msg.ballot > self.ballot:
                self._adopt_ballot(msg.ballot)
            self._last_leader_contact = self.now
            self._peer_max_decided = max(self._peer_max_decided, msg.max_decided)

    def _leader_check_tick(self) -> None:
        """The failure detector's deadline, ``_suspect_after`` past the
        last contact with the leader.  If no contact came since it was
        armed, the leader is suspected and this replica claims the next
        ballot it leads; otherwise the timer moves to the new deadline
        (a leader re-arms one period ahead).  A poll of that period,
        which this replaced, suspected up to twice as late."""
        if self.is_leader:
            deadline = self.now + self._suspect_after
        else:
            deadline = self._last_leader_contact + self._suspect_after
            if self.now >= deadline - 1e-9:  # this instant, float rounding aside
                ballot = self.ballot + 1
                while self.leader_of(ballot) != self.name:
                    ballot += 1
                self._start_phase1(ballot)
                deadline = self.now + self._suspect_after
        self.set_timer(deadline - self.now, self._leader_check_tick)

    def _adopt_ballot(self, ballot: int) -> None:
        """Step down to follower state under a higher ballot."""
        self.ballot = ballot
        self._abandon_proposals()

    def _abandon_proposals(self) -> None:
        """Leadership ends (higher ballot, crash, new phase 1): drop the
        proposer bookkeeping.  In-flight values this replica never saw
        chosen may not have reached a quorum, so they go back to the head
        of ``pending`` for the next reign, and every buffered value is
        timed for forwarding; if a new leader also recovers them from the
        acceptors, delivery-time uid dedup absorbs the double proposal
        (values without a uid cannot be deduplicated and are left to the
        acceptors' copy alone)."""
        self.phase1_done = False
        self._promises.clear()
        self._prepares.clear()
        latest_first = sorted(self.proposals, reverse=True)
        self._requeue(*(self.proposals[instance][1] for instance in latest_first))
        self.proposals.clear()
        self._accepts.clear()
        self._accept_votes.clear()
        self._time_forwards()

    def _requeue(self, *batches: Batch) -> None:
        """The undelivered uid values of proposals that were not seen
        chosen (the latest instance first), back at the head of
        ``pending``, lowest instance first and each in its order."""
        front: dict = {}
        for batch in batches:
            for value in reversed(batch.values):
                uid = getattr(value, "uid", None)
                if uid is None or isinstance(value, NoOp) or uid in self.delivered_uids:
                    continue
                self.proposed_uids.discard(uid)
                if uid not in self.pending and uid not in front:
                    front[uid] = value
        if front:
            front = dict(reversed(front.items()))
            front.update(self.pending)
            self.pending = front

    def _time_forwards(self) -> None:
        """A follower times every buffered value for forwarding."""
        if self.is_leader:
            return
        for key, value in self.pending.items():
            if getattr(value, "uid", None) is not None:
                self._forwards.arm(key)

    def _forward(self, uid) -> bool:
        """A buffered submission still undelivered after its timeout: the
        leader's copy may be lost, so forward this one (the leader dedups
        by uid)."""
        value = self.pending.get(uid)
        if value is None:
            return False
        if self.is_leader:
            self._schedule_flush()
            return False
        leader = self.leader_of(self.ballot)
        if leader != self.name:  # else: a candidate, waiting for promises
            self.send(leader, Submit(value))
        return True

    def _on_nack(self, msg: Nack) -> None:
        if msg.ballot > self.ballot:
            self._adopt_ballot(msg.ballot)
            self._last_leader_contact = self.now

    # -- phase 1 (leader takeover) -------------------------------------------------------

    def _start_phase1(self, ballot: int) -> None:
        self.ballot = ballot
        self._abandon_proposals()
        self._last_leader_contact = self.now
        for acceptor in self.acceptors:
            self.send(acceptor, Prepare(ballot, self.next_deliver))
        # Never timed a Prepare: start from what it timed as a follower —
        # submit to delivery holds the leader's acceptor round trip.
        if self._forwards.srtt is not None:
            self._prepares.seed(self._forwards.srtt)
        self._prepares.arm(ballot)

    def _resend_prepare(self, ballot: int) -> bool:
        """A Prepare without a quorum of promises after its timeout (the
        Prepare or a Promise was lost): send it again, at the same
        ballot, to the acceptors that have not promised."""
        if ballot != self.ballot or self.phase1_done:
            return False
        prepare = Prepare(ballot, self.next_deliver)
        for acceptor in self.acceptors:
            if acceptor not in self._promises:
                self.send(acceptor, prepare)
        return True

    def _on_promise(self, sender: str, msg: Promise) -> None:
        if msg.ballot != self.ballot or self.phase1_done:
            return
        if self.leader_of(self.ballot) != self.name:
            return
        self._promises[sender] = msg
        if len(self._promises) < self._quorum():
            return
        self.phase1_done = True
        # The Prepare's round trip is the Accept's too: a new leader's
        # first Accept need not wait the estimator's cap.
        self._prepares.done(self.ballot)
        if self._prepares.srtt is not None:
            self._accepts.seed(self._prepares.srtt)
        self.tracer.record(
            "leader-elected", self.now,
            group=self.group, leader=self.name, ballot=self.ballot,
        )
        self._recover_instances()
        # Values buffered while following are now this leader's duty.
        self._forwards.clear()
        self._flush_pending()
        self.on_leadership()

    def on_leadership(self) -> None:
        """Hook run when this replica completes phase 1: what a leader
        alone re-sends is now its duty (subclasses)."""

    def _recover_instances(self) -> None:
        """Re-propose the highest-ballot accepted value for every in-flight
        instance reported by a quorum of acceptors; close gaps with no-ops."""
        merged: dict[int, tuple[int, Any]] = {}
        for promise in self._promises.values():
            for instance, (vballot, value) in promise.accepted.items():
                current = merged.get(instance)
                if current is None or vballot > current[0]:
                    merged[instance] = (vballot, value)
        # Below an acceptor's floor everything is chosen and forgotten: a
        # leader that far behind must not fill the gap with no-ops, it
        # learns those instances from its peers (or their snapshot).
        floor = max(p.truncated_below for p in self._promises.values())
        top = max(max(merged, default=-1), self.max_decided, floor - 1)
        for instance in range(max(self.next_deliver, floor), top + 1):
            if instance in self.decided:
                continue
            if instance in merged:
                self._propose(instance, merged[instance][1])
            else:
                self._propose(instance, Batch((NoOp(),)))
        # Not max(old, ...): instances an earlier reign of this replica
        # numbered but no acceptor of the quorum remembers are free again,
        # and skipping them would leave a hole nothing ever fills.
        self.next_instance = top + 1

    # -- crash recovery ---------------------------------------------------------------

    def _request_recovery(self) -> None:
        """Ask all acceptors for their accepted state from ``next_deliver``
        on; retries (with exponential backoff, capped) until a quorum
        replies for the current epoch."""
        self._recovery_epoch += 1
        self._recovering = True
        self._recovery_replies.clear()
        query = RecoverQuery(self._recovery_epoch, self.next_deliver)
        for acceptor in self.acceptors:
            self.send(acceptor, query)
        delay = min(
            self.config.recovery_retry * 2 ** self._recovery_attempts,
            self.config.recovery_retry_cap,
        )
        self.set_timer(delay, self._recovery_retry_tick)

    def _recovery_retry_tick(self) -> None:
        if self._recovering:
            self._recovery_attempts += 1
            self._request_recovery()

    def _on_recover_info(self, sender: str, msg: RecoverInfo) -> None:
        if not self._recovering or msg.epoch != self._recovery_epoch:
            return
        self._recovery_replies[sender] = msg
        if len(self._recovery_replies) < self._quorum():
            return
        self._recovering = False
        self._recovery_attempts = 0
        # Behind the acceptors' compaction floor: the missing prefix no
        # longer exists anywhere in the log — switch to snapshot transfer.
        floor = max(r.truncated_below for r in self._recovery_replies.values())
        if floor > self.next_deliver:
            if self._fetching is None:
                self._begin_snapshot_fetch(floor)
            return
        # A value accepted at the same (instance, ballot) by a quorum is
        # chosen — the Paxos invariant that at most one value can gain a
        # quorum per ballot makes value comparison unnecessary.
        votes: dict[tuple[int, int], int] = {}
        values: dict[tuple[int, int], Any] = {}
        for reply in self._recovery_replies.values():
            for instance, (vballot, value) in reply.accepted.items():
                key = (instance, vballot)
                votes[key] = votes.get(key, 0) + 1
                values[key] = value
        for (instance, _vballot), count in sorted(votes.items()):
            if count >= self._quorum() and instance not in self.decided:
                self._on_decision(instance, values[(instance, _vballot)])
        # Anything accepted by fewer acceptors (still in flight, or already
        # chosen but not quorum-visible here) is recovered by the normal
        # peer catch-up / leader-takeover paths.

    # -- catch-up --------------------------------------------------------------------

    def _catchup_tick(self) -> None:
        """The backstop for any open gap, timed by :meth:`_learn_gap` or
        not, and for a peer heartbeat showing decisions this replica never
        heard of (its Decisions were lost, or it was down)."""
        behind = max(self._peer_max_decided, self.max_decided)
        if (
            self._fetching is None
            and behind >= self.next_deliver
            and self.next_deliver not in self.decided
        ):
            self.send_all(self.peers, LearnRequest(self.next_deliver, behind))

    def _on_learn_request(self, sender: str, msg: LearnRequest) -> None:
        if msg.low < self.log_floor:
            # The requested prefix was compacted away; point the peer at
            # snapshot transfer instead of leaving it to retry forever.
            self.send(sender, LogTruncated(self.log_floor))
        for instance in range(max(msg.low, self.log_floor), msg.high + 1):
            if instance in self.decided:
                self.send(sender, Decision(instance, self.decided[instance]))

    # -- checkpointing ---------------------------------------------------------------

    def capture_app_state(self) -> dict:
        """Named state sections for a checkpoint (see
        :mod:`repro.recovery.checkpoint`).  Every entry must be the
        deterministic product of delivering the log prefix — captured in
        canonical (sorted) form, sharing nothing that is mutated later.
        Subclass overrides extend the dict with their own sections."""
        return {
            "paxos.state": {
                "delivered_uids": self.delivered_uids.capture(),
            },
        }

    def install_app_state(self, sections: dict) -> None:
        """Inverse of :meth:`capture_app_state`."""
        state = sections.get("paxos.state", {})
        self.delivered_uids.install(state.get("delivered_uids", {}))
        # What the snapshot delivered is nobody's to propose or forward.
        for uid in [uid for uid in self.pending if uid in self.delivered_uids]:
            del self.pending[uid]
            self._forwards.forget(uid)

    def on_checkpoint(self, watermark: int) -> None:
        """Hook run just before state capture (subclasses prune
        checkpoint-aware retention buffers here)."""

    def _maybe_checkpoint(self) -> None:
        interval = self.config.checkpoint_interval
        if (
            interval <= 0
            or self.next_deliver % interval != 0
            or self.next_deliver <= self.checkpoint_watermark
        ):
            return
        self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Checkpoint the application state at the current delivery
        frontier.  The watermark is a deterministic function of the log
        (a multiple of the interval), so every replica checkpoints at
        identical log positions regardless of message timing."""
        watermark = self.next_deliver
        self.on_checkpoint(watermark)
        record = CheckpointRecord(watermark, self.capture_app_state())
        self._register_checkpoint(record)
        self.tracer.record(
            "checkpoint", self.now,
            group=self.group, replica=self.name,
            watermark=watermark, items=record.total_items,
        )
        self._count("checkpoint", group=self.group)

    def _register_checkpoint(self, record: CheckpointRecord) -> None:
        """Make ``record`` the newest servable snapshot (keeping one
        predecessor, so an in-flight transfer survives the turnover)."""
        self.last_checkpoint = record
        self.checkpoint_watermark = record.watermark
        self._checkpoint_id = f"{self.name}@{record.watermark}"
        self._served_snapshots[self._checkpoint_id] = (
            record.watermark,
            flatten_sections(record.sections),
        )
        while len(self._served_snapshots) > 2:
            oldest = min(
                self._served_snapshots, key=lambda k: self._served_snapshots[k][0]
            )
            del self._served_snapshots[oldest]

    # -- log truncation ---------------------------------------------------------------

    def _on_frontier(self, peer: str, frontier: int) -> None:
        known = self._peer_frontiers.get(peer, (0, 0.0))[0]
        self._peer_frontiers[peer] = (max(known, frontier), self.now)
        self._truncate_stable_prefix()

    def _stable_floor(self) -> int:
        """The group-stable watermark: every replica has delivered the
        instances below the minimum of the reported frontiers, so nobody
        will ask for them again.  A reported frontier is a lower bound
        (``next_deliver`` survives a crash and never goes back), so a
        silent peer holds the floor where it stood; past ``WATERMARK_TTL``
        no higher than this replica's newest checkpoint, through which
        it then comes back.  Without checkpoints that watermark is 0 and
        a silent peer pins the log, like a crashed replica always did."""
        floor = self.next_deliver
        horizon = self.now - WATERMARK_TTL
        for frontier, heard_at in self._peer_frontiers.values():
            if heard_at < horizon:
                frontier = max(frontier, self.checkpoint_watermark)
            floor = min(floor, frontier)
        return floor

    def _truncate_stable_prefix(self) -> None:
        """Drop ``decided`` below the stable floor; the acceptors learn
        it from the leader's next Accept.  Runs every heartbeat period:
        counted, never traced."""
        floor = self._stable_floor()
        if floor <= self.log_floor:
            return
        dropped = 0
        for instance in range(self.log_floor, floor):
            if self.decided.pop(instance, None) is not None:
                dropped += 1
        self.log_floor = floor
        self._count("log_truncated", group=self.group)
        self._count("log_instances_dropped", dropped, group=self.group)

    # -- snapshot transfer (provider side) --------------------------------------------

    def _on_snapshot_request(self, sender: str, msg: SnapshotRequest) -> None:
        if self.last_checkpoint is None or self._fetching is not None:
            return  # nothing to offer, or recovering ourselves
        record = self.last_checkpoint
        self.send(
            sender,
            SnapshotMeta(
                msg.epoch,
                self._checkpoint_id,
                record.watermark,
                record.total_items,
            ),
        )

    def _on_snapshot_chunk_request(self, sender: str, msg: SnapshotChunkRequest) -> None:
        served = self._served_snapshots.get(msg.snapshot_id)
        if served is None:
            # Superseded snapshot: stay silent; the requester times out
            # and re-discovers, landing on the current checkpoint.
            return
        watermark, items = served
        window = tuple(items[msg.offset : msg.offset + msg.count])
        self._count("snapshot_chunks_served", group=self.group)
        self.send(
            sender,
            SnapshotChunk(
                msg.snapshot_id, watermark, msg.offset, window, len(items)
            ),
        )

    # -- snapshot transfer (requester side) -------------------------------------------

    @property
    def snapshot_trace_id(self) -> str:
        return f"snapshot:{self.name}:{self._snapshot_epoch}"

    def _begin_snapshot_fetch(self, min_watermark: int) -> None:
        """Start (or restart, under a fresh epoch) snapshot discovery:
        ask every peer replica for an offer and poll until one answers
        with a usable watermark."""
        self._snapshot_epoch += 1
        self._gaps.clear()  # the snapshot closes them
        self._fetching = SnapshotFetch(epoch=self._snapshot_epoch)
        self.tracer.begin(
            self.snapshot_trace_id, "snapshot-transfer", self.now,
            group=self.group, replica=self.name, behind=min_watermark,
        )
        self._count("snapshot_fetches", group=self.group)
        self.send_all(self.peers, SnapshotRequest(self._snapshot_epoch))
        self._arm_snapshot_timer(self._fetching)

    def _arm_snapshot_timer(self, fetch: SnapshotFetch) -> None:
        fetch.requested_at = self.now
        epoch = fetch.epoch
        offset = fetch.offset
        self.set_timer(
            transfer.SNAPSHOT_RETRY,
            lambda: self._snapshot_retry_tick(epoch, offset),
        )

    def _snapshot_retry_tick(self, epoch: int, offset: int) -> None:
        fetch = self._fetching
        if fetch is None or fetch.epoch != epoch:
            return
        if fetch.provider is not None and fetch.offset != offset:
            return  # progress was made; a newer timer covers the transfer
        fetch.timeouts += 1
        if fetch.discovering:
            # No offer yet: re-broadcast the request under the same epoch.
            self.send_all(self.peers, SnapshotRequest(epoch))
            self._arm_snapshot_timer(fetch)
            return
        if fetch.timeouts >= transfer.SNAPSHOT_GIVEUP:
            # Provider presumed crashed mid-transfer: abandon the download
            # and re-discover from scratch under a new epoch.
            self.tracer.event_on(
                self.snapshot_trace_id, "snapshot-transfer", None,
                "provider-lost", self.now,
                provider=fetch.provider, offset=fetch.offset,
            )
            self.tracer.finish(
                self.snapshot_trace_id, "snapshot-transfer", self.now,
                status="restarted",
            )
            self._count("snapshot_restarts", group=self.group)
            self._begin_snapshot_fetch(fetch.watermark)
            return
        # Lost request or lost chunk: retransmit, with a smaller window.
        fetch.chunker.shrink()
        self._count("snapshot_chunk_retries", group=self.group)
        self._request_chunk(fetch)

    def _on_snapshot_meta(self, sender: str, msg: SnapshotMeta) -> None:
        fetch = self._fetching
        if (
            fetch is None
            or msg.epoch != fetch.epoch
            or not fetch.discovering
            or msg.watermark <= self.next_deliver
        ):
            return  # stale offer, or one that would not move us forward
        fetch.provider = sender
        fetch.snapshot_id = msg.snapshot_id
        fetch.watermark = msg.watermark
        fetch.total_items = msg.total_items
        fetch.timeouts = 0
        self.tracer.event_on(
            self.snapshot_trace_id, "snapshot-transfer", None,
            "offer-accepted", self.now,
            provider=sender, watermark=msg.watermark, items=msg.total_items,
        )
        if msg.total_items == 0:
            self._install_snapshot(fetch)
            return
        self._request_chunk(fetch)

    def _request_chunk(self, fetch: SnapshotFetch) -> None:
        self.send(
            fetch.provider,
            SnapshotChunkRequest(
                fetch.snapshot_id, fetch.offset, fetch.chunker.count
            ),
        )
        self._arm_snapshot_timer(fetch)

    def _on_snapshot_chunk(self, sender: str, msg: SnapshotChunk) -> None:
        fetch = self._fetching
        if (
            fetch is None
            or msg.snapshot_id != fetch.snapshot_id
            or msg.offset != fetch.offset
        ):
            return  # duplicate or superseded chunk
        rtt = self.now - fetch.requested_at
        fetch.chunker.observe(rtt)
        fetch.items.extend(msg.items)
        fetch.offset += len(msg.items)
        fetch.timeouts = 0
        fetch.chunks += 1
        self._count("snapshot_chunks", group=self.group)
        self.tracer.event_on(
            self.snapshot_trace_id, "snapshot-transfer", None,
            "chunk", self.now,
            offset=msg.offset, count=len(msg.items), rtt=rtt,
            next_count=fetch.chunker.count,
        )
        if fetch.complete:
            self._install_snapshot(fetch)
        elif msg.items:
            self._request_chunk(fetch)
        else:  # defensive: empty window short of the total — re-poll
            self._arm_snapshot_timer(fetch)

    def _install_snapshot(self, fetch: SnapshotFetch) -> None:
        """Adopt the downloaded checkpoint: jump the delivery frontier to
        its watermark, install the state sections, then re-run normal
        recovery for the log suffix."""
        watermark = fetch.watermark
        record = CheckpointRecord(watermark, assemble_sections(fetch.items))
        self._fetching = None
        for instance in range(self.log_floor, watermark):
            self.decided.pop(instance, None)
        self.next_deliver = watermark
        self.log_floor = watermark
        self.next_instance = max(self.next_instance, watermark)
        self.install_app_state(record.sections)
        # The installed state doubles as this replica's own checkpoint:
        # it can serve snapshots immediately.
        self._register_checkpoint(record)
        self.tracer.finish(
            self.snapshot_trace_id, "snapshot-transfer", self.now,
            status="installed", watermark=watermark,
            chunks=fetch.chunks, items=len(fetch.items),
        )
        self._count("snapshot_recoveries", group=self.group)
        self.tracer.record(
            "snapshot-installed", self.now,
            group=self.group, replica=self.name,
            watermark=watermark, provider=fetch.provider,
        )
        # Decisions above the watermark may already be buffered; drain.
        self._deliver_ready()
        # Re-sync whatever suffix the acceptors still hold.
        self._request_recovery()

    def _on_log_truncated(self, sender: str, msg: LogTruncated) -> None:
        """A peer compacted past our delivery frontier: normal catch-up
        can never close the gap, so switch to snapshot transfer (unless a
        download is already running)."""
        if msg.watermark <= self.next_deliver or self._fetching is not None:
            return
        self._recovering = False
        self._begin_snapshot_fetch(msg.watermark)
