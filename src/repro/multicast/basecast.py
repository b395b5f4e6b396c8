"""BaseCast: genuine atomic multicast over Multi-Paxos groups.

Every group runs a deterministic Skeen state machine *inside* its Paxos
log: both local ordering events and remote-timestamp events are consensus
log entries, so all replicas of a group advance the same logical clock at
the same log position and compute identical final timestamps.

Message lifecycle for ``m`` with destinations {g, h}:

1. The sender submits ``OrderEvent(m)`` to both groups (to every replica;
   uid-dedup makes this idempotent and leader-crash tolerant).  What a
   group remembers of ``m`` afterwards is its ``key`` — the number the
   sender gave it within its stream — in a
   :class:`~repro.consensus.rangeset.RangeSet`.
2. When group ``g`` delivers ``OrderEvent(m)`` from its log it assigns
   local timestamp ``ts_g = ++clock``; its leader sends ``RemoteTs`` to
   the replicas of every other destination group.
3. A replica receiving ``RemoteTs`` resubmits it to its own group's log
   as a ``TsEvent``; on delivery the group records the remote timestamp
   and bumps ``clock = max(clock, ts)``.
4. Once a group knows the timestamps of all destination groups, the final
   timestamp is their max.  Messages are a-delivered in ``(final_ts,
   uid)`` order once no pending message could precede them.

Single-group messages skip steps 2-3: their local timestamp is final,
which is why single-partition DynaStar commands are fundamentally cheaper
than multi-partition ones.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.consensus.group import GroupConfig, PaxosGroup
from repro.consensus.messages import Submit
from repro.consensus.paxos import PaxosReplica, ReplicaConfig
from repro.consensus.rangeset import RangeSet
from repro.multicast.messages import MulticastMessage, OrderEvent, RemoteTs, TsEvent, TsProbe
from repro.sim.network import Network
from repro.sim.rto import Retransmitter


@dataclass
class _Pending:
    """Per-message Skeen bookkeeping inside one group."""

    message: MulticastMessage
    local_ts: int
    ts_from: dict = field(default_factory=dict)

    @property
    def final_ts(self) -> Optional[int]:
        if len(self.ts_from) == len(self.message.dests):
            return max(self.ts_from.values())
        return None

    @property
    def effective_ts(self) -> int:
        """Lower bound on the final timestamp (== final once complete)."""
        final = self.final_ts
        return final if final is not None else max(self.ts_from.values(), default=self.local_ts)


class _Stamps:
    """This group's timestamps of the multi-group messages it a-delivered,
    by message key (``MulticastMessage.key``).  A stream's numbers are
    dense, so its timestamps are a packed array indexed by number (8 bytes
    each; 0 = none); a message without a number, or one a-delivered late
    below its stream's last :meth:`prune` mark, is kept in a dict.

    :meth:`prune` drops what was already kept at its previous call —
    two-generation retention, run at checkpoints."""

    def __init__(self):
        #: stream -> [first number in the array, array of timestamps]
        self._streams: dict[tuple, list] = {}
        self._other: dict = {}
        #: At the last prune: where each stream's array ended, and the
        #: keys of ``_other`` — what the next prune drops.
        self._marks: dict[tuple, int] = {}
        self._old: set = set()

    def __len__(self) -> int:
        arrays = sum(len(a) - a.count(0) for _, a in self._streams.values())
        return arrays + len(self._other)

    def __setitem__(self, key, ts: int) -> None:
        if type(key) is tuple and key[1] >= self._marks.get(key[0], 0):
            stream, n = key
            entry = self._streams.get(stream)
            if entry is None:
                entry = self._streams[stream] = [0, array("q")]
            stamps = entry[1]
            index = n - entry[0]
            if index >= len(stamps):
                stamps.extend(bytes(8 * (index + 1 - len(stamps))))
            stamps[index] = ts
        else:
            self._other[key] = ts

    def get(self, key) -> Optional[int]:
        if type(key) is tuple:
            entry = self._streams.get(key[0])
            if entry is not None and 0 <= key[1] - entry[0] < len(entry[1]):
                ts = entry[1][key[1] - entry[0]]
                if ts:
                    return ts
        return self._other.get(key)

    def prune(self) -> None:
        for stream, entry in self._streams.items():
            mark = self._marks.get(stream, entry[0])
            del entry[1][: mark - entry[0]]
            entry[0] = mark
        self._marks = {s: first + len(a) for s, (first, a) in self._streams.items()}
        for key in self._old:
            self._other.pop(key, None)
        self._old = set(self._other)

    def capture(self) -> dict:
        return {
            "streams": sorted(
                ((s, first, a.tolist()) for s, (first, a) in self._streams.items()),
                key=repr,
            ),
            "other": sorted(self._other.items(), key=repr),
            "marks": sorted(self._marks.items(), key=repr),
            "old": sorted(self._old, key=repr),
        }

    def install(self, state: dict) -> None:
        self._streams = {
            stream: [first, array("q", stamps)]
            for stream, first, stamps in state.get("streams", ())
        }
        self._other = dict(state.get("other", ()))
        self._marks = dict(state.get("marks", ()))
        self._old = set(state.get("old", ()))


class MulticastReplica(PaxosReplica):
    """A Paxos replica that additionally runs the group's Skeen machine.

    Applications receive a-delivered messages through :meth:`adeliver`
    (override in subclasses) or the ``on_adeliver`` callback.
    """

    def __init__(self, *args, on_adeliver: Optional[Callable[[MulticastMessage], None]] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_adeliver = on_adeliver
        self.clock = 0
        self.pending_msgs: dict[str, _Pending] = {}
        #: Keys (``MulticastMessage.key``) of the messages a-delivered.
        self.adelivered_uids = RangeSet()
        #: This group's timestamp of each multi-group message it
        #: a-delivered, to answer a peer group's probe (:meth:`_answer_probe`).
        self._adelivered_ts = _Stamps()
        self.adelivered_count = 0
        #: dests -> how many numbered messages this *group* has sent there.
        self._sent: dict[tuple, int] = {}
        self._early_ts_store: dict[str, dict[str, int]] = {}
        self._directory: Optional["GroupDirectory"] = None
        #: The leader times each multi-group message it announced a
        #: timestamp for, until every destination's timestamp is known.
        self._ts_probes = Retransmitter(self, self._probe_stalled, "remote_ts")

    # -- wiring ---------------------------------------------------------------

    def attach_directory(self, directory: "GroupDirectory") -> None:
        """Give this replica the group-name -> replica-names map it needs
        to exchange timestamps with other groups."""
        self._directory = directory

    def next_number(self, dests: tuple) -> int:
        """The number of this group's next message to ``dests``.  It is
        replicated state: draw it at a log position only, so that every
        replica numbers the same message alike."""
        n = self._sent.get(dests, 0)
        self._sent[dests] = n + 1
        return n

    def crash(self) -> None:
        super().crash()
        self._ts_probes.clear()

    def on_leadership(self) -> None:
        """A new leader takes over the stalled messages of the group."""
        super().on_leadership()
        for entry in self.pending_msgs.values():
            if not entry.message.is_single_group and entry.final_ts is None:
                self._ts_probes.arm(entry.message.uid)

    # -- checkpointing --------------------------------------------------------

    def on_checkpoint(self, watermark: int) -> None:
        """Checkpoint-aware timestamp retention: `_adelivered_ts` entries
        exist only to answer the probes (:class:`TsProbe`) of peer groups
        whose copy of our RemoteTs was lost.  Such probes arrive
        within retransmission timescales, so entries that have survived a
        full checkpoint interval are dropped — memory stays bounded by
        the interval instead of growing with every multi-group message.
        Pruning happens at a log watermark, so replicas prune in step."""
        super().on_checkpoint(watermark)
        self._adelivered_ts.prune()

    def capture_app_state(self) -> dict:
        state = super().capture_app_state()
        state["mcast.state"] = {
            "clock": self.clock,
            # Messages are immutable dataclasses shared within the sim,
            # so references are safe to ship; per-message Skeen
            # bookkeeping is re-materialized on install.
            "pending": [
                (uid, entry.message, entry.local_ts, sorted(entry.ts_from.items()))
                for uid, entry in sorted(self.pending_msgs.items())
            ],
            "adelivered_uids": self.adelivered_uids.capture(),
            "adelivered_ts": self._adelivered_ts.capture(),
            "adelivered_count": self.adelivered_count,
            "sent": sorted(self._sent.items()),
            "early_ts": [
                (uid, sorted(per_group.items()))
                for uid, per_group in sorted(self._early_ts_store.items())
            ],
        }
        return state

    def install_app_state(self, sections: dict) -> None:
        super().install_app_state(sections)
        state = sections.get("mcast.state", {})
        self.clock = state.get("clock", 0)
        self.pending_msgs = {
            uid: _Pending(message=message, local_ts=local_ts, ts_from=dict(ts_from))
            for uid, message, local_ts, ts_from in state.get("pending", ())
        }
        self.adelivered_uids.install(state.get("adelivered_uids", {}))
        self._adelivered_ts.install(state.get("adelivered_ts", {}))
        self.adelivered_count = state.get("adelivered_count", 0)
        self._sent = dict(state.get("sent", ()))
        self._early_ts_store = {
            uid: dict(per_group) for uid, per_group in state.get("early_ts", ())
        }

    # -- log delivery (the deterministic Skeen machine) --------------------------

    def deliver_value(self, value: Any) -> None:
        if isinstance(value, OrderEvent):
            self._on_order_event(value.message)
        elif isinstance(value, TsEvent):
            self._on_ts_event(value)
        else:
            super().deliver_value(value)

    def _on_order_event(self, msg: MulticastMessage) -> None:
        if msg.key in self.adelivered_uids or msg.uid in self.pending_msgs:
            return
        self.clock += 1
        entry = _Pending(message=msg, local_ts=self.clock)
        entry.ts_from[self.group] = self.clock
        self.pending_msgs[msg.uid] = entry
        self._trace_ordered(msg, self.clock)
        if not msg.is_single_group:
            self._send_ts(entry)
        self._try_adeliver()

    def _trace_ordered(self, msg: MulticastMessage, ts: int) -> None:
        """Stamp an "ordered" event on the command's in-flight span when
        its OrderEvent clears this group's log (one replica per group
        records, like metrics).  Command payloads annotate their
        ``multicast-order`` span; oracle queries their ``oracle-lookup``
        span.  ``event_on`` is a no-op when the span is not open."""
        if self.index != 0 or not self.tracer.enabled:
            return
        payload = msg.payload
        command = getattr(payload, "command", None)
        attempt = getattr(payload, "attempt", None)
        if command is None or attempt is None:
            return
        # OracleQuery is the only traced payload with a ``dispatch`` flag.
        span = "oracle-lookup" if hasattr(payload, "dispatch") else "multicast-order"
        self.tracer.event_on(
            command.uid, span, attempt, "ordered", self.now,
            group=self.group, local_ts=ts,
        )

    def _on_ts_event(self, event: TsEvent) -> None:
        entry = self.pending_msgs.get(event.msg_uid)
        if entry is None:
            # Either already a-delivered, or the remote ts arrived before
            # our own OrderEvent; buffer by re-checking once ordered.
            if event.msg_key not in self.adelivered_uids:
                early = self._early_ts_store.setdefault(event.msg_uid, {})
                early[event.from_group] = event.ts
            self.clock = max(self.clock, event.ts)
            return
        entry.ts_from[event.from_group] = event.ts
        self.clock = max(self.clock, event.ts)
        if entry.final_ts is not None:
            self._ts_probes.done(event.msg_uid)
        self._try_adeliver()

    def _send_ts(self, entry: _Pending) -> None:
        """Take in the remote timestamps that were ordered before our
        OrderEvent and ship this group's to the other destinations."""
        msg = entry.message
        early = self._early_ts_store.pop(msg.uid, None)
        if early:
            for from_group, ts in early.items():
                entry.ts_from[from_group] = ts
                self.clock = max(self.clock, ts)
        self._announce_ts(msg, entry.ts_from[self.group])
        if self.is_leader and entry.final_ts is None:
            self._ts_probes.arm(msg.uid)

    def _announce_ts(self, msg: MulticastMessage, ts: int) -> None:
        """This group's timestamp for ``msg`` to every replica of its
        other destination groups.  Only the current leader sends
        (followers would duplicate); a new leader times what is still
        missing (:meth:`on_leadership`)."""
        if not self.is_leader or self._directory is None:
            return
        notice = RemoteTs(msg.uid, self.group, ts, msg.key)
        for dest_group in msg.dests:
            if dest_group != self.group:
                for replica in self._directory.replicas_of(dest_group):
                    self.send(replica, notice)

    def _probe_stalled(self, uid: str) -> bool:
        """A message still missing a destination's timestamp after its
        timeout.  Either a ``RemoteTs`` was lost, or — worse — a
        destination group never received the OrderEvent at all, so it
        will never produce a timestamp and the min-pending gate wedges
        *every* group.  The leader therefore re-sends its own RemoteTs to
        the other destinations and a :class:`TsProbe` to every replica of
        those whose timestamp is missing (:meth:`_answer_probe`)."""
        entry = self.pending_msgs.get(uid)
        if (
            entry is None
            or entry.final_ts is not None
            or not self.is_leader
            or self._directory is None
        ):
            return False
        msg = entry.message
        notice = RemoteTs(msg.uid, self.group, entry.ts_from[self.group], msg.key)
        probe = TsProbe(msg)
        for dest_group in msg.dests:
            if dest_group != self.group:
                for replica in self._directory.replicas_of(dest_group):
                    self.send(replica, notice)
                    if dest_group not in entry.ts_from:
                        self.send(replica, probe)
        return True

    def _answer_probe(self, sender: str, msg: MulticastMessage) -> None:
        """A replica that knows this group's timestamp for ``msg`` (pending,
        or a-delivered and retained) answers the prober: it is the
        leader's too (DESIGN.md §5).  Otherwise it submits ``msg``."""
        entry = self.pending_msgs.get(msg.uid)
        if entry is not None:
            ts = entry.ts_from[self.group]
        elif msg.key in self.adelivered_uids:
            ts = self._adelivered_ts.get(msg.key)
            if ts is None:
                return  # pruned two checkpoints after: answered long ago
        else:
            self.submit(OrderEvent(msg))
            return
        self.send(sender, RemoteTs(msg.uid, self.group, ts, msg.key))

    # -- replica-to-replica timestamps -------------------------------------------

    def on_other_message(self, sender: str, message: Any) -> None:
        if isinstance(message, RemoteTs):
            # Route through our own log so every replica of this group
            # processes the timestamp at the same log position.
            event = TsEvent(
                message.msg_uid, message.from_group, message.ts, message.msg_key
            )
            if event.uid not in self.delivered_uids:
                self.submit(event)
        elif isinstance(message, TsProbe):
            self._answer_probe(sender, message.message)
        else:
            self.on_app_message(sender, message)

    def on_app_message(self, sender: str, message: Any) -> None:
        """Hook for layers above the multicast (DynaStar servers)."""

    # -- a-delivery ------------------------------------------------------------------

    def _try_adeliver(self) -> None:
        while self.pending_msgs:
            head = min(
                self.pending_msgs.values(),
                key=lambda e: (e.effective_ts, e.message.uid),
            )
            if head.final_ts is None:
                return
            del self.pending_msgs[head.message.uid]
            self.adelivered_uids.add(head.message.key)
            if not head.message.is_single_group:
                # Keep our timestamp: a peer group whose copy of our
                # RemoteTs was lost may probe after we dropped the
                # pending entry, and we must still be able to answer.
                self._adelivered_ts[head.message.key] = head.ts_from[self.group]
            self.adelivered_count += 1
            self.adeliver(head.message)

    def adeliver(self, msg: MulticastMessage) -> None:
        """A-delivery point; subclasses or the callback consume messages."""
        if self.on_adeliver is not None:
            self.on_adeliver(msg)


class MulticastGroup(PaxosGroup):
    """A Paxos group whose replicas run the multicast state machine."""

    def __init__(
        self,
        name: str,
        network: Network,
        config: Optional[GroupConfig] = None,
        replica_factory=None,
        on_adeliver: Optional[Callable[[str, MulticastMessage], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        def factory(**kwargs):
            callback = None
            if on_adeliver is not None:
                rep_name = kwargs["name"]
                callback = lambda m, rep_name=rep_name: on_adeliver(rep_name, m)
            cls = replica_factory or MulticastReplica
            kwargs.pop("on_deliver", None)
            return cls(on_adeliver=callback, **kwargs)

        super().__init__(name, network, config=config, replica_factory=factory, rng=rng)


class GroupDirectory:
    """Registry of multicast groups plus the sender-side a-mcast API."""

    def __init__(self, network: Network):
        self.network = network
        self.groups: dict[str, MulticastGroup] = {}
        self._seq = itertools.count()
        #: stream -> numbers given out (senders that are one actor).
        self._sent: dict[tuple, int] = {}
        #: Optional ingress hook (compartmentalized mode): called as
        #: ``submit_router(group_name, message)`` and returns the actor
        #: names that should receive the Submit instead of the group's
        #: replicas, or ``None`` for the default fan-out.  Installed by
        #: the system builder so this layer stays ignorant of the stage
        #: actors above it.
        self.submit_router = None

    def add(self, group: MulticastGroup) -> MulticastGroup:
        self.groups[group.name] = group
        for replica in group.replicas:
            replica.attach_directory(self)
        return group

    def create_group(
        self,
        name: str,
        config: Optional[GroupConfig] = None,
        replica_factory=None,
        on_adeliver=None,
        rng=None,
    ) -> MulticastGroup:
        group = MulticastGroup(
            name,
            self.network,
            config=config,
            replica_factory=replica_factory,
            on_adeliver=on_adeliver,
            rng=rng,
        )
        return self.add(group)

    def replicas_of(self, group_name: str) -> list[str]:
        return self.groups[group_name].replica_names

    def group_names(self) -> list[str]:
        return list(self.groups)

    def start(self) -> None:
        for group in self.groups.values():
            group.start()

    # -- sending -----------------------------------------------------------

    def make_message(
        self,
        dests,
        payload: Any,
        uid: Optional[str] = None,
        sender: str = "",
        n: Optional[int] = None,
    ) -> MulticastMessage:
        """Build a message.  Called once per uid by a ``sender`` that is
        one actor, the message gets the next number of the stream
        ``(sender, dests)``; a sender that is a replicated group passes
        the ``n`` its replicas agree on
        (:meth:`MulticastReplica.next_number`).  Without a sender the
        message has no number and is remembered by uid."""
        if uid is None:
            uid = f"m{next(self._seq)}"
        dests = tuple(sorted(dests))
        if sender and n is None:
            stream = (sender, dests)
            n = self._sent.get(stream, 0)
            self._sent[stream] = n + 1
        return MulticastMessage(uid, dests, payload, sender, n)

    def amcast(self, sender, message: MulticastMessage) -> None:
        """Atomically multicast ``message`` from actor ``sender``: submit
        an OrderEvent to every replica of every destination group (or to
        the group's ingress stage when a submit router is installed)."""
        event = OrderEvent(message)
        for group_name in message.dests:
            if self.submit_router is not None:
                routed = self.submit_router(group_name, message)
                if routed is not None:
                    for dest in routed:
                        sender.send(dest, Submit(event))
                    continue
            for replica in self.replicas_of(group_name):
                sender.send(replica, Submit(event))

    def amcast_local(self, from_replica: MulticastReplica, message: MulticastMessage) -> None:
        """a-mcast issued by a replica itself (e.g. the oracle multicasting
        a partitioning plan): local group submits directly, remote groups
        get Submit messages."""
        event = OrderEvent(message)
        for group_name in message.dests:
            if group_name == from_replica.group:
                from_replica.submit(event)
            else:
                for replica in self.replicas_of(group_name):
                    from_replica.send(replica, Submit(event))
