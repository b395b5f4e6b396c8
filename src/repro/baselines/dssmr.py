"""DS-SMR: dynamic SMR with naive permanent migration.

:class:`DSSMRServer` replaces the two halves of DynaStar's borrow/return
with a one-way move: on every multi-partition command the source ships
*every* variable of the nodes it holds and gives up their ownership,
the target adopts them and executes, and nothing travels home (the
oracle, ``mode="dssmr"``, records the new locations).  With skewed,
non-perfectly-partitionable workloads the same nodes ping-pong between
partitions, which is the pathology DynaStar's workload-graph
partitioning avoids.

A source that has shipped is done with the command and with the nodes,
so nothing may ever be bounced back to it: a target that will not
execute the attempt (it is stale, or some source is) still waits for
every source's answer and *adopts* what was shipped — at the command's
log position, so its replicas adopt alike — exactly where a successful
attempt would have left the nodes (DESIGN.md §5, "DS-SMR: a one-way
move has no way back").

Traced runs (``SystemConfig(tracing=True)``) reuse the DynaStar span
vocabulary: the permanent migration shows up as a ``borrow`` span
tagged ``permanent=True`` and — since the variables never travel home —
no ``return`` span.
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import GlobalCommand, VarTransfer
from repro.core.server import PartitionServer
from repro.core.system import DynaStarSystem, SystemConfig


class DSSMRServer(PartitionServer):
    """Partition server whose multi-partition moves are permanent."""

    sends_hints = False

    #: A multi-partition command hands its nodes over for good, and with
    #: them every variable they hold, named by the command or not: it
    #: changes ownership like a plan does, so like a plan it is a barrier
    #: of the scheduler — nothing passes it while it gathers, whatever
    #: the lane count.
    moves_are_final = True

    def _global_as_source(self, payload: GlobalCommand, rec) -> bool:
        """Ship every variable of the claimed nodes to the target and
        relinquish ownership; the command is over for this partition."""
        claimed = payload.nodes_at(self.partition)
        pairs = []
        for node in claimed:
            for var in list(self.node_vars.get(node, ())):
                pairs.append((var, self.store.take(var)))
                self._unindex_var(var)
            self.owned_nodes.discard(node)
            self.last_plan[node] = payload.target
        if self.tracer.enabled:
            self.tracer.event_on(
                payload.command.uid, "borrow", payload.attempt,
                "var-transfer-sent", self.now,
                source=self.partition, variables=len(pairs), permanent=True,
            )
        self._send_to_partition(
            payload.target,
            VarTransfer(
                payload.command.uid,
                self.partition,
                tuple(pairs),
                payload.attempt,
                self.clients.export_nodes(claimed),
            ),
            uid=f"vt:{payload.command.uid}:{payload.attempt}:{self.partition}",
        )
        if self._records_metrics:
            self._pseries("objects").record(self.now, len(pairs))
            self.monitor.counter("objects_exchanged").inc(len(pairs))
        return True

    def _try_global(self, payload: GlobalCommand) -> bool:
        """As in DynaStar, except that a target which will not execute
        the attempt keeps it queued until every source has answered,
        then adopts what they shipped."""
        rec = self._attempt((payload.command.uid, payload.attempt))
        if not rec.sent:
            if not super()._try_global(payload):
                return False
            if not rec.sent:
                return True  # executed here, or shipped from here
        answered = rec.transfers.keys() | set(rec.failed)
        if not answered >= set(payload.involved()) - {self.partition}:
            return False
        self._adopt(payload, rec.transfers)
        return True

    def _close_aborted_target(self, payload: GlobalCommand) -> None:
        """Every way a target ends an attempt without executing it comes
        through here.  Nothing is bounced and no tombstone is left:
        ``sent`` — a source's field, free at the target — marks the
        attempt as answered, and :meth:`_try_global` closes it once the
        sources have answered too."""
        self._attempts[(payload.command.uid, payload.attempt)].sent = True

    def _adopt(self, payload: GlobalCommand, transfers: dict) -> None:
        """The nodes the shipping sources gave up settle here."""
        for source, transfer in transfers.items():
            self._install_node_vars(transfer.vars, transfer.table)
            for node in payload.nodes_at(source):
                self.owned_nodes.add(node)
                self.last_plan[node] = self.partition

    def _global_as_target(self, payload: GlobalCommand, rec) -> bool:
        finished, received = self._gather(payload, rec, permanent=True)
        if received is None:
            return finished
        self._adopt(payload, received)
        self._execute_and_reply(
            payload, record_hint_nodes={n for n, _ in payload.locations}
        )
        self.multi_partition_count += 1
        if self._records_metrics:
            self._pseries("multipart").record(self.now)
            self.monitor.counter("multi_partition_commands").inc()
        return True


class DSSMRSystem(DynaStarSystem):
    """A deployment running the DS-SMR protocol."""

    server_class = DSSMRServer

    def __init__(self, app, config: Optional[SystemConfig] = None, monitor=None):
        config = config or SystemConfig()
        config.mode = "dssmr"
        config.repartition_enabled = False
        super().__init__(app, config, monitor)
