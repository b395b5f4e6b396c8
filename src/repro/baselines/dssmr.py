"""DS-SMR: dynamic SMR with naive permanent migration.

:class:`DSSMRServer` replaces the two halves of DynaStar's borrow/return
with a one-way move: on every multi-partition command the source ships
*every* variable of the nodes it holds and gives up their ownership,
the target adopts them and executes, and nothing travels home (the
oracle, ``mode="dssmr"``, records the new locations).  With skewed,
non-perfectly-partitionable workloads the same nodes ping-pong between
partitions, which is the pathology DynaStar's workload-graph
partitioning avoids.

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

    def _global_as_target(self, payload: GlobalCommand, rec) -> bool:
        finished, received = self._gather(payload, rec, permanent=True)
        if received is None:
            return finished
        for transfer in received.values():
            self._install_node_vars(transfer.vars, transfer.table)
        for node, _ in payload.locations:
            self.owned_nodes.add(node)
            self.last_plan[node] = self.partition
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
