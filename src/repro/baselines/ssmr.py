"""S-SMR: scalable state machine replication with static partitioning.

Differences from DynaStar (§5.5):

* multi-partition commands are executed by **all** involved partitions,
  after each involved partition sends the variables it holds to the
  others (to read — variables never change home);
* the state partitioning is static: no workload graph, no hints, no
  repartitioning, no object moves.

S-SMR\\* is S-SMR configured with a placement computed offline by the
graph partitioner from full workload knowledge
(:func:`optimized_placement`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import GlobalCommand, VarTransfer
from repro.core.server import PartitionServer
from repro.core.system import DynaStarSystem, SystemConfig
from repro.partitioning import WorkloadGraph, partition_graph
from repro.partitioning.graph import Partitioning
from repro.smr.command import ReplyStatus
from repro.smr.statemachine import VariableStore


class SSMRServer(PartitionServer):
    """Partition server implementing the S-SMR execution model."""

    sends_hints = False

    def _try_global(self, payload: GlobalCommand) -> bool:
        command = payload.command
        claimed = set(payload.nodes_at(self.partition))
        rec = self._attempt((command.uid, payload.attempt))

        if not rec.checked:
            if any(node not in self.owned_nodes for node in claimed):
                self._abort_global(payload)
                return True
            rec.checked = True
        if any(node in self.in_transit for node in claimed):
            return False

        # The borrow span tracks the copy exchange; the target partition
        # owns it (one span per attempt, shared tracer) and the sources
        # annotate it with their ship events.
        if payload.target == self.partition and self.tracer.enabled:
            self.tracer.begin(
                command.uid, "borrow", self.now, disc=payload.attempt,
                target=self.partition, attempt=payload.attempt, copies=True,
            )
        if not rec.sent:
            # Exchange: our variables' values go to every other involved
            # partition; ownership never changes.
            pairs = tuple(
                (var, self.store.get(var))
                for var in self._borrowable_vars(command, claimed)
            )
            if self.tracer.enabled:
                self.tracer.event_on(
                    command.uid, "borrow", payload.attempt,
                    "var-transfer-sent", self.now,
                    source=self.partition, variables=len(pairs),
                )
            for partition in payload.involved():
                if partition != self.partition:
                    self._send_to_partition(
                        partition,
                        VarTransfer(
                            command.uid, self.partition, pairs, payload.attempt
                        ),
                    )
            rec.sent = True
            if self._records_metrics:
                self._pseries("objects").record(
                    self.now, len(pairs) * (len(payload.involved()) - 1)
                )
                self.monitor.counter("objects_exchanged").inc(
                    len(pairs) * (len(payload.involved()) - 1)
                )

        if rec.failed:
            self._reply(payload, ReplyStatus.RETRY)
            return True
        needed = {p for p in payload.involved() if p != self.partition}
        received = rec.transfers
        if not needed <= received.keys():
            return False
        if payload.target == self.partition and self.tracer.enabled:
            self.tracer.finish(
                command.uid, "borrow", self.now, disc=payload.attempt
            )
        if not self._gate_service():
            return False
        self._consume_service()

        # Execute on an overlay store: own variables plus received values.
        if payload.target == self.partition:
            self._trace_execute_start(payload)
        overlay = VariableStore()
        for var in self._borrowable_vars(command, claimed):
            overlay.put(var, self.store.get(var))
        for transfer in received.values():
            for var, value in transfer.vars:
                overlay.put(var, value)
        overlay.begin_tracking()
        try:
            result = self.app.execute(command, overlay)
            status = ReplyStatus.OK
        except (KeyError, ValueError) as exc:
            result = repr(exc)
            status = ReplyStatus.NOK
        written, removed = overlay.end_tracking()
        if payload.target == self.partition:
            self._trace_execute_end(payload, status)

        # Persist only the writes that belong to this partition.
        for var in written:
            if self.app.graph_node_of(var) in claimed and var in overlay:
                self.store.put(var, overlay.get(var))
                self._index_var(var)
        for var in removed:
            if self.app.graph_node_of(var) in claimed:
                self.store.discard(var)
                self._unindex_var(var)

        # Every involved partition replies; the client deduplicates.
        self._reply(payload, status, result)
        self.executed_count += 1
        self.multi_partition_count += 1
        if self._records_metrics:
            self._pseries("tput").record(self.now)
            self._pseries("multipart").record(self.now)
            self.monitor.counter("multi_partition_commands").inc()
        return True


class SSMRSystem(DynaStarSystem):
    """A deployment running the S-SMR protocol.

    Pass ``placement=optimized_placement(graph, k)`` for S-SMR\\*.
    """

    server_class = SSMRServer

    def __init__(self, app, config: Optional[SystemConfig] = None, monitor=None):
        config = config or SystemConfig()
        config.mode = "ssmr"
        config.repartition_enabled = False
        super().__init__(app, config, monitor)


def optimized_placement(
    graph: WorkloadGraph, k: int, imbalance: float = 0.20, seed: int = 0
) -> Partitioning:
    """Offline METIS-style placement from a-priori workload knowledge —
    what the paper's operators hand to S-SMR\\*."""
    return partition_graph(graph, k, imbalance=imbalance, seed=seed)
