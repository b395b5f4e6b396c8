"""Proxy leaders: the scale-out ingress stage of a partition group.

Clients (and the oracle redirect path) multicast ordering submissions;
with compartmentalization on, the group directory routes each
submission to *one* proxy leader instead of fanning it out to every
core replica.  The proxy dedups by message uid, batches what arrives
within ``batch_delay`` of its last forward, and forwards
:class:`~repro.compartment.messages.ProxyBatch` to the core replicas —
so per-command ingress fan-in lands on a horizontally scalable stage
and the Paxos leader receives pre-batched work.

Proxies are stateless from the protocol's point of view: their buffer
and dedup window are volatile (dropped on crash), because the Paxos
layer dedups by uid anyway and clients re-submit on timeout under a
fresh attempt uid, which re-rolls the proxy choice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.consensus.messages import Submit
from repro.multicast.basecast import OrderEvent
from repro.compartment.messages import ProxyBatch
from repro.sim.actors import Actor

#: Bounded dedup window: uids of recently forwarded submissions.
_DEDUP_WINDOW = 8192


class ProxyLeader(Actor):
    """One ingress proxy of a partition group."""

    def __init__(
        self,
        name: str,
        group: str,
        replicas: tuple,
        batch_delay: float,
        max_batch: int,
        monitor=None,
    ):
        super().__init__(name)
        self.group = group
        self.replicas = tuple(replicas)
        self.batch_delay = batch_delay
        self.max_batch = max_batch
        self.monitor = monitor
        self._buffer: list = []
        self._seen: OrderedDict = OrderedDict()
        self._batch_timer: Optional[Any] = None
        self._last_forward = float("-inf")

    def _count(self, name: str, **labels) -> None:
        if self.monitor is not None:
            self.monitor.counter(name, **labels).inc()

    def start(self) -> None:
        """No standing timers; the batch timer is armed on demand."""

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, Submit) or not isinstance(
            message.value, OrderEvent
        ):
            return
        event = message.value
        uid = event.message.uid
        if uid in self._seen:
            self._count("proxy", event="dup")
            return
        self._seen[uid] = None
        while len(self._seen) > _DEDUP_WINDOW:
            self._seen.popitem(last=False)
        self._count("proxy", event="submit")
        self._buffer.append(event)
        # Self-clocked batching: after a quiet ``batch_delay`` a submission
        # is forwarded in this tick; one that follows a forward more
        # closely waits (and batches) until ``batch_delay`` after it.
        wait = self._last_forward + self.batch_delay - self.now
        if wait <= 0 or len(self._buffer) >= self.max_batch:
            self._flush()
        elif self._batch_timer is None or not self._batch_timer.active:
            self._batch_timer = self.set_timer(wait, self._flush)

    def _flush(self) -> None:
        if not self._buffer:
            return
        batch = ProxyBatch(tuple(self._buffer))
        self._buffer.clear()
        self._last_forward = self.now
        self._count("proxy", event="batch")
        self.send_all(self.replicas, batch)

    def crash(self) -> None:
        super().crash()
        # Volatile stage memory: buffered submissions die with the proxy;
        # clients time out and retry under a fresh attempt uid.
        self._buffer.clear()
        self._seen.clear()
        self._batch_timer = None
