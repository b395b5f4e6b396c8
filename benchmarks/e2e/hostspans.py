"""Host-clock spans around the layer entry points, installed from outside.

For the traced pass only, the benchmark patches wrappers onto the boundaries
between layers (a layer is a module of ``repro``).  Each call through a
boundary is a span: layer, name, start, end, parent.  A span's *self time* is
its duration minus the time of its child spans, so the per-layer self times
add up to the duration of the root span (``Simulator.run``) exactly.

The wrappers are not free (the traced pass takes 1.5-1.9x the plain one), and
their cost lands unevenly: what a wrapper spends around its two clock reads
is charged to the *caller's* self time, so layers that make many calls
through boundaries (``sim.events``, ``sim.network``) would absorb it.
``self_fractions`` therefore subtracts a per-call cost, measured in the same
process on a wrapped no-op (``wrapper_cost_ns``), from both callee and caller.

Full spans are kept in memory for the first ``FULL_SPAN_COMMANDS`` completed
commands and written out by the caller after the run; past that only the
per-layer aggregates (calls, self time) grow.  ``Network.send`` is also the
exact message ledger: every message is counted under the layer whose module
defines its type.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.oracle as oracle_module
import repro.core.server as server_module
import repro.smr.statemachine as statemachine_module
from repro.consensus.paxos import PaxosReplica
from repro.core import OracleReplica, PartitionServer
from repro.multicast.basecast import MulticastReplica
from repro.sim import Actor, Network, Simulator

FULL_SPAN_COMMANDS = 2000

#: The layers host self time is reported for (fractions sum to 1).
LAYERS = (
    "sim.events", "sim.network", "consensus", "multicast", "core.client",
    "core.oracle", "core.server", "smr.copy", "workloads.execute",
    "partitioning", "compartment",
)

#: Layers of the message ledger (by the module defining the message type).
MESSAGE_LAYERS = ("consensus", "multicast", "core", "compartment")

_MODULE_LAYERS = (
    ("repro.sim.network", "sim.network"),
    ("repro.sim", "sim.events"),
    ("repro.consensus", "consensus"),
    ("repro.multicast", "multicast"),
    ("repro.core.client", "core.client"),
    ("repro.core.oracle", "core.oracle"),
    ("repro.core", "core.server"),
    ("repro.compartment", "compartment"),
    ("repro.smr.fastcopy", "smr.copy"),
    ("repro.partitioning", "partitioning"),
)

#: The replica class stack and the handler methods that hand work from one
#: of its layers to the next; a method is wrapped on every class that
#: defines it itself.  ``Actor.deliver`` covers the entry into a leaf class.
_REPLICA_CLASSES = (PaxosReplica, MulticastReplica, PartitionServer, OracleReplica)
_HANDLERS = ("on_other_message", "on_app_message", "deliver_value", "adeliver")


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    # Faults, obs and benchmark-side callbacks run from the event loop.
    return "sim.events"


def _message_layer(message) -> str:
    parts = type(message).__module__.split(".")
    if len(parts) > 1 and parts[1] in MESSAGE_LAYERS:
        return parts[1]
    return "core"  # e.g. Reply: defined in repro.smr, sent by core.server


class HostSpans:
    """Span recorder: a call stack with per-layer self-time accounting."""

    def __init__(self, completed_counter):
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []  # [layer, name, start_ns, child_ns, span_id]
        self._next_id = 0
        #: ``monitor.counter("commands_completed")``; full spans stop once it
        #: reaches FULL_SPAN_COMMANDS.
        self._completed = completed_counter
        self._recording = True
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Per layer: spans of the layer, and spans it called directly.
        self.layer_spans: dict[str, int] = defaultdict(int)
        self.child_spans: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.name_ns: dict[str, int] = defaultdict(int)
        self.messages: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent, layer, name, start_ns, end_ns)

    def wrap(self, layer: str, name: str, fn):
        stack, clock = self._stack, self._clock

        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [layer, name, clock(), 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_ns[layer] += duration - frame[3]
                self.layer_spans[layer] += 1
                self.name_ns[name] += duration - frame[3]
                self.calls[name] += 1
                if stack:
                    stack[-1][3] += duration
                    self.child_spans[stack[-1][0]] += 1
                    parent = stack[-1][4]
                else:
                    parent = None
                if self._recording:
                    self.spans.append((span_id, parent, layer, name, frame[2], end))
                    if self._completed.value >= FULL_SPAN_COMMANDS:
                        self._recording = False

        return wrapped

    def self_fractions(self, inner: float, outer: float) -> dict[str, float]:
        """Each layer's share of the host self time, after taking off what
        the wrappers added: ``inner`` ns per span of the layer and ``outer``
        ns per span it called (see :func:`wrapper_cost_ns`)."""
        net = {
            layer: max(
                self.self_ns.get(layer, 0)
                - inner * self.layer_spans.get(layer, 0)
                - outer * self.child_spans.get(layer, 0),
                0.0,
            )
            for layer in LAYERS
        }
        total = sum(net.values()) or 1.0
        return {layer: ns / total for layer, ns in net.items()}


def wrapper_cost_ns(calls: int = 20_000, rounds: int = 3) -> tuple[float, float]:
    """What one wrapped call adds to the self time of the span itself
    (between its clock reads) and of its caller (around them), in ns: the
    smallest of a few measurements on a no-op, as the cost is fixed and
    everything else only adds to it."""

    def noop():
        pass

    def measure():
        probe = HostSpans(completed_counter=None)
        probe._recording = False
        wrapped_noop = probe.wrap("callee", "noop", noop)

        def call_plain():
            for _ in range(calls):
                noop()

        def call_wrapped():
            for _ in range(calls):
                wrapped_noop()

        probe.wrap("plain", "plain", call_plain)()
        probe.wrap("caller", "caller", call_wrapped)()
        inner = probe.self_ns["callee"] / calls
        outer = (probe.self_ns["caller"] - probe.self_ns["plain"]) / calls
        return inner, max(outer, 0.0)

    inners, outers = zip(*(measure() for _ in range(rounds)))
    return min(inners), min(outers)


@contextmanager
def installed(system):
    """Patch the span wrappers in for one run of ``system``; yields the
    :class:`HostSpans`.  Every patch is undone on exit."""
    spans = HostSpans(system.monitor.counter("commands_completed"))
    undo = []

    def patch(owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        undo.append((owner, attr, had, old))

    patch(Simulator, "run", spans.wrap("sim.events", "Simulator.run", Simulator.run))

    raw_send = Network.send
    timed_send = spans.wrap("sim.network", "Network.send", raw_send)

    def send(self, src, dst, message, size=1):
        spans.messages[_message_layer(message)] += 1
        timed_send(self, src, dst, message, size)

    patch(Network, "send", send)

    # Actor.deliver is the entry into whichever actor class receives; the
    # handlers below it are wrapped per defining class.
    raw_deliver = Actor.deliver
    deliver_by_class: dict[type, object] = {}

    def deliver(self, sender, message):
        cls = type(self)
        timed = deliver_by_class.get(cls)
        if timed is None:
            layer = layer_of_module(cls.__module__)
            timed = deliver_by_class[cls] = spans.wrap(
                layer, f"{cls.__name__}.deliver", raw_deliver
            )
        timed(self, sender, message)

    patch(Actor, "deliver", deliver)

    patch(
        PaxosReplica, "on_message",
        spans.wrap("consensus", "PaxosReplica.on_message", PaxosReplica.on_message),
    )
    for cls in _REPLICA_CLASSES:
        layer = layer_of_module(cls.__module__)
        for name in _HANDLERS:
            if name in vars(cls):
                patch(cls, name, spans.wrap(layer, f"{cls.__name__}.{name}", vars(cls)[name]))

    # Timer callbacks are the other way work enters an actor.
    for name in ("set_timer", "set_periodic_timer"):
        raw = getattr(Actor, name)

        def set_timer(self, delay, callback, _raw=raw):
            fn = getattr(callback, "__func__", callback)  # bound method or closure
            layer = layer_of_module(getattr(fn, "__module__", None) or "")
            label = f"timer:{getattr(fn, '__qualname__', 'callback')}"
            return _raw(self, delay, spans.wrap(layer, label, callback))

        patch(Actor, name, set_timer)

    app = system.app
    patch(app, "execute", spans.wrap("workloads.execute", f"{type(app).__name__}.execute", app.execute))
    for module in (statemachine_module, server_module):
        patch(module, "copy_value", spans.wrap("smr.copy", "copy_value", module.copy_value))
    patch(
        oracle_module, "partition_graph",
        spans.wrap("partitioning", "partition_graph", oracle_module.partition_graph),
    )
    try:
        yield spans
    finally:
        for owner, attr, had, old in reversed(undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
