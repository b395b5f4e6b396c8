"""The one ingress rule (``repro.core.admission.IngressGate``), as a truth
table over every way a submission reaches a replica.

A fresh client submission may be refused before it enters the log — by a
retiring partition, or by admission control — and nothing else ever is:
what a peer sends, what is already ordered, pending or answered, and a
multi-partition command whose borrows are in flight all pass.  The
controller behind the gate is tested in ``test_admission_unit.py``.
"""

import pytest

from repro.compartment.messages import ProxyBatch
from repro.consensus.messages import Submit
from repro.core import DynaStarSystem, SystemConfig
from repro.core.messages import (
    ExecCommand,
    ExecutionHint,
    GlobalCommand,
    OracleQuery,
    ServerBusy,
    VarTransfer,
)
from repro.multicast.messages import MulticastMessage, OrderEvent
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp
from repro.smr.command import CommandKind, ReplyStatus

CLIENT = "client0"
ROUTES = ("direct", "proxied", "oracle")
STATES = ("peer", "ordered", "pending", "answered", "borrowing", "fresh")
MODES = ("retiring", "full", "neither")


def build(mode):
    bound = 1 if mode == "full" else None
    system = DynaStarSystem(
        KeyValueApp({"x": 1, "y": 2}),
        SystemConfig(
            n_partitions=2, seed=1, latency=ConstantLatency(0.001),
            placement={"x": 0, "y": 1}, repartition_enabled=False,
            admission_bound=bound, admission_headroom=1,
            oracle_admission_bound=bound, admission_retry_after=0.07,
        ),
    )
    system.run(until=0.5)
    return system


def payload_for(route, state):
    if route == "oracle":
        kind = CommandKind.CREATE if state == "answered" else CommandKind.ACCESS
        return OracleQuery(Command("c:1", "read", ("x",), kind=kind), CLIENT, 0, 1)
    if state == "borrowing":
        return GlobalCommand(
            Command("c:1", "transfer", ("x", "y", 1)), CLIENT, 0, "p0",
            (("x", "p0"), ("y", "p1")), 1,
        )
    return ExecCommand(Command("c:1", "write", ("x", 5)), CLIENT, 0, 1)


def prepare(replica, route, state, mode, message):
    """Put ``replica`` into ``state`` with respect to ``message``, and the
    group into ``mode``; returns the sender the submission arrives from."""
    payload = message.payload
    if state == "ordered":
        replica.adelivered_uids.add(message.uid)
    elif state == "pending":
        replica.pending_msgs[message.uid] = object()
    elif state == "answered" and route == "oracle":
        replica._done_creates[payload.command.uid] = ("x", "x", "p0")
    elif state == "answered":
        replica.clients.record(payload, ("x",), ReplyStatus.OK, 1)
    elif state == "borrowing":
        replica.on_app_message("p1/r0", VarTransfer("c:1", "p1", (("y", 2),), 0))
    if mode == "retiring":
        replica.draining = True
    elif mode == "full":
        controller = replica.admission
        for i in range(controller.bound + controller.headroom):
            assert controller.offer(f"other:{i}", replica.now, priority=True) == "admit"
    return "p1/r0" if state == "peer" else CLIENT


def cases():
    for route in ROUTES:
        for state in STATES:
            for mode in MODES:
                if route == "oracle" and (state == "borrowing" or mode == "retiring"):
                    continue  # the oracle neither borrows nor retires
                yield route, state, mode


@pytest.mark.parametrize("route, state, mode", list(cases()))
def test_gate_truth_table(route, state, mode):
    system = build(mode)
    replica = (
        system.oracle_replicas()[0] if route == "oracle" else system.servers("p0")[0]
    )
    payload = payload_for(route, state)
    if route == "proxied" and state == "peer":
        # What a proxy relays for a peer carries no client at all.
        payload = ExecutionHint("p1", 0, (), ())
    message = MulticastMessage("m:1", (replica.group,), payload)
    sender = prepare(replica, route, state, mode, message)
    submitted, sent = [], []
    replica.submit = submitted.append
    replica.send = lambda dst, msg: sent.append((dst, msg))
    event = OrderEvent(message)
    if route == "proxied":
        replica.on_message(f"{replica.group}/proxy0", ProxyBatch((event,)))
    else:
        replica.on_message(sender, Submit(event))

    refused = state == "fresh" and mode != "neither"
    if not refused:
        assert submitted == [event] and sent == []
        assert not system.monitor.labeled_counters("admission")
        assert not system.monitor.labeled_counters("reconfig")
        return
    reason = "retired" if mode == "retiring" else "busy"
    assert submitted == []
    assert sent == [(CLIENT, ServerBusy("c:1", 0, replica.group, 0.07, reason))]
    counters = {
        name: system.monitor.labeled_counters(name) for name in ("admission", "reconfig")
    }
    if mode == "retiring":
        assert counters == {"admission": {}, "reconfig": {("nacked", "p0"): 1}}
    else:
        assert counters == {"admission": {("busy", replica.group): 1}, "reconfig": {}}


def test_admitted_command_holds_its_slot_until_it_leaves_the_queue():
    """The gate's other half: a slot taken at the ingress is released at
    the one place a command leaves the queue, replied to or not."""
    system = build("full")
    server = system.servers("p0")[0]
    payload = ExecCommand(Command("c:1", "write", ("x", 5)), CLIENT, 0, 1)
    message = MulticastMessage("m:1", ("p0",), payload)
    server.on_message(CLIENT, Submit(OrderEvent(message)))
    assert server.admission.holds("c:1")
    system.run(until=1.0)
    assert not server.queue and not server.admission.holds("c:1")
    assert server.store.get("x") == 5
