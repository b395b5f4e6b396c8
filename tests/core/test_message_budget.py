"""Message budgets, beside the hop budgets of ``test_hop_budget.py``: the
same rig (one client, constant latency, no service time, scripted
commands) counted by message type.  The cost of one command is the
difference between a run with it and a run without, so the periodic
classes cancel; ``r`` = 2 replicas and ``a`` = 3 acceptors per group,
``k`` = 2 partitions touched.

    single partition   r + a + a + (r-1) + r = 11
                       Submit to every replica, Accept, Accepted,
                       Decision to the follower, Reply from every replica
    two partitions     54: the command and the remote timestamp are one
                       consensus instance each in each group (2k), the
                       leaders exchange timestamps, the source lends its
                       variables and the target returns them
    oracle miss        + 13 (+ 15 on a two-partition command): the query,
                       its consensus round and the prophecy have the
                       single-partition shape, and the command is
                       submitted once per prophecy copy

Pinned to what the code sends today, not to what the protocol needs
(ROADMAP item 3): the terms over budget are named where they are
counted.  ``Heartbeat`` and ``Frontier`` are not per-command — every
replica sends one of them per heartbeat period, and a leader whose log
floor moved tells its acceptors in the next beat, once per period
however many commands moved it — and workload-graph hints leave once per
``hint_period``, which the rig puts beyond the run.
"""

from collections import Counter

from repro.consensus.messages import Submit
from repro.core.client import ScriptedWorkload
from repro.smr import Command

from tests.core.conftest import tapped_sends
from tests.core.test_hop_budget import rig

R, A, K = 2, 3, 2
BACKGROUND = {"Heartbeat", "Frontier"}


def messages_sent(commands):
    system = rig(hint_period=10.0)  # hints leave after the run ends
    sent = Counter()

    def count(src, dst, message):
        sent[type(message).__name__] += 1

    client = system.add_client(ScriptedWorkload(commands))
    with tapped_sends(system, count):
        system.run(until=2.0)
    assert client.done and client.completed == len(commands)
    assert sum(sent.values()) == system.net.stats()["sent"]
    return sent


def cost_of_last(commands):
    """Messages by type that the last of ``commands`` added to the run."""
    with_it, without = messages_sent(commands), messages_sent(commands[:-1])
    assert not without - with_it  # a command only ever adds messages
    added = with_it - without
    return {name: n for name, n in added.items() if name not in BACKGROUND}


SCRIPT = [
    Command("c:0", "write", ("k0", 1)),   # k0 unknown to the client
    Command("c:1", "write", ("k0", 2)),   # cached, one partition
    Command("c:2", "sum", ("k0", "k1")),  # k1 unknown, two partitions
    Command("c:3", "sum", ("k0", "k1")),  # cached, two partitions
]

SINGLE = {
    "Submit": R,  # over budget: only the leader's copy is proposed
    "Accept": A,
    "Accepted": A,
    "Decision": R - 1,
    "Reply": R,  # every replica answers (the paper's model)
}

TWO_PARTITIONS = {
    "Submit": K * R,
    "Accept": 2 * K * A,  # command + remote timestamp, in each group
    "Accepted": 2 * K * A,
    "Decision": 2 * K * (R - 1),
    "RemoteTs": K * R,  # each leader to every replica of the other group
    # Over budget: every replica of the source ships the transfer to
    # every replica of the target (r * r, the first copy wins), the
    # return travels the same way, and each copy is acked separately.
    "ReliableMsg": 2 * R * R,
    "ReliableAck": 2 * R * R,
    "Reply": R,  # the target partition's replicas
}


def plus(base, extra):
    return dict(Counter(base) + Counter(extra))


def oracle_miss(resubmits):
    """The query, its round and the prophecy — and, over budget, one
    more submission of the command per extra prophecy copy."""
    return {
        "Submit": R + resubmits,
        "Accept": A,
        "Accepted": A,
        "Decision": R - 1,
        "Prophecy": R,
    }


def test_an_idle_system_sends_only_the_periodic_classes():
    assert set(messages_sent([])) == BACKGROUND


def test_single_partition_command():
    cost = cost_of_last(SCRIPT[:2])
    assert cost == SINGLE
    assert sum(cost.values()) == R + A + A + (R - 1) + R == 11


def test_two_partition_command():
    cost = cost_of_last(SCRIPT[:4])
    assert cost == TWO_PARTITIONS
    assert sum(cost.values()) == 54


def test_oracle_miss_adds_a_query_round_and_a_second_submission():
    single = cost_of_last(SCRIPT[:1])
    assert single == plus(SINGLE, oracle_miss(resubmits=R))
    assert sum(single.values()) == 11 + 13
    double = cost_of_last(SCRIPT[:3])
    assert double == plus(TWO_PARTITIONS, oracle_miss(resubmits=K * R))
    assert sum(double.values()) == 54 + 15


def test_an_attempt_sent_once_per_prophecy_copy_carries_one_number():
    """What lets the groups remember numbers, not uids (DESIGN.md §5):
    however often the client sends an attempt, it is one uid under one
    number, and a stream's numbers have no gaps."""
    system = rig(hint_period=10.0)
    keys_of, sends_of = {}, Counter()

    def note(src, dst, message):
        if src == "client0" and isinstance(message, Submit):
            sent = message.value.message
            keys_of.setdefault(sent.uid, set()).add(sent.key)
            sends_of[sent.uid] += 1

    client = system.add_client(ScriptedWorkload(SCRIPT))
    with tapped_sends(system, note):
        system.run(until=2.0)
    assert client.done and client.completed == len(SCRIPT)
    # c:0 missed the cache: submitted once per prophecy copy, to R replicas.
    assert sends_of["x:c:0:a0"] == R * R and sends_of["x:c:1:a0"] == R
    assert all(len(keys) == 1 for keys in keys_of.values())
    keys = [key for (key,) in keys_of.values()]
    assert len(set(keys)) == len(keys)
    numbers = {}
    for stream, n in keys:
        numbers.setdefault(stream, []).append(n)
    assert all(sorted(ns) == list(range(len(ns))) for ns in numbers.values())
    assert set(numbers) == {
        ("client0", ("oracle",)), ("client0", ("p0",)), ("client0", ("p0", "p1"))
    }
