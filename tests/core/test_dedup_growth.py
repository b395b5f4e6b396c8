"""What the ordering layers remember does not grow with the run.

Beside ``test_attempt_records.py`` (a drained *server* holds no record):
a drained deployment holds as many entries in every container of
``repro.consensus`` and ``repro.multicast`` after 2N commands as after N
— the dedup sets are ranges per stream
(:class:`~repro.consensus.rangeset.RangeSet`) — and what a checkpoint
ships of the two layers is as large.  Two things are exempt by name:
``_adelivered_ts`` (packed 8 bytes per message, but dropping a
timestamp needs an ack from the peer group) and the plain uids of
repartitioning plans (one per plan and group, not per command).

The weekly CI job runs this file with ``GROWTH_COMMANDS=20000``.
"""

import os
from collections import Counter

import pytest

from repro.consensus.messages import Submit
from repro.consensus.paxos import Acceptor
from repro.consensus.rangeset import RangeSet
from repro.core.client import ScriptedWorkload
from repro.experiments.harness import build_chirper_system, make_social_graph
from repro.multicast.basecast import MulticastReplica
from repro.multicast.messages import OrderEvent, TsEvent, TsProbe
from repro.sim.actors import Actor
from repro.workloads.social import ChirperWorkload

from tests.core.conftest import build_system, tapped_sends
from tests.core.test_dispatch_mode_parity import random_script

COMMANDS = int(os.environ.get("GROWTH_COMMANDS", "1000"))
CLIENTS = 4
#: Grows by design, for now (see the module docstring).
EXEMPT = {"_adelivered_ts", "_adelivered_ts_prev", "adelivered_ts", "adelivered_ts_prev"}


def drained(mode, commands, before_run=None):
    """Chirper mix (repartitioning on under DynaStar) on two partitions:
    ``commands`` commands, then three idle seconds."""
    graph = make_social_graph(120, seed=11)
    system = build_chirper_system(
        2, graph, mode=mode, seed=1, repartition_threshold=4000
    )
    workload = ChirperWorkload(
        graph, mix="mix", seed=3, commands_per_client=commands // CLIENTS
    )
    for _ in range(CLIENTS):
        system.add_client(workload)
    if before_run is not None:
        before_run(system)
    while not all(client.done for client in system.clients):
        system.run(until=system.sim.now + 1.0)
    system.run(until=system.sim.now + 3.0)
    assert sum(c.completed + c.failed for c in system.clients) == commands
    return system


def replicas(system):
    return [r for group in system.directory.groups.values() for r in group.replicas]


def ordering_actors(system):
    acceptors = [a for g in system.directory.groups.values() for a in g.acceptors]
    return replicas(system) + acceptors


def own_containers(actor):
    """The attributes the two ordering layers define on ``actor`` (not
    the simulator's, not the server's or the oracle's on top)."""
    if isinstance(actor, Acceptor):
        bare = Acceptor("bare")
    else:
        bare = MulticastReplica("bare", "g", 0, ["bare"], ["acc"])
    for name in vars(bare).keys() - vars(Actor("bare")).keys():
        value = getattr(actor, name)
        if isinstance(value, RangeSet) or (
            hasattr(value, "__len__") and not isinstance(value, str)
        ):
            yield name, value


def entries(system):
    """(held, plain): per (actor, container) the entries held — ranges,
    for a ``RangeSet`` — and all plain uids a ``RangeSet`` keeps."""
    held, plain = {}, []
    for actor in ordering_actors(system):
        for name, value in own_containers(actor):
            if isinstance(value, RangeSet):
                rest = value.capture()["rest"]
                plain += rest
                held[actor.name, name] = value.stored() - len(rest)
            else:
                held[actor.name, name] = len(value)
    return held, plain


def leaves(value):
    if isinstance(value, dict):
        return sum(leaves(item) for item in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(leaves(item) for item in value)
    return 1


def checkpoint_sizes(system):
    """Leaves per field of the ``paxos.state`` / ``mcast.state`` sections
    every replica would checkpoint now, plain uids left out."""
    sizes = {}
    for replica in replicas(system):
        sections = replica.capture_app_state()
        for section in ("paxos.state", "mcast.state"):
            for field, value in sections[section].items():
                if isinstance(value, dict) and "rest" in value:
                    value = value["ranges"]
                sizes[replica.name, section, field] = leaves(value)
    return sizes


@pytest.mark.parametrize("mode", ["dynastar", "ssmr", "dssmr"])
def test_twice_the_commands_leave_as_many_entries_and_as_large_a_checkpoint(mode):
    # DS-SMR has moved every node to one partition by the end of the short
    # run, so twice the commands order in that group alone and add few
    # members elsewhere (x1.76 at 2 000 commands): its long run is longer.
    long_factor = 3 if mode == "dssmr" else 2
    short, long = drained(mode, COMMANDS), drained(mode, long_factor * COMMANDS)
    (held_short, plain_short), (held_long, plain_long) = entries(short), entries(long)
    assert held_short.keys() == held_long.keys()
    grew = {
        key: (held_short[key], held_long[key])
        for key in held_short
        if held_long[key] != held_short[key] and key[1] not in EXEMPT
    }
    assert not grew, grew
    # A range costs the same however long; the members it stands for doubled.
    members_short, members_long = (
        sum(len(r.delivered_uids) for r in replicas(system)) for system in (short, long)
    )
    assert members_long > 1.8 * members_short
    assert max(r.delivered_uids.stored() for r in replicas(long)) < 40
    # The instrument sees growth where there is some (DS-SMR moves every
    # node to one partition in time and stops sending multi-group messages).
    timestamps_short, timestamps_long = (
        sum(len(r._adelivered_ts) for r in replicas(system)) for system in (short, long)
    )
    assert timestamps_long > timestamps_short or mode == "dssmr"
    # What is kept by uid is the plans, nothing per command.
    assert all("plan:" in uid for uid in plain_short + plain_long)

    sizes_short, sizes_long = checkpoint_sizes(short), checkpoint_sizes(long)
    larger = {
        key: (sizes_short[key], sizes_long[key])
        for key in sizes_short
        if sizes_long[key] != sizes_short[key] and key[2] not in EXEMPT
    }
    assert not larger, larger


class TestLateDuplicates:
    """Events of the first commands, submitted again a thousand commands
    later: the ranges answer as the uid sets did."""

    @staticmethod
    def record_first_events(seen):
        def before_run(system):
            server = system.servers("p0")[0]
            deliver = server.deliver_value

            def deliver_value(value):
                if isinstance(value, OrderEvent):
                    kind = "single" if value.message.is_single_group else "multi"
                    seen.setdefault(kind, value)
                elif isinstance(value, TsEvent):
                    seen.setdefault("ts", value)
                deliver(value)

            server.deliver_value = deliver_value

        return before_run

    @staticmethod
    def replay(system, message, sender="late"):
        """Hand ``message`` from ``sender`` to every replica of p0; the
        messages sent because of it, by type, and whether anything was
        delivered."""
        replicas = system.servers("p0")
        before = [(r.next_deliver, r.values_delivered, r.adelivered_count) for r in replicas]
        sent = Counter()

        def count(src, dst, message):
            sent[type(message).__name__] += 1

        with tapped_sends(system, count):
            for replica in replicas:
                replica.on_message(sender, message)
            system.run(until=system.sim.now + 1.0)
        after = [(r.next_deliver, r.values_delivered, r.adelivered_count) for r in replicas]
        for background in ("Heartbeat", "Frontier"):
            sent.pop(background, None)
        return dict(sent), after != before

    def test_old_events_are_not_delivered_again_and_the_probe_is_answered(self):
        seen = {}
        system = drained("dynastar", 1200, self.record_first_events(seen))
        assert seen.keys() == {"single", "multi", "ts"}
        assert seen["multi"].message.n is not None and seen["single"].message.n is not None
        assert type(seen["ts"].uid) is tuple
        # Nothing is sent, proposed, ordered or delivered for any of the three.
        assert self.replay(system, Submit(seen["single"])) == ({}, False)
        assert self.replay(system, Submit(seen["ts"])) == ({}, False)
        assert self.replay(system, Submit(seen["multi"])) == ({}, False)
        # A peer group may still wait for this group's timestamp of the
        # multi-group message: every replica answers its probe from
        # _adelivered_ts, to the prober alone — which drops the answer.
        prober = system.servers("p1")[0].name
        sent, delivered = self.replay(system, TsProbe(seen["multi"].message), prober)
        assert sent == {"RemoteTs": len(system.servers("p0"))} and not delivered
        stamps = system.servers("p0")[0]._adelivered_ts
        assert stamps.get(seen["multi"].message.key) is not None


def test_what_the_oracle_forwards_is_numbered_alike_by_its_replicas():
    """Base-protocol mode: the oracle multicasts every command itself,
    each replica building the message on its own.  They draw its number
    from replicated state, so the partitions see one number per uid and
    remember the oracle's streams as ranges, hints included."""
    system = build_system(
        n_keys=10, n_partitions=2, seed=5, oracle_dispatch=True, repartition=True
    )
    client = system.add_client(ScriptedWorkload(random_script(5, 10, 60)))
    system.run(until=60.0)
    assert client.completed == 60
    first, second = system.directory.groups["oracle"].replicas
    assert first._sent == second._sent and sum(first._sent.values()) == 60
    for partition in system.partition_names:
        for server in system.servers(partition):
            kept = server.adelivered_uids.capture()
            assert not kept["rest"]
            assert {stream[0] for stream, _ in kept["ranges"]} == {"oracle"}
            assert all(len(bounds) == 2 and bounds[0] == 0 for _, bounds in kept["ranges"])
    hints = first.adelivered_uids.capture()["ranges"]
    assert {stream[0] for stream, _ in hints} >= set(system.partition_names)
