"""Exactly-once execution from the client table (``repro.core.clienttable``).

What decides whether an a-delivered command runs is node state: the
highest sequence number of the client executed *on the command's nodes*,
installed together with the node's variables wherever they go.  The
scenarios deliver a late attempt of a command by hand — after the client
has completed a later one, after a plan moved the nodes, on either side
of an unrelated transfer, to a replica that lags — and require that it is
not executed a second time and that the replicas of a partition never
decide differently about it.  A property test covers the component alone.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynaStarSystem, SystemConfig
from repro.core.clienttable import ClientTable
from repro.core.messages import ExecCommand, GlobalCommand, PartitionPlan, ReplyQuery
from repro.multicast.messages import MulticastMessage
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp
from repro.smr.command import ReplyStatus

from tests.core.conftest import assert_clean, ok_results, run_script
from tests.core.test_lanes import ReplyProbe

INITIAL = {"w": 40, "x": 10, "y": 20, "z": 30}
HOME = {"w": "p1", "x": "p0", "y": "p0", "z": "p1"}


_UIDS = itertools.count()


def answers(probe, since=0):
    """What the servers told the hand-driven client ``probe``."""
    return [(r.uid, r.status, r.result) for r in probe.replies[since:]]


def build(settled=True):
    system = DynaStarSystem(
        KeyValueApp(dict(INITIAL)),
        SystemConfig(
            n_partitions=2,
            seed=1,
            latency=ConstantLatency(0.001),
            placement={key: int(part[1]) for key, part in HOME.items()},
            repartition_enabled=False,
        ),
    )
    probe = system.net.register(ReplyProbe())
    if settled:
        system.run(until=1.0)  # leaders elected, nothing in flight
    return system, probe


def adeliver(system, payload, partitions, replicas=(0, 1)):
    """A-deliver ``payload`` at the given replicas of ``partitions``."""
    message = MulticastMessage(
        f"hand:{next(_UIDS)}", tuple(sorted(partitions)), payload
    )
    for partition in partitions:
        for index in replicas:
            system.servers(partition)[index].adeliver(message)


def settle(system, seconds=0.2):
    system.run(until=system.sim.now + seconds)


def move(system, version, **moves):
    """Apply, on every server, a plan that re-homes the given keys."""
    assignment = dict(system.servers("p0")[0].last_plan, **moves)
    adeliver(
        system, PartitionPlan(version, tuple(sorted(assignment.items()))),
        ("p0", "p1"),
    )
    settle(system)


def values(system, key):
    return [
        server.store.get(key)
        for partition in system.partition_names
        for server in system.servers(partition)
        if key in server.store
    ]


def executed(system):
    return [
        server.executed_count
        for partition in system.partition_names
        for server in system.servers(partition)
    ]


def exec_of(client, seq, op, *args, attempt=0):
    return ExecCommand(Command(f"{client}:{seq}", op, args), client, attempt, seq)


class TestLateDuplicates:
    def test_same_partition_entry_superseded(self):
        """(i) The client completed a later command: the late attempt of
        the earlier one is dropped — not executed, not answered."""
        system, _ = build(settled=False)
        client = run_script(
            system,
            [Command("c:1", "write", ("x", 1)), Command("c:2", "write", ("x", 2))],
            until=2.0,
        )
        assert set(ok_results(client)) == {"c:1", "c:2"}
        before, sent = executed(system), system.net.messages_sent
        late = ExecCommand(Command("c:1", "write", ("x", 1)), client.name, 1, seq=1)
        adeliver(system, late, ("p0",))
        assert system.net.messages_sent == sent  # dropped on the spot, silently
        settle(system)
        assert values(system, "x") == [2, 2]
        assert executed(system) == before
        assert all(not s.queue for s in system.servers("p0"))

    def test_same_partition_newest_is_answered_from_the_table(self):
        system, probe = build()
        adeliver(system, exec_of("probe", 1, "write", "x", 1), ("p0",))
        adeliver(system, exec_of("probe", 2, "transfer", "x", "y", 5), ("p0",))
        settle(system)
        first = [r for r in answers(probe) if r[0] == "probe:2"]
        assert len(first) == 2 and first[0][1] == ReplyStatus.OK
        before = executed(system)
        adeliver(system, exec_of("probe", 2, "transfer", "x", "y", 5, attempt=1), ("p0",))
        settle(system)
        again = [r for r in answers(probe) if r[0] == "probe:2"]
        assert len(again) == 4 and set(again) == set(first)
        assert values(system, "x") == [-4, -4] and values(system, "y") == [25, 25]
        assert executed(system) == before
        for server in system.servers("p0"):
            assert len(server.clients.capture()[1]) == 1  # one entry per client

    def test_after_a_plan_moved_the_node(self):
        """(ii) The node's numbers arrive with its variables: the new
        owner knows the late attempt although it never saw the command."""
        system, probe = build()
        adeliver(system, exec_of("probe", 1, "write", "x", 1), ("p0",))
        adeliver(system, exec_of("probe", 2, "write", "y", 2), ("p0",))
        settle(system)
        move(system, 1, x="p1")
        adeliver(system, exec_of("other", 1, "write", "x", 50), ("p1",))
        settle(system)
        assert values(system, "x") == [50, 50]
        before, replies = executed(system), len(probe.replies)
        adeliver(system, exec_of("probe", 1, "write", "x", 1, attempt=1), ("p1",))
        settle(system)
        assert values(system, "x") == [50, 50]
        assert executed(system) == before and len(probe.replies) == replies
        # ... and a duplicate of the client's newest command is answered
        # by the new owner, from the entry that travelled with the node.
        move(system, 2, y="p1")
        adeliver(system, exec_of("probe", 2, "write", "y", 2, attempt=1), ("p1",))
        settle(system)
        assert executed(system) == before
        assert [r for r in answers(probe, replies) if r[0] == "probe:2"] == [
            ("probe:2", ReplyStatus.OK, probe.replies[replies - 1].result)
        ] * 2
        assert_clean(system)

    @pytest.mark.parametrize("target", ["p0", "p1"])
    def test_two_node_command_split_by_a_plan(self, target):
        """(iii) Executed on one partition, retried after a plan put its
        two nodes on different ones: every involved partition recognises
        it by its own node (here stale on ``x``, which saw the client's
        next command, a duplicate on ``y``) and the gather unwinds."""
        system, probe = build()
        adeliver(system, exec_of("probe", 1, "transfer", "x", "y", 1), ("p0",))
        adeliver(system, exec_of("probe", 2, "read", "x"), ("p0",))
        settle(system)
        move(system, 1, y="p1")
        before, replies = executed(system), len(probe.replies)
        late = GlobalCommand(
            Command("probe:1", "transfer", ("x", "y", 1)), "probe", 1, target,
            (("x", "p0"), ("y", "p1")), seq=1,
        )
        adeliver(system, late, ("p0", "p1"))
        settle(system, 1.0)
        assert values(system, "x") == [9, 9] and values(system, "y") == [21, 21]
        assert executed(system) == before and len(probe.replies) == replies
        for partition in system.partition_names:
            for server in system.servers(partition):
                assert not server.queue and not server._attempts
        assert_clean(system)


class TestReplicasDecideAlike:
    def test_abandoned_command_on_either_side_of_an_unrelated_transfer(self):
        """(iv) The client gave up on command 1 (never executed) and
        completed command 2 elsewhere.  The late attempt of 1 reaches one
        replica of p0 before, the other after, an incoming node whose
        table says "this client is at 2": both judge by the numbers of the
        command's own node and decide alike."""
        system, _ = build()
        adeliver(system, exec_of("probe", 2, "write", "w", 7), ("p1",))
        settle(system)
        first, second = system.servers("p0")
        for sender in system.servers("p1"):
            system.net.cut(sender.name, first.name)
        move(system, 1, w="p0")
        assert "w" in first.in_transit and second.store.get("w") == 7
        assert second.clients.answered("probe", 2)
        assert not first.clients.answered("probe", 2)
        adeliver(system, exec_of("probe", 1, "write", "x", 1, attempt=3), ("p0",))
        settle(system)
        assert first.executed_count == second.executed_count == 1
        system.net.heal_all()
        settle(system, 2.0)  # the reliable channel retransmits the node
        assert not first.in_transit
        assert dict(first.store.items()) == dict(second.store.items())
        assert first.store.get("x") == 1 and first.store.get("w") == 7
        assert first.clients.capture() == second.clients.capture()

    def test_lagging_source_replica_with_returns_already_in_hand(self):
        """(v) A source replica holds the VarReturn of this command and
        of a later one of the same client before it a-delivers either:
        it lends and takes back exactly as its peer did."""
        system, probe = build()
        ahead, lagging = system.servers("p0")

        def transfer(seq):
            return GlobalCommand(
                Command(f"probe:{seq}", "transfer", ("x", "z", 1)), "probe", 0,
                "p1", (("x", "p0"), ("z", "p1")), seq=seq,
            )

        for seq in (1, 2):
            message = MulticastMessage(f"m:{seq}", ("p0", "p1"), transfer(seq))
            for server in (ahead, *system.servers("p1")):
                server.adeliver(message)
            settle(system)
        assert ahead.store.get("x") == 8 and lagging.store.get("x") == 10
        assert len(lagging._attempts) == 2 and not lagging.queue
        for seq in (1, 2):
            lagging.adeliver(MulticastMessage(f"m:{seq}", ("p0", "p1"), transfer(seq)))
        settle(system)
        assert not lagging.queue and not lagging._attempts
        assert dict(lagging.store.items()) == dict(ahead.store.items())
        assert lagging.clients.capture() == ahead.clients.capture()
        assert values(system, "z") == [32, 32]
        assert sorted(r.uid for r in probe.replies) == ["probe:1"] * 2 + ["probe:2"] * 2
        assert_clean(system)


class TestReplyQuery:
    """A timed client that heard no reply asks every replica of the
    attempt's partitions (``ReplyQuery``).  Only a replica whose table
    holds exactly ``(client, seq)`` as that client's newest executed
    command answers, with the outcome it recorded; nothing is ordered or
    executed, and everyone else stays silent."""

    def ask(self, system, probe, partition, seq):
        """Query every replica of ``partition`` about ``probe:seq``;
        returns ``(replica, status, result)`` of each answer."""
        since = len(probe.replies)
        for server in system.servers(partition):
            probe.send(server.name, ReplyQuery(f"probe:{seq}", "probe", seq, 7))
        settle(system)
        answered = probe.replies[since:]
        assert all(r.uid == f"probe:{seq}" and r.attempt == 7 for r in answered)
        return sorted((r.partition, r.status, r.result) for r in answered)

    def test_only_the_newest_executed_command_is_answered(self):
        system, probe = build()
        adeliver(system, exec_of("probe", 1, "write", "x", 1), ("p0",))
        adeliver(system, exec_of("probe", 2, "transfer", "x", "y", 5), ("p0",))
        settle(system)
        (_, status, result), _ = answers(probe)[-2:]
        before, stores = executed(system), values(system, "x")
        assert self.ask(system, probe, "p0", 3) == []  # not executed
        assert self.ask(system, probe, "p0", 1) == []  # the client moved past it
        assert self.ask(system, probe, "p0", 2) == [("p0", status, result)] * 2
        assert executed(system) == before and values(system, "x") == stores
        assert all(not s.queue and not s._attempts for s in system.servers("p0"))
        assert_clean(system)

    def test_a_lagging_replica_answers_nothing(self):
        system, probe = build()
        ahead, lagging = system.servers("p0")
        first = exec_of("probe", 1, "write", "x", 1)
        adeliver(system, first, ("p0",), replicas=(0,))
        settle(system)
        outcome = ("p0", ReplyStatus.OK, 10)  # a write returns the old value
        assert self.ask(system, probe, "p0", 1) == [outcome]
        assert self.ask(system, probe, "p0", 2) == []
        assert ahead.executed_count == 1 and lagging.executed_count == 0
        lagging.adeliver(MulticastMessage("late", ("p0",), first))
        settle(system)
        assert self.ask(system, probe, "p0", 1) == [outcome] * 2

    def test_a_source_answers_with_the_targets_outcome(self):
        """Multi-partition: the target recorded the outcome when it ran
        the command, each source when it consumed the ``VarReturn``."""
        system, probe = build()
        adeliver(
            system,
            GlobalCommand(
                Command("probe:1", "transfer", ("x", "z", 4)), "probe", 0, "p1",
                (("x", "p0"), ("z", "p1")), seq=1,
            ),
            ("p0", "p1"),
        )
        settle(system)
        (_, status, result), _ = answers(probe)
        assert status == ReplyStatus.OK
        assert self.ask(system, probe, "p0", 1) == [("p0", status, result)] * 2
        assert self.ask(system, probe, "p1", 1) == [("p1", status, result)] * 2
        assert_clean(system)


# -- the component alone ------------------------------------------------------------

_CLIENTS = ["c0", "c1", "c2"]
_NODES = st.sets(st.sampled_from("abcd"), min_size=1, max_size=3)
#: One world: what command ``(client, seq)`` is — its nodes and its
#: idempotency key, if any; a key names one logical operation, so all
#: its commands have the key's nodes and its outcome.
_WORLD = st.tuples(
    st.fixed_dictionaries(
        {
            (client, seq): st.tuples(
                _NODES, st.one_of(st.none(), st.sampled_from(["k0", "k1"]))
            )
            for client in _CLIENTS
            for seq in range(1, 5)
        }
    ),
    st.fixed_dictionaries({"k0": _NODES, "k1": _NODES}),
)
#: A-delivery order at one table: any attempts of any commands.
_STEPS = st.lists(
    st.tuples(st.sampled_from(_CLIENTS), st.integers(1, 4)), max_size=12
)


class _Payload:
    def __init__(self, client, seq, key):
        self.client, self.seq = client, seq
        self.command = Command(f"{client}:{seq}", "op", idem_key=key)


def _attempt(world, step):
    commands, keyed_nodes = world
    nodes, key = commands[step]
    return _Payload(*step, key), keyed_nodes[key] if key else nodes, key or step


def _table(world, steps):
    table = ClientTable()
    for step in steps:
        payload, nodes, result = _attempt(world, step)
        if table.repeat_of(payload, nodes) is None:
            table.record(payload, sorted(nodes), ReplyStatus.OK, result)
    return table


class TestClientTableProperties:
    @settings(max_examples=200, deadline=None)
    @given(_WORLD, _STEPS, _STEPS, _STEPS, _NODES)
    def test_export_merge_is_idempotent_commutative_and_monotone(
        self, world, base, left, right, nodes
    ):
        def merged(*exports):
            table = _table(world, base)
            for exported in exports:
                table.install_nodes(exported)
            return table.capture()

        one = _table(world, left).export_nodes(sorted(nodes))
        two = _table(world, right).export_nodes(sorted(nodes))
        assert merged(one, two) == merged(two, one) == merged(one, two, one)
        numbers, newest, _ = merged()
        numbers_after, newest_after, _ = merged(one)
        for node, before in numbers:
            after = dict(dict(numbers_after)[node])
            assert all(after[client] >= seq for client, seq in before)
        for client, entry in newest:
            assert dict(newest_after)[client][0] >= entry[0]

    @settings(max_examples=200, deadline=None)
    @given(_WORLD, _STEPS)
    def test_capture_install_round_trips(self, world, steps):
        table = _table(world, steps)
        copy = ClientTable()
        copy.install(table.capture())
        assert copy.capture() == table.capture()
        for step in world[0]:
            payload, nodes, _ = _attempt(world, step)
            assert copy.repeat_of(payload, nodes) == table.repeat_of(payload, nodes)

    @settings(max_examples=200, deadline=None)
    @given(_WORLD, _STEPS, _NODES)
    def test_a_node_takes_its_judgement_along(self, world, steps, moved):
        """What ``export_nodes`` removes here and ``install_nodes`` adds
        there judges every attempt over those nodes as the origin did."""
        origin, destination = _table(world, steps), ClientTable()
        reference = _table(world, steps)
        destination.install_nodes(origin.export_nodes(sorted(moved)))
        for step in world[0]:
            payload, nodes, _ = _attempt(world, step)
            if nodes <= moved:
                assert destination.repeat_of(payload, nodes) == reference.repeat_of(
                    payload, nodes
                )
            if not nodes & moved:
                assert origin.repeat_of(payload, nodes) == reference.repeat_of(
                    payload, nodes
                )
