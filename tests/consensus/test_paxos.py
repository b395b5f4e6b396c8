"""Unit and integration tests for the Multi-Paxos group."""

import random
from dataclasses import dataclass

import pytest

from repro.consensus import PaxosGroup, GroupConfig
from repro.consensus.failure import (
    crash_acceptor_at,
    crash_leader_at,
    crash_minority_acceptors_at,
)
from repro.consensus.messages import Submit
from repro.consensus.paxos import ReplicaConfig
from repro.sim import ConstantLatency, LogNormalLatency, Network, Simulator


@dataclass(frozen=True)
class Cmd:
    uid: str
    payload: int = 0


def make_group(
    latency=None,
    seed=1,
    n_replicas=2,
    n_acceptors=3,
    name="g0",
):
    sim = Simulator()
    net = Network(
        sim,
        default_latency=latency or ConstantLatency(0.001),
        rng=random.Random(seed),
    )
    config = GroupConfig(n_replicas=n_replicas, n_acceptors=n_acceptors)
    group = PaxosGroup(name, net, config=config, rng=random.Random(seed))
    group.start()
    return sim, net, group


def submit_all(group, cmds):
    """Submit each command to every replica, as real senders do."""
    for cmd in cmds:
        for replica in group.replicas:
            replica.submit(cmd)


class TestBasicOrdering:
    def test_single_value_is_delivered_everywhere(self):
        sim, _, group = make_group()
        group.replicas[0].submit(Cmd("c1"))
        sim.run(until=1.0)
        for i in range(len(group.replicas)):
            assert group.delivered_log(i) == [Cmd("c1")]

    def test_many_values_same_order_on_all_replicas(self):
        sim, _, group = make_group(n_replicas=3)
        cmds = [Cmd(f"c{i}", i) for i in range(50)]
        submit_all(group, cmds)
        sim.run(until=2.0)
        logs = [group.delivered_log(i) for i in range(3)]
        assert logs[0] == logs[1] == logs[2]
        assert sorted(c.uid for c in logs[0]) == sorted(c.uid for c in cmds)

    def test_duplicate_submissions_delivered_once(self):
        sim, _, group = make_group()
        for _ in range(5):
            submit_all(group, [Cmd("dup")])
        sim.run(until=2.0)
        assert group.delivered_log(0) == [Cmd("dup")]

    def test_submission_via_network_message(self):
        sim, net, group = make_group()

        from repro.sim.actors import Actor

        class Client(Actor):
            def on_message(self, sender, message):
                pass

        client = net.register(Client("client"))
        group.submit_via(client, Cmd("net-cmd"))
        sim.run(until=1.0)
        assert group.delivered_log(0) == [Cmd("net-cmd")]

    def test_fifo_from_single_submitter(self):
        sim, _, group = make_group()
        cmds = [Cmd(f"c{i}") for i in range(20)]
        for cmd in cmds:
            group.replicas[0].submit(cmd)
        sim.run(until=2.0)
        assert group.delivered_log(0) == cmds

    def test_values_without_uid_are_all_delivered(self):
        sim, _, group = make_group()
        group.replicas[0].submit("raw-1")
        group.replicas[0].submit("raw-2")
        sim.run(until=1.0)
        log0 = group.delivered_log(0)
        assert log0 == ["raw-1", "raw-2"]


class TestBatching:
    def test_burst_is_batched_into_few_instances(self):
        sim, _, group = make_group()
        leader = group.replicas[0]
        for i in range(100):
            leader.submit(Cmd(f"c{i}"))
        sim.run(until=2.0)
        assert len(group.delivered_log(0)) == 100
        # 100 values with max_batch=64 need at most a handful of instances
        assert leader.next_deliver <= 5

    def test_batch_respects_max_batch(self):
        from repro.consensus.paxos import Batch

        sim, _, group = make_group()
        leader = group.replicas[0]
        leader.config.max_batch = 10
        batches = []
        propose = leader._propose
        leader._propose = lambda i, batch: (batches.append(batch), propose(i, batch))
        for i in range(35):
            leader.submit(Cmd(f"c{i}"))
        sim.run(until=2.0)
        assert len(group.delivered_log(0)) == leader.values_delivered == 35
        assert sum(len(batch.values) for batch in batches) == 35
        for batch in batches:
            assert isinstance(batch, Batch)
            assert len(batch.values) <= 10


class TestLeaderFailure:
    def test_leader_crash_new_leader_takes_over(self):
        sim, _, group = make_group(n_replicas=3)
        submit_all(group, [Cmd("before")])
        sim.run(until=1.0)
        assert group.delivered_log(1) == [Cmd("before")]
        crash_leader_at(sim, group, 1.5)
        sim.run(until=5.0)
        submit_all(group, [Cmd("after")])
        sim.run(until=10.0)
        for i in (1, 2):  # replica 0 crashed
            assert group.delivered_log(i) == [Cmd("before"), Cmd("after")]

    def test_value_buffered_at_follower_survives_leader_crash(self):
        sim, _, group = make_group(n_replicas=3)
        # Crash the leader instantly, before it can propose.
        group.replicas[0].crash()
        submit_all(group, [Cmd("survivor")])
        sim.run(until=10.0)
        assert group.delivered_log(1) == [Cmd("survivor")]
        assert group.delivered_log(2) == [Cmd("survivor")]

    def test_no_divergence_across_leader_change(self):
        sim, _, group = make_group(n_replicas=3, latency=LogNormalLatency(0.001))
        cmds = [Cmd(f"c{i}") for i in range(30)]
        for i, cmd in enumerate(cmds):
            sim.schedule(0.01 * i, submit_all, group, [cmd])
        crash_leader_at(sim, group, 0.15)
        sim.run(until=15.0)
        log1 = group.delivered_log(1)
        log2 = group.delivered_log(2)
        assert log1 == log2
        assert sorted(c.uid for c in log1) == sorted(c.uid for c in cmds)

    def test_successive_leader_crashes(self):
        sim, _, group = make_group(n_replicas=3)
        submit_all(group, [Cmd("a")])
        sim.run(until=1.0)
        group.replicas[0].crash()
        sim.run(until=4.0)
        submit_all(group, [Cmd("b")])
        sim.run(until=8.0)
        group.replicas[1].crash() if group.replicas[1].is_leader else None
        sim.run(until=12.0)
        submit_all(group, [Cmd("c")])
        sim.run(until=20.0)
        log = group.delivered_log(2)
        assert [c.uid for c in log] == ["a", "b", "c"]


class TestAcceptorFailure:
    def test_minority_acceptor_crash_no_impact(self):
        sim, _, group = make_group(n_acceptors=3)
        crash_minority_acceptors_at(sim, group, 0.0)
        submit_all(group, [Cmd(f"c{i}") for i in range(10)])
        sim.run(until=3.0)
        assert len(group.delivered_log(0)) == 10

    def test_majority_acceptor_crash_halts_progress(self):
        sim, _, group = make_group(n_acceptors=3)
        crash_acceptor_at(sim, group, 0, 0.0)
        crash_acceptor_at(sim, group, 1, 0.0)
        submit_all(group, [Cmd("stuck")])
        sim.run(until=5.0)
        assert group.delivered_log(0) == []

    def test_five_acceptors_tolerate_two_crashes(self):
        sim, _, group = make_group(n_acceptors=5)
        crash_acceptor_at(sim, group, 0, 0.0)
        crash_acceptor_at(sim, group, 1, 0.0)
        submit_all(group, [Cmd("ok")])
        sim.run(until=3.0)
        assert group.delivered_log(0) == [Cmd("ok")]


class TestCatchUp:
    def test_lagging_replica_catches_up(self):
        sim, net, group = make_group(n_replicas=3)
        # Disconnect replica 2 from everyone while values are decided.
        lagging = group.replica_names[2]
        for other in net.actor_names:
            if other != lagging:
                net.cut(lagging, other)
        submit_all(group, [Cmd(f"c{i}") for i in range(5)])
        sim.run(until=2.0)
        assert group.delivered_log(2) == []
        net.heal_all()
        sim.run(until=6.0)
        assert group.delivered_log(2) == group.delivered_log(0)
        assert len(group.delivered_log(2)) == 5


class TestAgreementUnderChaos:
    @pytest.mark.parametrize("seed", [3, 7, 11, 23])
    def test_random_latency_random_submitters_agree(self, seed):
        sim, _, group = make_group(
            latency=LogNormalLatency(0.002, sigma=0.8), seed=seed, n_replicas=3
        )
        rng = random.Random(seed)
        cmds = [Cmd(f"c{i}") for i in range(40)]
        for cmd in cmds:
            at = rng.uniform(0, 0.5)
            replica = group.replicas[rng.randrange(3)]
            sim.schedule(at, replica.submit, cmd)
            # also submit to the others (submit-to-all pattern), later
            for other in group.replicas:
                if other is not replica:
                    sim.schedule(at + 0.001, other.submit, cmd)
        sim.run(until=10.0)
        logs = [group.delivered_log(i) for i in range(3)]
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 40

    @pytest.mark.parametrize("seed", [5, 13])
    def test_agreement_with_leader_crash_mid_stream(self, seed):
        sim, _, group = make_group(
            latency=LogNormalLatency(0.002, sigma=0.5), seed=seed, n_replicas=3
        )
        rng = random.Random(seed)
        cmds = [Cmd(f"c{i}") for i in range(30)]
        for cmd in cmds:
            at = rng.uniform(0, 1.0)
            sim.schedule(at, submit_all, group, [cmd])
        crash_leader_at(sim, group, 0.5)
        sim.run(until=20.0)
        log1 = group.delivered_log(1)
        log2 = group.delivered_log(2)
        assert log1 == log2
        assert sorted(c.uid for c in log1) == sorted(c.uid for c in cmds)


class TestGroupIntrospection:
    def test_initial_leader_is_replica_zero(self):
        sim, _, group = make_group()
        sim.run(until=0.5)
        assert group.leader is group.replicas[0]

    def test_leader_after_crash_is_a_survivor(self):
        sim, _, group = make_group(n_replicas=3)
        group.replicas[0].crash()
        sim.run(until=5.0)
        # Either survivor may win the takeover race depending on jitter.
        assert group.leader in (group.replicas[1], group.replicas[2])

    def test_group_names_are_namespaced(self):
        _, _, group = make_group(name="p7")
        assert all(n.startswith("p7/") for n in group.replica_names)
        assert all(n.startswith("p7/") for n in group.acceptor_names)
