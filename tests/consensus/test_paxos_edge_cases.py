"""Edge-case tests for Multi-Paxos: recovery semantics, window limits,
message anomalies."""

import random
from dataclasses import dataclass

import pytest

from repro.consensus import PaxosGroup, GroupConfig
from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    Nack,
    Prepare,
    Promise,
    Submit,
)
from repro.consensus.paxos import Acceptor, Batch, ReplicaConfig
from repro.sim import ConstantLatency, LogNormalLatency, Network, Simulator


@dataclass(frozen=True)
class Cmd:
    uid: str


def make_group(n_replicas=3, n_acceptors=3, latency=None, seed=1):
    sim = Simulator()
    net = Network(
        sim,
        default_latency=latency or ConstantLatency(0.001),
        rng=random.Random(seed),
    )
    group = PaxosGroup(
        "g0",
        net,
        config=GroupConfig(n_replicas=n_replicas, n_acceptors=n_acceptors),
        rng=random.Random(seed),
    )
    group.start()
    return sim, net, group


class TestAcceptorProtocol:
    def setup_method(self):
        self.sim = Simulator()
        self.net = Network(self.sim, default_latency=ConstantLatency(0.001))
        self.acceptor = self.net.register(Acceptor("acc"))

        class Sink:
            def __init__(self):
                self.received = []

            def deliver(self, sender, message):
                self.received.append(message)

        from repro.sim.actors import Actor

        class Proposer(Actor):
            def __init__(self, name):
                super().__init__(name)
                self.received = []

            def on_message(self, sender, message):
                self.received.append(message)

        self.proposer = self.net.register(Proposer("prop"))

    def test_promise_carries_accepted_values(self):
        self.acceptor.accepted[3] = (0, "v3")
        self.acceptor.accepted[7] = (0, "v7")
        self.proposer.send("acc", Prepare(ballot=5, low=4))
        self.sim.run()
        promise = self.proposer.received[0]
        assert isinstance(promise, Promise)
        assert promise.accepted == {7: (0, "v7")}  # only >= low

    def test_lower_ballot_prepare_nacked(self):
        self.acceptor.promised = 10
        self.proposer.send("acc", Prepare(ballot=5, low=0))
        self.sim.run()
        assert isinstance(self.proposer.received[0], Nack)
        assert self.proposer.received[0].ballot == 10

    def test_lower_ballot_accept_nacked(self):
        self.acceptor.promised = 10
        self.proposer.send("acc", Accept(ballot=5, instance=0, value="v"))
        self.sim.run()
        assert isinstance(self.proposer.received[0], Nack)

    def test_equal_ballot_accept_accepted(self):
        self.acceptor.promised = 5
        self.proposer.send("acc", Accept(ballot=5, instance=2, value="v"))
        self.sim.run()
        assert isinstance(self.proposer.received[0], Accepted)
        assert self.acceptor.accepted[2] == (5, "v")


class TestWindowAndBatching:
    def test_window_limits_outstanding_proposals(self):
        sim, _, group = make_group()
        leader = group.replicas[0]
        leader.config.window = 2
        leader.config.max_batch = 1
        # Cut the leader off from acceptors so proposals cannot complete.
        for acc in group.acceptor_names:
            group.network.cut(leader.name, acc)
        for i in range(10):
            leader.submit(Cmd(f"c{i}"))
        sim.run(until=0.5)
        assert len(leader.proposals) <= 2

    def test_proposals_resume_when_window_frees(self):
        sim, net, group = make_group()
        leader = group.replicas[0]
        leader.config.window = 2
        leader.config.max_batch = 1
        for acc in group.acceptor_names:
            net.cut(leader.name, acc)
        for i in range(6):
            leader.submit(Cmd(f"c{i}"))
        sim.run(until=0.5)
        net.heal_all()
        # leader retransmits the stalled Accepts; everything drains
        sim.run(until=5.0)
        assert len(group.delivered_log(0)) == 6


class TestRecoveredValues:
    def test_new_leader_reproposes_accepted_value(self):
        """A value accepted by a quorum but not yet decided must survive a
        leader change (the classic Paxos safety scenario)."""
        sim, net, group = make_group(n_replicas=3)
        leader = group.replicas[0]
        leader.submit(Cmd("precious"))
        # Let Accepts reach the acceptors but crash the leader before it
        # can process the Accepted replies (cut only the return path).
        for acc in group.acceptor_names:
            net.cut_oneway(acc, leader.name)
        sim.run(until=0.5)
        leader.crash()
        sim.run(until=10.0)
        # A new leader must have recovered and decided the value.
        logs = [group.delivered_log(i) for i in (1, 2)]
        assert logs[0] == logs[1] == [Cmd("precious")]

    def test_noop_gaps_are_invisible_to_application(self):
        sim, net, group = make_group(n_replicas=3)
        leader = group.replicas[0]
        leader.config.max_batch = 1
        # Deliver two values, then crash the leader with a gap: instance 2
        # proposed only to a minority... simplest: crash right after
        # submitting several values with the accept channel cut.
        submitted = [Cmd(f"c{i}") for i in range(3)]
        for cmd in submitted:
            for replica in group.replicas:
                replica.submit(cmd)
        sim.run(until=2.0)
        leader.crash()
        for replica in group.replicas[1:]:
            replica.submit(Cmd("after"))
        sim.run(until=15.0)
        log = group.delivered_log(1)
        uids = [value.uid for value in log]
        assert "after" in uids
        assert "noop" not in uids


class TestLeadsTwice:
    """A value whose Accepts never reached a quorum must not stay marked
    "proposed" at a replica that lost the leadership: its next reign (or
    its forward to the new leader) has to submit it again."""

    def lose_the_accepts(self, sim, net, group, leader):
        for acc in group.acceptor_names:
            net.cut(leader.name, acc)
        leader.submit(Cmd("orphan"))
        sim.run(until=0.001)
        assert list(leader.proposals) == [0]  # in flight, Accepts dropped

    def second_reign(self, sim, group):
        """Crash rep1 and let rep0 lead ballot 2, then retransmit."""
        first, second = group.replicas
        second.crash()
        sim.run(until=sim.now + 2.0)
        assert first.is_leader and first.ballot == 2
        first.submit(Cmd("orphan"))  # the sender's retransmission
        first.submit(Cmd("later"))
        sim.run(until=sim.now + 2.0)
        assert group.delivered_log(0) == [Cmd("orphan"), Cmd("later")]

    def test_crashed_with_accepts_in_flight(self):
        sim, net, group = make_group(n_replicas=2)
        first, second = group.replicas
        self.lose_the_accepts(sim, net, group, first)
        first.crash()
        sim.run(until=2.0)
        assert second.is_leader and second.next_deliver == 0
        net.heal_all()
        first.recover()
        assert "orphan" not in first.proposed_uids
        assert list(first.pending.values()) == [Cmd("orphan")]
        self.second_reign(sim, group)

    def test_deposed_with_accepts_in_flight(self):
        sim, net, group = make_group(n_replicas=2)
        first, second = group.replicas
        self.lose_the_accepts(sim, net, group, first)
        net.cut(first.name, second.name)
        sim.run(until=2.0)
        assert second.is_leader and second.next_deliver == 0
        # Healed, the heartbeat of ballot 1 deposes rep0; rep1 dies before
        # rep0's forward timer could send the value to it.
        net.heal_all()
        sim.run(until=sim.now + 0.15)
        assert first.ballot == 1 and not first.proposals
        assert "orphan" not in first.proposed_uids
        self.second_reign(sim, group)


class TestDecisionLearntByAnotherPath:
    """A leader whose ``Accepted`` replies are lost learns the decision
    from a peer (``Decision`` / ``LearnReply``) or from the acceptors on
    recovery.  Its own proposal for the instance then has nothing left to
    win; kept, its timer re-sends the ``Accept`` for ever
    (``tests/faults/test_chaos_cell.py`` is where that was seen)."""

    def propose_and_lose_the_replies(self):
        sim, net, group = make_group(n_replicas=2)
        leader, peer = group.replicas
        for acc in group.acceptor_names:
            net.cut_oneway(acc, leader.name)
        leader.submit(Cmd("mine"))
        sim.run(until=0.01)
        assert list(leader.proposals) == [0] and leader.next_deliver == 0
        return sim, group, leader, peer

    def assert_no_proposer_state(self, leader):
        assert not leader.proposals
        assert not leader._accepts and not leader._accept_votes

    def test_the_chosen_value_closes_the_proposal(self):
        sim, group, leader, peer = self.propose_and_lose_the_replies()
        peer.send(leader.name, Decision(0, leader.proposals[0][1]))
        sim.run(until=0.02)
        self.assert_no_proposer_state(leader)
        assert group.delivered_log(0) == [Cmd("mine")]
        assert not leader.pending

    def test_another_value_chosen_requeues_ours(self):
        sim, group, leader, peer = self.propose_and_lose_the_replies()
        peer.send(leader.name, Decision(0, Batch((Cmd("theirs"),))))
        sim.run(until=0.02)
        assert group.delivered_log(0) == [Cmd("theirs")]
        # ours lost instance 0 to a higher ballot: back in pending and, as
        # the slot it held in the window is free, proposed again at once
        assert list(leader.proposals) == [1] and 0 not in leader._accepts
        assert leader.proposals[1][1] == Batch((Cmd("mine"),))
        assert not leader.pending and set(leader._accept_votes) == {1}


class TestChaosAgreement:
    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_message_storm_with_lossy_network(self, seed):
        sim = Simulator()
        net = Network(
            sim,
            default_latency=LogNormalLatency(0.002, sigma=0.7),
            rng=random.Random(seed),
            loss_probability=0.02,
        )
        group = PaxosGroup(
            "g0",
            net,
            config=GroupConfig(n_replicas=3, n_acceptors=5),
            rng=random.Random(seed),
        )
        group.start()
        rng = random.Random(seed)
        cmds = [Cmd(f"c{i}") for i in range(25)]
        for cmd in cmds:
            at = rng.uniform(0, 2.0)
            for replica in group.replicas:
                # submit-to-all with retransmission to mask losses
                sim.schedule(at, replica.submit, cmd)
                sim.schedule(at + 1.0, replica.submit, cmd)
                sim.schedule(at + 3.0, replica.submit, cmd)
        sim.run(until=30.0)
        logs = [group.delivered_log(i) for i in range(3)]
        assert logs[0] == logs[1] == logs[2]
        assert sorted(c.uid for c in logs[0]) == sorted(c.uid for c in cmds)
