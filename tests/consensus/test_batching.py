"""The self-clocked batching rule of the Paxos leader.

An idle leader proposes a value in the tick it is submitted; a value that
arrives behind an instance in flight waits for that instance's decision or
for ``batch_delay``, whichever comes first, and leaves in one batch with
everything that arrived meanwhile.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus import GroupConfig, PaxosGroup
from repro.consensus.paxos import ReplicaConfig
from repro.sim import ConstantLatency, Network, Simulator

BATCH_DELAY = 0.0005


@dataclass(frozen=True)
class Cmd:
    uid: str


def make_leader(hop, **replica_kwargs):
    """A started group on a constant ``hop`` latency; returns the leader
    and the list its proposals are logged to as (time, instance, uids)."""
    sim = Simulator()
    net = Network(sim, default_latency=ConstantLatency(hop), rng=random.Random(1))
    config = GroupConfig(
        n_replicas=2,
        n_acceptors=3,
        replica=ReplicaConfig(batch_delay=BATCH_DELAY, **replica_kwargs),
    )
    group = PaxosGroup("g0", net, config=config, rng=random.Random(1))
    group.start()
    leader = group.replicas[0]
    proposed = []
    propose = leader._propose

    def logging_propose(instance, batch):
        proposed.append((sim.now, instance, tuple(v.uid for v in batch.values)))
        propose(instance, batch)

    leader._propose = logging_propose
    return sim, group, leader, proposed


def submit_at(sim, leader, when, uid):
    sim.schedule_at(when, leader.submit, Cmd(uid))


class TestIdleLeader:
    def test_proposes_in_the_tick_of_the_submission(self):
        sim, _, leader, proposed = make_leader(0.001)
        events_before = sim.events_processed
        leader.submit(Cmd("a"))
        # No event ran and no timer was armed: the Accepts are already out.
        assert sim.events_processed == events_before
        assert proposed == [(0.0, 0, ("a",))]
        assert leader._batch_timer is None
        assert not leader.pending

    def test_every_spaced_out_submission_goes_out_at_once(self):
        sim, group, leader, proposed = make_leader(0.001)
        times = [0.01 * i for i in range(1, 6)]  # far apart: always idle
        for i, t in enumerate(times):
            submit_at(sim, leader, t, f"c{i}")
        sim.run(until=0.1)
        assert [(t, uids) for t, _, uids in proposed] == [
            (t, (f"c{i}",)) for i, t in enumerate(times)
        ]
        assert leader._batch_timer is None
        assert [c.uid for c in group.delivered_log(1)] == [f"c{i}" for i in range(5)]


class TestBehindWorkInFlight:
    def test_batch_delay_comes_first_on_a_slow_round(self):
        # Accept round trip 2 ms > batch_delay 0.5 ms.
        sim, _, leader, proposed = make_leader(0.001)
        submit_at(sim, leader, 0.0, "a")
        submit_at(sim, leader, 0.0001, "b")
        submit_at(sim, leader, 0.0003, "c")
        sim.run(until=0.0015)
        assert proposed == [
            (0.0, 0, ("a",)),
            (pytest.approx(0.0001 + BATCH_DELAY), 1, ("b", "c")),
        ]

    def test_the_decision_comes_first_on_a_fast_round(self):
        # Accept round trip 0.2 ms < batch_delay 0.5 ms.
        sim, _, leader, proposed = make_leader(0.0001)
        submit_at(sim, leader, 0.0, "a")
        submit_at(sim, leader, 0.00005, "b")
        submit_at(sim, leader, 0.0001, "c")
        sim.run(until=0.01)
        assert proposed == [
            (0.0, 0, ("a",)),
            (pytest.approx(0.0002), 1, ("b", "c")),
        ]

    def test_a_full_batch_does_not_wait(self):
        sim, _, leader, proposed = make_leader(0.001, max_batch=4)
        for i in range(6):
            leader.submit(Cmd(f"c{i}"))
        assert proposed == [
            (0.0, 0, ("c0",)),
            (0.0, 1, ("c1", "c2", "c3", "c4")),
        ]
        sim.run(until=BATCH_DELAY + 1e-9)
        assert proposed[2:] == [(pytest.approx(BATCH_DELAY), 2, ("c5",))]


class TestAcceptorsCutOff:
    def test_batch_delay_bounds_the_wait_and_window_the_instances(self):
        sim, group, leader, proposed = make_leader(0.001, window=3)
        for acceptor in group.acceptors:
            acceptor.crash()
        for i in range(6):
            submit_at(sim, leader, 0.001 * i, f"c{i}")
        sim.run(until=0.05)
        # No decision ever clocks a flush: the deadline alone does, until
        # the window is full; the rest stays buffered.
        assert proposed == [
            (0.0, 0, ("c0",)),
            (pytest.approx(0.001 + BATCH_DELAY), 1, ("c1",)),
            (pytest.approx(0.002 + BATCH_DELAY), 2, ("c2",)),
        ]
        assert len(leader.proposals) == 3
        assert [c.uid for c in leader.pending.values()] == ["c3", "c4", "c5"]

        for acceptor in group.acceptors:
            acceptor.recover()
        sim.run(until=2.0)
        assert [c.uid for c in group.delivered_log(0)] == [f"c{i}" for i in range(6)]
        assert proposed[3][2] == ("c3", "c4", "c5")


@given(
    gaps=st.lists(
        st.sampled_from([0.0, 0.00005, 0.0002, 0.0005, 0.003]), min_size=1, max_size=40
    ),
    hop=st.sampled_from([0.0001, 0.001]),
    max_batch=st.sampled_from([1, 3, 64]),
    window=st.sampled_from([1, 2, 32]),
)
@settings(max_examples=60, deadline=None)
def test_every_value_is_proposed_exactly_once_in_submission_order(
    gaps, hop, max_batch, window
):
    sim, group, leader, proposed = make_leader(hop, max_batch=max_batch, window=window)
    when, uids = 0.0, []
    for i, gap in enumerate(gaps):
        when += gap
        uids.append(f"c{i}")
        submit_at(sim, leader, when, uids[-1])
    sim.run(until=when + 1.0)
    assert [uid for _, _, batch in proposed for uid in batch] == uids
    assert [instance for _, instance, _ in proposed] == list(range(len(proposed)))
    assert all(len(batch) <= max_batch for _, _, batch in proposed)
    assert [c.uid for c in group.delivered_log(1)] == uids
