"""Loss recovery driven by evidence (``repro.sim.rto``, DESIGN.md §5).

Seven sites re-send, each with one timer per outstanding item that the
evidence of success cancels: the Paxos leader's Accept (until its quorum),
a candidate's Prepare (until a quorum promised), a follower's buffered
submission (until its delivery), a replica's gap in its log (until
delivery passes it), BaseCast's timestamp announcement (until every
destination's timestamp is known), the reliable outbox (until the ack) and
a timed client's attempt (until its first reply).  Each test below loses
exactly the message one site exists for, on the hop-budget rig with no
client timeout unless the site is the client's — nothing but that site can
complete the command without a new attempt — after a warm-up that taught
every estimate the rig's round trips.  The command must complete within a
few RTO floors, where periodic re-sends took a quarter to half a second.
A run that loses nothing arms timers and fires none.

Leader failure is detected at a deadline, not by a poll: a follower
suspects its leader exactly ``leader_timeout`` plus its jitter after the
last heartbeat arrived.
"""

import pytest

from repro.consensus.messages import (
    Accept,
    Accepted,
    Decision,
    Heartbeat,
    LearnRequest,
    Prepare,
    Submit,
)
from repro.core.client import CallbackWorkload, ScriptedWorkload
from repro.core.messages import ReliableMsg, VarTransfer
from repro.multicast.messages import RemoteTs
from repro.sim.rto import RTO_FLOOR
from repro.smr import Command, History, Reply

from tests.core.test_hop_budget import L, rig
from tests.core.test_memory_budget import build_chirper

#: ``ReplicaConfig.leader_timeout``: the longest a follower hears nothing
#: from its leader before it suspects it (plus up to 10 % jitter).
LEADER_TIMEOUT = 0.5

#: Single- and two-partition commands on k0 (p0) and k1 (p1).
WARM_UP = [
    Command(f"w:{i}", *(("write", ("k0", i)) if i % 2 else ("sum", ("k0", "k1"))))
    for i in range(40)
]
WRITE = Command("probe", "write", ("k0", -1))
SUM = Command("probe", "sum", ("k0", "k1"))


def run_losing(probe, lose, count=1, crash=None, **config):
    """Run the warm-up and then ``probe``, losing the first ``count``
    messages ``lose(src, dst, message)`` picks once the probe is issued,
    and crashing the replica named ``crash`` at that moment.  Returns the
    probe's latency, the timer expiries by site, the values p0 ordered
    from then on, and the system."""
    system = rig(**config)
    commands = iter([*WARM_UP, probe])
    issued, lost, ordered = [], [], []

    def values_ordered_by_p0():
        return max(replica.values_delivered for replica in system.servers("p0"))

    def next_command(client):
        command = next(commands, None)
        if command is probe:
            ordered.append(values_ordered_by_p0())
            if crash is not None:
                system.net.actor(crash).crash()
        issued.append(command)
        return command

    history = History()
    client = system.add_client(CallbackWorkload(next_command), history=history)
    send = system.net.send

    def lossy(src, dst, message, size=1):
        if issued[-1] is probe and len(lost) < count and lose(src, dst, message):
            lost.append(message)
        else:
            send(src, dst, message, size)

    system.net.send = lossy
    system.run(until=3.0)
    assert len(lost) == count, lost
    assert client.done and client.completed == len(WARM_UP) + 1
    op = history.operations[-1]
    assert op.command is probe
    ordered = values_ordered_by_p0() - ordered[0]
    return op.returned_at - op.invoked_at, expiries(system), ordered, system


def expiries(system):
    """The timer expiries of a run, by site."""
    return {
        key[len("retransmits{site="):-1]: n
        for key, n in system.monitor.counters().items()
        if key.startswith("retransmits")
    }


#: What a probe's partition p0 orders for it when nothing is lost: the
#: command, and for the two-partition one p1's timestamp too.
ORDERED = {WRITE: 1, SUM: 2}


@pytest.mark.parametrize(
    "probe, lose, count, site, config, crash",
    [
        # One acceptor: the Accept or the Accepted it answers is the quorum.
        (WRITE, lambda s, d, m: isinstance(m, Accept) and d == "p0/acc0", 1,
         "accept", {"n_acceptors": 1}, None),
        (WRITE, lambda s, d, m: isinstance(m, Accepted) and s == "p0/acc0", 1,
         "accept", {"n_acceptors": 1}, None),
        # The leader never hears of the command; the follower forwards it.
        (WRITE, lambda s, d, m: isinstance(m, Submit) and d == "p0/rep0", 1,
         "forward", {}, None),
        # p1's leader misses p0's timestamp; its follower forwards the event.
        (SUM, lambda s, d, m: isinstance(m, RemoteTs) and d == "p1/rep0", 1,
         "forward", {}, None),
        # Both replicas of p1 miss it: p0's leader announces it again.
        (SUM, lambda s, d, m: isinstance(m, RemoteTs) and m.from_group == "p0", 2,
         "remote_ts", {}, None),
        # Every copy of the transfer (two senders, two receivers) is lost.
        (SUM, lambda s, d, m: isinstance(m, ReliableMsg)
         and isinstance(m.payload, VarTransfer), 4, "outbox", {}, None),
        # The other replica is down, so the leader's Reply is the only
        # one: the client asks for it again instead of ordering a retry.
        (WRITE, lambda s, d, m: isinstance(m, Reply) and s == "p0/rep0", 1,
         "reply", {"client_timeout": 0.25}, "p0/rep1"),
        # The leader is down and its successor's Prepare reaches one
        # acceptor of three: it asks the other two again, same ballot,
        # on the estimate it took as a follower (submit to delivery).
        (WRITE, lambda s, d, m: isinstance(m, Prepare), 2,
         "prepare", {}, "p0/rep0"),
    ],
    ids=["accept", "accepted", "submit_to_leader", "remote_ts_to_leader",
         "remote_ts_to_every_replica", "reliable_msg_every_copy",
         "reply_of_the_only_replica", "prepare_to_two_acceptors"],
)
def test_one_lost_message_costs_a_few_rto_floors(probe, lose, count, site, config, crash):
    """Each lost message costs a few RTO floors: no new attempt, nothing
    ordered twice, and no ballot but the one a crashed leader forces
    (whose successor first has to notice the crash: ``leader_timeout``
    plus jitter after the last heartbeat arrived)."""
    latency, fired, ordered, system = run_losing(probe, lose, count, crash, **config)
    within = 5 * RTO_FLOOR
    if crash == "p0/rep0":
        within += 1.1 * LEADER_TIMEOUT + L
    assert fired.get(site, 0) >= 1, fired
    assert latency < within, (latency, fired)
    client = system.clients[0]
    assert client.timeouts == client.retries == 0
    assert ordered == ORDERED[probe]
    assert max(r.ballot for r in system.servers("p0")) == (crash == "p0/rep0")


@pytest.mark.parametrize("crash_at", [1.0, 1.23, 1.46])
def test_a_follower_suspects_its_leader_at_the_deadline(crash_at):
    """A follower starts phase 1 exactly ``leader_timeout`` plus its
    jitter after the last Heartbeat arrived (one link delay after it was
    sent), wherever the crash falls.  A poll with period
    ``leader_timeout`` took up to about 2.1 × ``leader_timeout``."""
    system = rig()
    leader, follower = system.servers("p0")
    heartbeats, prepares = [], []
    send = system.net.send

    def spy(src, dst, message, size=1):
        if isinstance(message, Heartbeat) and dst == follower.name:
            heartbeats.append(system.sim.now)
        elif isinstance(message, Prepare) and src == follower.name:
            prepares.append(system.sim.now)
        send(src, dst, message, size)

    system.net.send = spy
    system.run(until=crash_at)
    leader.crash()
    system.run(until=crash_at + 3 * LEADER_TIMEOUT)
    silence = prepares[0] - heartbeats[-1] - L
    assert LEADER_TIMEOUT <= silence <= 1.1 * LEADER_TIMEOUT, (heartbeats[-1], prepares)
    assert silence == pytest.approx(follower._suspect_after)
    assert follower.is_leader and follower.ballot == 1


def test_a_new_leaders_first_accept_is_timed_by_its_prepare_round_trip():
    """A follower that never led has no Accept round trip of its own, but
    its phase 1 measured one: Prepare to a quorum of Promises.  When the
    first Accept it sends is lost, it re-sends after about that round
    trip, not after the estimator's cap of 0.25 s."""
    system = rig()
    leader, follower = system.servers("p0")
    system.run(until=0.5)
    leader.crash()
    accepts = []
    send = system.net.send

    def lossy(src, dst, message, size=1):
        if isinstance(message, Accept) and src == follower.name:
            accepts.append(system.sim.now)
            if len(accepts) <= 2:
                return  # the first Accept reaches one acceptor of three
        send(src, dst, message, size)

    system.net.send = lossy
    client = system.add_client(ScriptedWorkload([WRITE]))
    client.start()
    system.run(until=3.0)
    assert client.done and client.completed == 1
    assert follower.is_leader and expiries(system)["accept"] == 1
    assert accepts[3] - accepts[0] < 5 * RTO_FLOOR, accepts


def test_a_lost_decision_and_the_request_for_it_cost_a_few_rto_floors():
    """A follower misses a Decision and then the LearnRequest that the
    next Decision made it send.  The gap it timed (site ``learn``) expires
    after one RTO and asks every peer; before, it waited for the 0.2 s
    catch-up tick.  On a constant-latency link nothing else opens a gap,
    so the warm-up loses one Decision whose LearnRequest gets through,
    which teaches the estimate how long a gap takes to close."""
    system = rig()
    follower = system.servers("p0")[1]
    commands = iter([*WARM_UP, SUM])
    issued, lost, caught_up = [], [], []

    def next_command(client):
        command = next(commands, None)
        issued.append(command)
        return command

    client = system.add_client(CallbackWorkload(next_command))
    send = system.net.send

    def lossy(src, dst, message, size=1):
        to_follower = isinstance(message, Decision) and dst == follower.name
        if (
            (to_follower and not lost and len(issued) > 10)
            or (to_follower and len(lost) == 1 and issued[-1] is SUM)
            or (isinstance(message, LearnRequest) and len(lost) == 2)
        ):
            lost.append((system.sim.now, message))
        else:
            send(src, dst, message, size)

    deliver = follower.deliver_value

    def deliver_value(value):
        if len(lost) == 3 and not caught_up and follower.next_deliver > lost[1][1].instance:
            caught_up.append(system.sim.now)
        deliver(value)

    system.net.send = lossy
    follower.deliver_value = deliver_value
    system.run(until=3.0)
    assert [type(message) for _, message in lost] == [Decision, Decision, LearnRequest]
    assert client.done and client.completed == len(WARM_UP) + 1
    assert follower._gaps.srtt is not None and expiries(system)["learn"] == 1
    assert caught_up[0] - lost[1][0] < 5 * RTO_FLOOR, (caught_up, lost)


def probes_after_warm_up(fault, *commands):
    """Run the warm-up on one client, then ``fault(system)`` (which
    returns what it lost), then each command on a client of its own, all
    issued at once.  Returns each command's latency, what was lost and
    the timer expiries by site."""
    system = rig()
    system.add_client(ScriptedWorkload(list(WARM_UP)))
    system.run(until=1.0)
    lost = fault(system)
    history = History()
    clients = [
        system.add_client(ScriptedWorkload([command]), history=history)
        for command in commands
    ]
    for client in clients:
        client.start()
    system.run(until=3.0)
    assert all(client.done and client.completed == 1 for client in clients)
    latencies = [op.returned_at - op.invoked_at for op in history.operations]
    return latencies, lost, expiries(system)


def drop(system, lose, count=None):
    """From now on lose (the first ``count`` of) the messages that
    ``lose(src, dst, message)`` picks; returns the list of the lost."""
    send, lost = system.net.send, []

    def lossy(src, dst, message, size=1):
        if (count is None or len(lost) < count) and lose(src, dst, message):
            lost.append(message)
        else:
            send(src, dst, message, size)

    system.net.send = lossy
    return lost


class TestProbeStalls:
    """A leader missing a group's timestamp probes every replica of that
    group (:class:`~repro.multicast.messages.TsProbe`), and any replica
    that knows the timestamp answers.  The probe was a duplicate
    ``OrderEvent``, which only a leader answered, and only for a message
    it had a-delivered: both stalls below lasted until the run ended."""

    def test_a_follower_answers_when_its_leader_cannot_hear(self):
        """The leaders of p0 and p1 are cut from each other and p0's
        follower is down: p1's timestamp reaches no replica of p0, and
        p0's probe reaches only p1's follower."""

        def cut_leaders_and_crash_a_follower(system):
            leaders = {system.servers(p)[0].name for p in ("p0", "p1")}
            system.servers("p0")[1].crash()
            return drop(system, lambda src, dst, message: {src, dst} == leaders)

        latencies, lost, fired = probes_after_warm_up(
            cut_leaders_and_crash_a_follower, SUM
        )
        assert lost and fired["remote_ts"] >= 1
        assert latencies[0] < 5 * RTO_FLOOR, (latencies, fired)

    def test_a_message_pending_at_the_receiver_is_answered(self):
        """Two concurrent two-partition commands, ordered ``pb`` before
        ``pa`` in both groups.  p0 loses p1's timestamp of ``pb`` and p1
        loses p0's of ``pa``: ``pb`` heads p0's queue and ``pa`` p1's,
        each group's probe is for a message the other has pending, where
        Paxos uid dedup dropped it."""
        lose = {("p1", "pb"), ("p0", "pa")}

        def lose_each_head_timestamp(system):
            return drop(
                system,
                lambda src, dst, message: isinstance(message, RemoteTs)
                and (message.from_group, message.msg_uid.split(":")[1]) in lose,
                count=4,
            )

        latencies, lost, fired = probes_after_warm_up(
            lose_each_head_timestamp,
            Command("pb", "sum", ("k0", "k1")),
            Command("pa", "sum", ("k0", "k1")),
        )
        assert len(lost) == 4 and fired["remote_ts"] >= 2
        assert max(latencies) < 5 * RTO_FLOOR, (latencies, fired)


def retransmitters(system):
    for group in system.directory.groups.values():
        for replica in group.replicas:
            yield replica._accepts
            yield replica._prepares
            yield replica._forwards
            yield replica._gaps
            yield replica._ts_probes
            if hasattr(replica, "reliable"):
                yield replica.reliable._timers
    for client in system.clients:
        if client._replies is not None:
            yield client._replies


def test_a_run_that_loses_nothing_arms_timers_and_fires_none():
    """Untimed clients, as on every loss-free benchmark workload: no
    ``reply`` site.  ``prepare`` is armed only at an election."""
    system = build_chirper(stop_at=2.0)
    system.run(until=3.0)
    timers = list(retransmitters(system))
    armed = {}
    for timer in timers:
        armed[timer.site] = armed.get(timer.site, 0) + timer.arms
    assert armed.pop("prepare") == 0
    assert set(armed) == {"accept", "forward", "learn", "remote_ts", "outbox"}
    assert all(armed.values()), armed
    assert sum(timer.retransmits for timer in timers) == 0
    assert not any(name.startswith("retransmits") for name in system.monitor.counters())
