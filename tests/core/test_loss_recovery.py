"""Loss recovery driven by evidence (``repro.sim.rto``, DESIGN.md §5).

Four sites re-send, each with one timer per outstanding item that the
evidence of success cancels: the Paxos leader's Accept (until its quorum),
a follower's buffered submission (until its delivery), BaseCast's
timestamp announcement (until every destination's timestamp is known)
and the reliable outbox (until the ack).  Each test below loses exactly
the message one site exists for, on the hop-budget rig with no client
timeout — nothing but that site can complete the command — after a
warm-up that taught every estimate the rig's round trips.  The command
must complete within a few RTO floors, where periodic re-sends took a
quarter to half a second.  A run that loses nothing arms timers and
fires none.
"""

import pytest

from repro.consensus.messages import Accept, Accepted, Submit
from repro.core.client import CallbackWorkload
from repro.core.messages import ReliableMsg, VarTransfer
from repro.multicast.messages import RemoteTs
from repro.sim.rto import RTO_FLOOR
from repro.smr import Command, History

from tests.core.test_hop_budget import rig
from tests.core.test_memory_budget import build_chirper

#: Single- and two-partition commands on k0 (p0) and k1 (p1).
WARM_UP = [
    Command(f"w:{i}", *(("write", ("k0", i)) if i % 2 else ("sum", ("k0", "k1"))))
    for i in range(40)
]
WRITE = Command("probe", "write", ("k0", -1))
SUM = Command("probe", "sum", ("k0", "k1"))


def run_losing(probe, lose, count=1, **config):
    """Run the warm-up and then ``probe``, losing the first ``count``
    messages ``lose(src, dst, message)`` picks once the probe is issued.
    Returns the probe's latency and the timer expiries by site."""
    system = rig(**config)
    commands = iter([*WARM_UP, probe])
    issued, lost = [], []

    def next_command(client):
        command = next(commands, None)
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
    fired = {
        key[len("retransmits{site="):-1]: n
        for key, n in system.monitor.counters().items()
        if key.startswith("retransmits")
    }
    return op.returned_at - op.invoked_at, fired


@pytest.mark.parametrize(
    "probe, lose, count, site, config",
    [
        # One acceptor: the Accept or the Accepted it answers is the quorum.
        (WRITE, lambda s, d, m: isinstance(m, Accept) and d == "p0/acc0", 1,
         "accept", {"n_acceptors": 1}),
        (WRITE, lambda s, d, m: isinstance(m, Accepted) and s == "p0/acc0", 1,
         "accept", {"n_acceptors": 1}),
        # The leader never hears of the command; the follower forwards it.
        (WRITE, lambda s, d, m: isinstance(m, Submit) and d == "p0/rep0", 1,
         "forward", {}),
        # p1's leader misses p0's timestamp; its follower forwards the event.
        (SUM, lambda s, d, m: isinstance(m, RemoteTs) and d == "p1/rep0", 1,
         "forward", {}),
        # Both replicas of p1 miss it: p0's leader announces it again.
        (SUM, lambda s, d, m: isinstance(m, RemoteTs) and m.from_group == "p0", 2,
         "remote_ts", {}),
        # Every copy of the transfer (two senders, two receivers) is lost.
        (SUM, lambda s, d, m: isinstance(m, ReliableMsg)
         and isinstance(m.payload, VarTransfer), 4, "outbox", {}),
    ],
    ids=["accept", "accepted", "submit_to_leader", "remote_ts_to_leader",
         "remote_ts_to_every_replica", "reliable_msg_every_copy"],
)
def test_one_lost_message_costs_a_few_rto_floors(probe, lose, count, site, config):
    latency, fired = run_losing(probe, lose, count, **config)
    assert fired.get(site, 0) >= 1, fired
    assert latency < 5 * RTO_FLOOR, (latency, fired)


def retransmitters(system):
    for group in system.directory.groups.values():
        for replica in group.replicas:
            yield replica._accepts
            yield replica._forwards
            yield replica._ts_probes
            if hasattr(replica, "reliable"):
                yield replica.reliable._timers


def test_a_run_that_loses_nothing_arms_timers_and_fires_none():
    system = build_chirper(stop_at=2.0)
    system.run(until=3.0)
    timers = list(retransmitters(system))
    armed = {}
    for timer in timers:
        armed[timer.site] = armed.get(timer.site, 0) + timer.arms
    assert set(armed) == {"accept", "forward", "remote_ts", "outbox"}
    assert all(armed.values()), armed
    assert sum(timer.retransmits for timer in timers) == 0
    assert not any(name.startswith("retransmits") for name in system.monitor.counters())
