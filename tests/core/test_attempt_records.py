"""One record per attempt, one tombstone after (``PartitionServer._attempts``
/ ``_closed``).

A record lives from the first mention of an attempt ``(uid, attempt)`` —
the a-delivered command or a message about it — until the command leaves
the queue; after that a tombstone answers every late message about it.  So
nothing about a finished attempt is kept but the tombstone, the replicas of
a partition keep the same, and a drained server holds no record at all.
"""

import pytest

from repro.core.messages import (
    GlobalCommand,
    ReliableMsg,
    TransferFailed,
    VarReturn,
    VarTransfer,
)
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command

from tests.core.conftest import tapped_sends
from tests.core.test_client_table import adeliver, build, move, settle
from tests.core.test_lanes import held_back
from tests.core.test_memory_budget import N_CLIENTS, build_chirper

WINDOW, DRAINED = 3.0, 12.0


def lossy_schedule(system):
    """Loss bursts and a flapping link between the two partitions, all
    healed well before the drain ends."""
    a, b = system.servers("p0")[0].name, system.servers("p1")[1].name
    return (
        FaultSchedule()
        .at(0.6, "loss_burst", 0.4, 0.3)
        .at(1.2, "cut", a, b)
        .at(1.6, "heal", a, b)
        .at(2.0, "loss_burst", 0.5, 0.2)
    )


def peak_attempts(server) -> list:
    """``[records, ahead]``: the largest ``len(_attempts)`` ``server``
    has at the end of a pump (every record is created just before one),
    and the largest number of those whose payload is not in its queue —
    opened by a message that overtook the command's a-delivery."""
    peak, pump = [0, 0], server._pump

    def pumped():
        pump()
        queued = {
            (payload.command.uid, payload.attempt)
            for payload in server.queue
            if hasattr(payload, "command")
        }
        ahead = sum(key not in queued for key in server._attempts)
        peak[0] = max(peak[0], len(server._attempts))
        peak[1] = max(peak[1], ahead)

    server._pump = pumped
    return peak


@pytest.mark.parametrize("faults", [False, True], ids=["fault_free", "lossy"])
def test_drained_servers_hold_no_record_and_replicas_capture_alike(faults):
    """The Chirper deployment of ``test_memory_budget`` (repartitioning on,
    so attempts abort and retry), run and drained."""
    if faults:
        system = build_chirper(
            stop_at=WINDOW, loss_probability=0.02, repartition_threshold=600,
            client_timeout=0.25, client_timeout_cap=2.0,
        )
        ChaosInjector(system, lossy_schedule(system)).arm()
    else:
        system = build_chirper(stop_at=WINDOW)
    peaks = [
        peak_attempts(server)
        for partition in system.partition_names
        for server in system.servers(partition)
    ]
    system.run(until=DRAINED)
    assert all(client.done for client in system.clients)
    # In flight, not growth.  A record opened by a message ahead of its
    # command stands for a command a client has outstanding (or an
    # earlier attempt of it): at most one per client (measured 1
    # fault-free, 2-6 lossy).  Every other record is of a payload in the
    # queue, and the queue is what bounds those: a follower whose
    # Decisions and gap repair were lost in a burst (p1/rep1 stops at
    # instance 981 from t = 2.40 to 2.60 while its peer orders 34 more)
    # delivers them in one catch-up and then executes the backlog at the
    # service time, while the clients, which take the first reply, keep
    # the pace of its peer (measured 3-4 records fault-free; lossy 3-4 at
    # the replicas that kept up, 7 and 12 at the two that fell 22 and 35
    # commands behind — a fall the slower loss recovery of periodic
    # re-sends never let the clients run far enough to show).
    assert all(0 < records and ahead <= N_CLIENTS for records, ahead in peaks), peaks
    assert system.monitor.counters().get("retries_sent", 0) > 0  # attempts aborted
    for partition in system.partition_names:
        first, second = system.servers(partition)
        for server in (first, second):
            # Every source of an aborted gather shipped (and was bounced)
            # or reported its failure: no tombstone still waits.
            assert not server.queue and not server._attempts and not server._unbounced
        assert first._closed and first._closed == second._closed
        assert (
            first.capture_app_state()["server.state"]
            == second.capture_app_state()["server.state"]
        )


class TestLateMessagesForAClosedAttempt:
    @staticmethod
    def transfer(target):
        return GlobalCommand(
            Command("probe:1", "transfer", ("x", "z", 1)), "probe", 0, target,
            (("x", "p0"), ("z", "p1")), seq=1,
        )

    @staticmethod
    def late_messages():
        return [
            VarTransfer("probe:1", "p0", (("x", 10),), 0),
            VarReturn("probe:1", "p1", (("x", 9),), 0),
            TransferFailed("probe:1", "p0", 0),
        ]

    @staticmethod
    def deliver_late(server, message):
        """Hand ``message`` to ``server``; what it sent in reply."""
        sent = []
        send = server.send
        server.send = lambda dst, msg: sent.append(msg)
        try:
            server.on_app_message("elsewhere", message)
        finally:
            server.send = send
        assert not server._attempts, f"{type(message).__name__} created a record"
        return sent

    def test_finished_attempt_drops_them_all(self):
        system, _ = build()
        adeliver(system, self.transfer("p1"), ("p0", "p1"))
        settle(system)
        for partition in ("p0", "p1"):
            for server in system.servers(partition):
                assert server._closed == {"probe:1": 1} and not server._unbounced
                for message in self.late_messages():
                    assert self.deliver_late(server, message) == []
        assert system.servers("p0")[0].store.get("x") == 9

    def test_aborted_target_bounces_the_transfer_and_only_that(self):
        """The target no longer owns its node and aborts the gather: a
        transfer that arrives afterwards goes straight back, unmodified;
        the source, which closed the attempt without aborting it as the
        target, drops everything.  Each source replica ships a copy and
        either may arrive twice: the target bounces once per source."""
        system, _ = build()
        move(system, 1, z="p0")  # p1, the target, loses z
        with held_back(system, VarTransfer):
            adeliver(system, self.transfer("p1"), ("p0", "p1"))
            settle(system, 1.0)
            for target in system.servers("p1"):
                # aborted with p0's transfer on its way: p0 is left to bounce
                assert target._is_closed(("probe:1", 0))
                assert target._unbounced == {("probe:1", 0): ("p0",)}
        bounces = []
        with tapped_sends(system, lambda src, dst, msg: bounces.append(msg)):
            settle(system, 1.0)
        bounces = [m.payload for m in bounces if isinstance(m, ReliableMsg)]
        sources, targets = system.servers("p0"), system.servers("p1")
        assert bounces == [VarReturn("probe:1", "p1", (("x", 10),), 0)] * (
            len(targets) * len(sources)
        )
        transfer, returned, failed = self.late_messages()
        for target in targets:
            assert target._is_closed(("probe:1", 0)) and not target._unbounced
            for message in (transfer, returned, failed):
                assert self.deliver_late(target, message) == []
        for source in sources:
            assert source._closed == {"probe:1": 1} and not source._unbounced
            assert source.store.get("x") == 10  # bounced home, unchanged
            for message in (transfer, returned, failed):
                assert self.deliver_late(source, message) == []

    def test_aborted_target_stops_waiting_for_a_source_that_failed(self):
        """A source that reports ``TransferFailed`` after the target
        aborted will never ship: the tombstone keeps nothing for it, and
        a later copy of the failure changes nothing."""
        system, _ = build()
        move(system, 1, z="p0")
        with held_back(system, VarTransfer):
            adeliver(system, self.transfer("p1"), ("p0", "p1"))
            settle(system, 1.0)
            target = system.servers("p1")[0]
            assert target._unbounced == {("probe:1", 0): ("p0",)}
            failed = self.late_messages()[2]
            for _ in range(2):
                assert self.deliver_late(target, failed) == []
                assert target._is_closed(("probe:1", 0)) and not target._unbounced

    def test_message_ahead_of_its_command_opens_the_record(self):
        """First mention: a transfer that overtakes the command's own
        a-delivery is buffered in a record the command then finds."""
        system, _ = build()
        target = system.servers("p1")[0]
        target.on_app_message("elsewhere", VarTransfer("probe:1", "p0", (("x", 10),), 0))
        assert list(target._attempts) == [("probe:1", 0)] and not target._closed
        adeliver(system, self.transfer("p1"), ("p0", "p1"))
        settle(system)
        assert not target._attempts and target._closed == {"probe:1": 1}
        assert target.store.get("z") == 31
