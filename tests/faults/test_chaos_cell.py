"""The exact gate's ``chaos`` cell under other fault schedules.

Regression: a leader that learnt an instance's decision by another path
than its own quorum of ``Accepted`` — a peer's ``Decision`` or
``LearnReply``, the acceptors on recovery — kept its proposal for it for
ever (``proposals`` / ``_accept_votes`` and the timer of its ``Accept``)
and went on retransmitting the ``Accept`` to acceptors that had truncated
the instance.  ``check_run`` reports it on a drained run as ``paxos proposals
1``: at chaos seed 70 under the strictly serial pump where it was found
(``p1/rep1``, instance 155 at ``next_deliver`` 290), at seeds 55 and 69
under the pump that lets independent commands pass (the trajectories
differ, the bug does not).  The cell takes a sixth of a second, so the
sweep the weekly chaos job runs is simply part of the suite; seeds 82-97
keep the timestamp probes (``TsProbe``) and gap repair under varied
fault schedules.
"""

import pytest

from repro.core.messages import ExecutionHint
from repro.experiments.perf import GATE_DRAIN, _chaos
from repro.multicast.basecast import GroupDirectory

from tests.core.conftest import assert_clean

DRAIN = 2.0


@pytest.mark.parametrize("chaos_seed", [55, 69, *range(70, 98)])
def test_drained_chaos_cell_is_clean(chaos_seed):
    system = _chaos(chaos_seed)
    system.run(until=system.sim.now + DRAIN)
    assert system.total_completed() > 100
    assert_clean(system)


@pytest.mark.parametrize("chaos_seed", [77, 70, 71])
def test_replicas_number_hints_alike_and_capture_equal_server_state(
    chaos_seed, monkeypatch
):
    """Regression: hints were numbered by the timer ticks a replica saw,
    so one that was down a few ticks numbered every later hint lower than
    its peer — the oracle counted one hint twice and dropped another — and
    the two captured different ``server.state`` at equal ``next_deliver``
    for good (the gate's cell, seed 77: ``hint_seq`` 8 vs 11 on p0).  A
    hint is numbered by its period of the clock now, and a replica that
    recovers cuts its hints at its group's instants again."""
    sent = {}  # (partition, replica) -> {period: number}
    amcast_local = GroupDirectory.amcast_local

    def recording(directory, replica, message):
        if isinstance(message.payload, ExecutionHint):
            period = round(replica.now / replica.hint_period)
            sent.setdefault((replica.partition, replica.name), {})[period] = message.n
        amcast_local(directory, replica, message)

    monkeypatch.setattr(GroupDirectory, "amcast_local", recording)
    system = _chaos(chaos_seed)
    system.run(until=system.sim.now + GATE_DRAIN)
    assert_clean(system)
    for partition in system.partition_names:
        first, second = system.servers(partition)
        numbers = [sent[partition, server.name] for server in (first, second)]
        assert all(n == period - 1 for cut in numbers for period, n in cut.items())
        assert first.next_deliver == second.next_deliver
        assert (
            first.capture_app_state()["server.state"]
            == second.capture_app_state()["server.state"]
        )
