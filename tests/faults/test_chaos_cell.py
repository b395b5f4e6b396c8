"""The exact gate's ``chaos`` cell under other fault schedules.

Regression: a leader that learnt an instance's decision by another path
than its own quorum of ``Accepted`` — a peer's ``Decision`` or
``LearnReply``, the acceptors on recovery — kept its proposal for it for
ever (``proposals`` / ``_proposal_time`` / ``_accept_votes``) and went on
retransmitting the ``Accept`` to acceptors that had truncated the
instance.  ``check_run`` reports it on a drained run as ``paxos proposals
1``: at chaos seed 70 under the strictly serial pump where it was found
(``p1/rep1``, instance 155 at ``next_deliver`` 290), at seeds 55 and 69
under the pump that lets independent commands pass (the trajectories
differ, the bug does not).  The cell takes a sixth of a second, so the
sweep the weekly chaos job runs is simply part of the suite.
"""

import pytest

from repro.experiments.perf import _chaos

from tests.core.conftest import assert_clean

DRAIN = 2.0


@pytest.mark.parametrize("chaos_seed", [55, 69, *range(70, 82)])
def test_drained_chaos_cell_is_clean(chaos_seed):
    system = _chaos(chaos_seed)
    system.run(until=system.sim.now + DRAIN)
    assert system.total_completed() > 100
    assert_clean(system)
