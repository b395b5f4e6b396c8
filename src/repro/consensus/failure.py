"""Failure-injection helpers for consensus and end-to-end tests."""

from __future__ import annotations

from repro.sim.events import Simulator
from repro.consensus.group import PaxosGroup


def crash_leader_at(sim: Simulator, group: PaxosGroup, time: float) -> None:
    """Crash whichever replica leads ``group`` at virtual time ``time``."""

    def do_crash() -> None:
        leader = group.leader
        if leader is not None:
            leader.crash()

    sim.schedule_at(time, do_crash)


def crash_acceptor_at(
    sim: Simulator, group: PaxosGroup, index: int, time: float
) -> None:
    """Crash acceptor ``index`` of ``group`` at virtual time ``time``."""
    sim.schedule_at(time, group.acceptors[index].crash)


def crash_minority_acceptors_at(
    sim: Simulator, group: PaxosGroup, time: float
) -> None:
    """Crash as many acceptors as possible while keeping a quorum alive."""
    minority = (len(group.acceptors) - 1) // 2
    for index in range(minority):
        crash_acceptor_at(sim, group, index, time)
