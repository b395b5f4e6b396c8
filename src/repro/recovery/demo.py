"""Seeded chaos run that must end in a snapshot-based recovery.

CI runs this as a smoke check of the whole checkpoint → truncate →
snapshot-transfer pipeline on a live system::

    PYTHONPATH=src python -m repro.experiments recovery

A partition replica crashes at t=0.05 while a write burst keeps the
group busy; with checkpoints every 4 instances the group compacts its
log far past the crash point, so the scripted recovery at t=4 can only
succeed through a peer snapshot.  The runner
(:mod:`repro.experiments.__main__`) judges the drained run with
``check_run`` — replicas converged, nothing left in flight, the recorded
history linearizable — and :meth:`RecoveryScenario.gates` adds that the
log was truncated and a snapshot recovery completed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.faults import ChaosInjector, FaultSchedule
from repro.sim import ConstantLatency
from repro.smr import Command, History, KeyValueApp


@dataclass(frozen=True)
class RecoveryScenario:
    """One crash-and-recover-by-snapshot run, fully seeded."""

    seed: int = 3
    writes: int = 40
    #: Checkpoint every this many delivered instances.
    interval: int = 4
    #: The scripted client needs no ``stop_at``; the run ends here plus
    #: the harness's drain, a minute in all.
    duration: float = 30.0
    tracing: bool = True

    def build(self) -> DynaStarSystem:
        app = KeyValueApp({f"k{i}": i for i in range(8)})
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=2,
                seed=self.seed,
                latency=ConstantLatency(0.001),
                repartition_enabled=False,
                checkpoint_interval=self.interval,
                tracing=self.tracing,
            ),
        )
        part = system.initial_assignment["k0"]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 1)
            .at(4.0, "recover_replica", part, 1)
        )
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"c:{i}", "write", ("k0", i)) for i in range(self.writes)]
        # Short and scripted: the one scenario whose history is recorded.
        system.add_client(ScriptedWorkload(cmds), history=History())
        return system

    def summarize(self, system) -> dict:
        part = system.initial_assignment["k0"]
        labeled = system.monitor.labeled_counters
        return {
            "completed": system.total_completed(),
            "failed": system.total_failed(),
            "checkpoints": labeled("checkpoint").get(part, 0),
            "truncations": labeled("log_truncated").get(part, 0),
            "snapshot_recoveries": labeled("snapshot_recoveries").get(part, 0),
        }

    def gates(self, summary: dict) -> list[str]:
        problems = []
        if summary["completed"] != self.writes:
            problems.append("client did not complete every command")
        if summary["snapshot_recoveries"] < 1:
            problems.append("no snapshot-based recovery happened")
        if summary["truncations"] < 1:
            problems.append("the log was never truncated")
        return problems


#: Already CI-sized: ``--quick`` runs the same scenario.
FULL = QUICK = RecoveryScenario()
