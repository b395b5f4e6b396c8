"""Compartmentalized read-path scenario: proxy-leader ingress, scaled
read learners, and leader-lease local reads under a read-heavy mix.

A closed-loop fleet hammers a small keyspace with ~90% reads.  With
compartmentalization off, every read is ordered and executed at every
replica of its partition — replication adds fault tolerance, not read
throughput, so the run saturates at the replicas' service rate.  With
it on, each read executes at exactly one of the partition's learners
after a lease-checked sequencing probe, so read capacity scales with
the learner count; :meth:`CompartmentScenario.gates` requires the
3-learner deployment to complete at least 2x the leader-only baseline
on the same offered load.

Run and judged by ``python -m repro.experiments compartment [--quick]
[--chaos]`` (:mod:`repro.experiments.__main__`); :func:`run_ablation` is
the learner-count x lease grid.  That the traced ``--quick`` scenario
replays byte-for-byte in every cell of {compartment on, off} x {chaos
on, off} is checked by the ``compartment``, ``compartment_chaos``,
``leader_only`` and ``leader_only_chaos`` cells of
:mod:`repro.experiments.perf`.  ``--chaos`` fires the two stage fault
kinds (``crash_proxy_leader``, ``expire_lease``) on a fine grid across
the run; both resolve applicability at fire time, so ticks that land on
an idle stage no-op.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.compartment import CompartmentConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.experiments.harness import run_scenario
from repro.faults import FaultSchedule
from repro.faults.injector import ChaosInjector
from repro.sim.latency import ConstantLatency
from repro.smr import Command, KeyValueApp


class ReadHeavyWorkload(Workload):
    """Seeded read-mostly mix over a small, cache-warm keyspace.

    ``read_fraction`` of commands are single-key reads; the rest are
    single-key writes (which keep the location caches warm and give the
    lease probes real write traffic to sequence against).
    """

    def __init__(self, keys, read_fraction: float, seed: int, client_tag: str):
        self.keys = list(keys)
        self.read_fraction = read_fraction
        self.rng = random.Random(seed)
        self.client_tag = client_tag
        self._seq = 0
        self.reads_issued = 0
        self.failures: list[tuple[str, str]] = []

    def next_command(self, client) -> Command:
        i = self._seq
        self._seq += 1
        uid = f"{self.client_tag}:{i}"
        key = self.rng.choice(self.keys)
        if self.rng.random() < self.read_fraction:
            self.reads_issued += 1
            return Command(uid, "read", (key,))
        return Command(uid, "write", (key, i))

    def on_command_failed(self, client, command, reason) -> None:
        self.failures.append((command.uid, reason))


@dataclass(frozen=True)
class CompartmentScenario:
    """One read-heavy run, fully seeded."""

    seed: int = 33
    n_keys: int = 16
    n_clients: int = 24
    duration: float = 6.0
    read_fraction: float = 0.9
    #: Per-command CPU cost at replicas *and* learners — the scarce
    #: resource the learner fan-out multiplies.
    service_time: float = 0.002
    compartment: bool = True
    n_learners: int = 3
    n_proxies: int = 2
    lease: bool = True
    chaos: bool = False
    tracing: bool = False

    def build(self) -> DynaStarSystem:
        """The system of one run: clients attached, the stage fault comb
        armed when ``chaos``."""
        keys = [f"k{i:02d}" for i in range(self.n_keys)]
        system = DynaStarSystem(
            KeyValueApp({key: i for i, key in enumerate(keys)}),
            SystemConfig(
                n_partitions=2,
                seed=self.seed,
                latency=ConstantLatency(0.001),
                repartition_enabled=False,
                service_time=self.service_time,
                client_timeout=0.25,
                client_timeout_cap=2.0,
                idempotency_keys=True,
                tracing=self.tracing,
                compartment=CompartmentConfig(
                    enabled=self.compartment,
                    n_proxy_leaders=self.n_proxies,
                    n_learners=self.n_learners,
                    lease_enabled=self.lease,
                ),
            ),
        )
        if self.chaos:
            ChaosInjector(system, chaos_schedule(self)).arm()
        for i in range(self.n_clients):
            system.add_client(
                ReadHeavyWorkload(
                    keys, self.read_fraction,
                    seed=self.seed * 1000 + i, client_tag=f"c{i}",
                ),
                stop_at=self.duration,
            )
        return system

    def summarize(self, system) -> dict:
        counters = system.monitor.snapshot()["counters"]

        def _sum(prefix: str, event: str = "") -> int:
            return sum(
                v for k, v in counters.items() if k.startswith(prefix) and event in k
            )

        return {
            "completed": system.total_completed(),
            "failed": system.total_failed(),
            "workload_failures": sum(len(c.workload.failures) for c in system.clients),
            "local_reads_dispatched": sum(c.local_reads for c in system.clients),
            "local_ok": _sum("reads{event=local_ok"),
            "local_nok": _sum("reads{event=local_nok"),
            "local_deadline": _sum("reads{event=local_deadline"),
            "local_reject": _sum("reads{event=local_reject"),
            "ordered_reads": _sum("reads{", "event=ordered"),
            "lease_granted": _sum("lease{", "event=granted"),
            "lease_expired": _sum("lease{", "event=expired"),
            "proxy_batches": _sum("proxy{event=batch"),
            "faults_applied": _sum("fault{"),
        }

    def gates(self, summary: dict) -> list[str]:
        """Read throughput: this deployment must complete >= 2x the
        commands of the leader-only baseline on the identical seeded
        offered load (a 90%-read closed loop, so the completion ratio
        tracks the read-throughput ratio).  A claim about the fault-free
        deployment: the stage fault comb costs the read path more than
        the baseline, which has no stage to lose."""
        if self.chaos:
            return []
        baseline, _system = run_scenario(replace(self, compartment=False))
        if summary["completed"] < 2.0 * baseline["completed"]:
            return [
                f"{summary['completed']} commands completed, under 2x the "
                f"leader-only baseline's {baseline['completed']}"
            ]
        return []


#: What ``python -m repro.experiments compartment`` runs; ``QUICK`` is
#: the CI smoke and :mod:`repro.experiments.perf`'s four compartment
#: gate entries.
FULL = CompartmentScenario()
QUICK = CompartmentScenario(duration=3.0)


def chaos_schedule(scenario: CompartmentScenario) -> FaultSchedule:
    """A comb of the two stage fault kinds across the whole run: every
    half second one partition loses a proxy leader (recovered 0.3s
    later via the shared crash ledger) and every 0.7s the current lease
    holder of the other partition force-expires its lease mid-burst.
    Both kinds resolve their victim at fire time and no-op when nothing
    qualifies, so the comb is safe to lay down densely."""
    schedule = FaultSchedule()
    t = 0.5
    i = 0
    while t < scenario.duration:
        group = f"p{i % 2}"
        schedule.at(round(t, 4), "crash_proxy_leader", group)
        schedule.at(round(t + 0.3, 4), "recover_leader", group)
        i += 1
        t += 0.5
    t = 0.7
    i = 0
    while t < scenario.duration:
        schedule.at(round(t, 4), "expire_lease", f"p{(i + 1) % 2}")
        i += 1
        t += 0.7
    return schedule


def run_ablation(scenario: CompartmentScenario = QUICK) -> list[dict]:
    """Learner-count x lease-on/off grid plus the disabled baseline."""
    rows = []
    base_summary, _ = run_scenario(replace(scenario, compartment=False))
    rows.append({"cell": "disabled", **base_summary})
    for n_learners in (1, 2, 3):
        for lease in (False, True):
            cell = replace(
                scenario, compartment=True, n_learners=n_learners, lease=lease
            )
            summary, _ = run_scenario(cell)
            rows.append(
                {
                    "cell": f"learners={n_learners}/lease={'on' if lease else 'off'}",
                    **summary,
                }
            )
    return rows
