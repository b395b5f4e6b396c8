"""Elastic split/merge scenario: a seeded hotspot that splits a
partition at runtime, then a traffic shift that merges the idle remnant
back away.

Phase 1 concentrates ~90% of the offered load on the keys initially
homed at one partition; its windowed access share blows through the
split factor and the oracle provisions a fresh partition group online,
handing off half the hot keys through the two-phase reconfiguration
protocol.  Phase 2 shifts every client to the *other* partition's keys;
the split halves go idle, fall below the merge factor, and the lighter
one is drained and retired.  The run demonstrably changes the partition
count in both directions — :meth:`ElasticScenario.gates` requires exactly
that.

Run and judged by ``python -m repro.experiments elastic [--quick]
[--chaos]`` (:mod:`repro.experiments.__main__`).  That the traced
``--quick`` scenario replays byte-for-byte, with elasticity enabled and
disabled, is checked by the ``elastic`` and ``elastic_static`` cells of
:mod:`repro.experiments.perf`.  ``--chaos`` arms the three
reconfiguration fault kinds (``crash_mid_split``,
``crash_oracle_during_reconfig``, ``lose_cutover_msgs``) across the
expected reconfig windows; each resolves applicability at fire time, so
the schedule is safe to sprinkle densely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.elastic import ElasticConfig
from repro.faults import FaultSchedule
from repro.faults.injector import ChaosInjector
from repro.obs import audit as audit_mod
from repro.sim.latency import ConstantLatency
from repro.smr import Command, KeyValueApp


class PhasedHotspotWorkload(Workload):
    """Two-phase seeded key mix.

    Before ``shift_at`` (virtual time), ~90% of commands hit the hot key
    set (with occasional intra-hot transfers, so the workload graph has
    edges for the split bisection to respect); after it, every command
    hits the cold set only.  Phases are keyed off the client's virtual
    clock, which is deterministic under the seeded simulator.
    """

    def __init__(self, hot_keys, cold_keys, shift_at: float, seed: int, client_tag: str):
        self.hot_keys = list(hot_keys)
        self.cold_keys = list(cold_keys)
        self.all_keys = self.hot_keys + self.cold_keys
        self.shift_at = shift_at
        self.rng = random.Random(seed)
        self.client_tag = client_tag
        self._seq = 0
        self.failures: list[tuple[str, str]] = []

    def _hot_command(self, uid: str, i: int) -> Command:
        roll = self.rng.random()
        if roll < 0.10:
            src = self.rng.choice(self.hot_keys)
            dst = self.rng.choice(self.hot_keys)
            if src == dst:
                return Command(uid, "read", (src,))
            return Command(uid, "transfer", (src, dst, 1))
        if roll < 0.95:
            key = self.rng.choice(self.hot_keys)
            if roll < 0.50:
                return Command(uid, "read", (key,))
            return Command(uid, "write", (key, i))
        key = self.rng.choice(self.all_keys)
        return Command(uid, "read", (key,))

    def _cold_command(self, uid: str, i: int) -> Command:
        key = self.rng.choice(self.cold_keys)
        if self.rng.random() < 0.5:
            return Command(uid, "read", (key,))
        return Command(uid, "write", (key, i))

    def next_command(self, client) -> Command:
        i = self._seq
        self._seq += 1
        uid = f"{self.client_tag}:{i}"
        if client.now < self.shift_at:
            return self._hot_command(uid, i)
        return self._cold_command(uid, i)

    def on_command_failed(self, client, command, reason) -> None:
        self.failures.append((command.uid, reason))


@dataclass(frozen=True)
class ElasticScenario:
    """One split-then-merge run, fully seeded."""

    seed: int = 21
    n_keys: int = 24
    n_clients: int = 12
    duration: float = 16.0
    #: Clients move from the hot mix to the cold mix at this time.
    shift_at: float = 8.0
    service_time: float = 0.001
    think_time: float = 0.02
    hint_period: float = 0.25
    #: Elastic policy — scaled to the run length so the split fires
    #: within phase 1 and the merge within phase 2.
    policy: ElasticConfig = ElasticConfig(
        split_factor=1.5, merge_factor=0.25, eval_interval=150, cooldown=300,
        max_partitions=4, min_partitions=2,
    )
    elastic: bool = True
    idempotency_keys: bool = True
    chaos: bool = False
    tracing: bool = False

    def build(self) -> DynaStarSystem:
        """The system of one run: clients attached, the fault comb armed
        when ``chaos``."""
        app = KeyValueApp({f"k{i:02d}": i for i in range(self.n_keys)})
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=2,
                seed=self.seed,
                latency=ConstantLatency(0.001),
                repartition_enabled=False,
                service_time=self.service_time,
                hint_period=self.hint_period,
                client_think_time=self.think_time,
                # Retransmit timeouts: chaos runs drop replies, and a client
                # with no timeout would wait on the lost reply forever.
                client_timeout=0.25,
                client_timeout_cap=2.0,
                audit=True,
                # Health sampling feeds the edge-cut / imbalance trajectory
                # in the exported artifacts (pure observer: trace-neutral).
                health_sample_period=0.5,
                elastic_enabled=self.elastic,
                elastic=self.policy,
                idempotency_keys=self.idempotency_keys,
                tracing=self.tracing,
            ),
        )
        # The hot set is whatever landed on p0 at placement time — computed
        # from the seeded initial assignment, so it is run-to-run stable.
        hot, cold = [], []
        for i in range(self.n_keys):
            var = f"k{i:02d}"
            node = app.graph_node_of(var)
            (hot if system.initial_assignment[node] == "p0" else cold).append(var)
        if not hot or not cold:  # degenerate placement; split by index
            keys = [f"k{i:02d}" for i in range(self.n_keys)]
            hot, cold = keys[::2], keys[1::2]
        if self.chaos:
            ChaosInjector(system, chaos_schedule(self)).arm()
        for i in range(self.n_clients):
            system.add_client(
                PhasedHotspotWorkload(
                    hot, cold, self.shift_at,
                    seed=self.seed * 1000 + i, client_tag=f"c{i}",
                ),
                stop_at=self.duration,
            )
        return system

    def summarize(self, system) -> dict:
        """Join the run's reconfig lifecycle into one summary dict."""
        monitor = system.monitor
        counters = monitor.counters()
        records = system.audit.records
        decisions = [r for r in records if r["kind"] == audit_mod.RECONFIG_DECISION]
        cutovers = [r for r in records if r["kind"] == audit_mod.RECONFIG_CUTOVER]
        retired = [r for r in records if r["kind"] == audit_mod.RECONFIG_RETIRED]
        reconfig_counters = monitor.labeled_counters("reconfig")
        return {
            "completed": system.total_completed(),
            "failed": system.total_failed(),
            "workload_failures": sum(len(c.workload.failures) for c in system.clients),
            "splits_decided": sum(1 for r in decisions if r["op"] == "split"),
            "merges_decided": sum(1 for r in decisions if r["op"] == "merge"),
            "cutovers": len(cutovers),
            "partitions_retired": len(retired),
            "final_partitions": len(system.partition_names),
            "partition_names": sorted(system.partition_names),
            "topology_changes": reconfig_counters.get("topology_change", 0),
            "drain_nacked": sum(
                v for k, v in reconfig_counters.items()
                if isinstance(k, tuple) and "nacked" in k
            ),
            "drain_redirected": sum(
                v for k, v in reconfig_counters.items()
                if isinstance(k, tuple) and "redirected" in k
            ),
            "faults_applied": sum(
                v for k, v in counters.items() if k.startswith("fault{")
            ),
        }

    def gates(self, summary: dict) -> list[str]:
        """The run both split and merged: the partition count changed
        in both directions."""
        problems = []
        if not summary["splits_decided"]:
            problems.append("no split decided")
        if not summary["merges_decided"]:
            problems.append("no merge decided")
        if summary["topology_changes"] < 2:
            problems.append("partition count changed fewer than 2 times")
        return problems


#: What ``python -m repro.experiments elastic`` runs; ``QUICK`` is the
#: CI smoke and :mod:`repro.experiments.perf`'s gate entry.
FULL = ElasticScenario()
QUICK = ElasticScenario(duration=8.0, shift_at=4.0)


def chaos_schedule(scenario: ElasticScenario) -> FaultSchedule:
    """A dense comb of the three reconfiguration fault kinds across the
    split span (early phase 1) and the merge span (early phase 2).

    Each reconfig window (decision → cutover → drain) is only tens of
    milliseconds wide and its exact position shifts under the chaos
    itself, so the schedule cannot aim single shots.  Instead it fires
    attempts on a fine grid; every kind resolves applicability at fire
    time and no-ops when nothing is in flight, so the ticks that land
    inside a window bite and the rest cost nothing.  Crash ticks pair
    with a ``recover_leader`` 0.3s later (which recovers everything the
    earlier ticks took down), bounding any outage."""
    schedule = FaultSchedule()
    spans = (
        (0.3, 1.8),
        (scenario.shift_at + 0.2, scenario.shift_at + 2.2),
    )
    # Reconfig decisions ride hint deliveries, which land a few ms after
    # each hint_period multiple — offset the comb so ticks fall inside
    # the windows instead of straddling them.
    offset = 0.0075
    for lo, hi in spans:
        ticks = int((hi - lo) / 0.05)
        for i in range(ticks):
            schedule.at(
                round(lo + offset + i * 0.05, 4),
                "lose_cutover_msgs", 0.25, 0.25,
            )
        ticks = int((hi - lo) / 0.25)
        for i in range(ticks):
            t = lo + offset + i * 0.25
            schedule.at(round(t, 4), "crash_oracle_during_reconfig")
            schedule.at(round(t + 0.3, 4), "recover_leader", "oracle")
            # Alternate the mid-split victim between the initial
            # partitions; whichever is actually mid-handoff gets hit.
            group = f"p{i % 2}"
            schedule.at(round(t + 0.01, 4), "crash_mid_split", group)
            schedule.at(round(t + 0.32, 4), "recover_leader", group)
    return schedule
