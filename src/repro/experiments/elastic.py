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
count in both directions — the CI elastic smoke asserts exactly that via
``repro.obs.report --check-reconfig``.

Usage::

    python -m repro.experiments.elastic                   # one summary
    python -m repro.experiments.elastic --quick           # CI smoke
    python -m repro.experiments.elastic --chaos           # + reconfig faults
    python -m repro.experiments.elastic --check-consistency
    python -m repro.experiments.elastic --obs DIR         # export artifacts

That the traced ``--quick`` scenario replays byte-for-byte, with
elasticity enabled and disabled, is checked by the ``elastic`` and
``elastic_static`` cells of :mod:`repro.experiments.perf`.  ``--chaos`` arms
the three reconfiguration fault kinds (``crash_mid_split``,
``crash_oracle_during_reconfig``, ``lose_cutover_msgs``) across the
expected reconfig windows; each resolves applicability at fire time, so
the schedule is safe to sprinkle densely.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, replace

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.experiments import harness
from repro.experiments.harness import export_run_artifacts, verify_consistency
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
    #: Elastic policy knobs — scaled to the run length so the split
    #: fires within phase 1 and the merge within phase 2.
    eval_interval: int = 150
    cooldown: int = 300
    split_factor: float = 1.5
    merge_factor: float = 0.25
    max_partitions: int = 4
    min_partitions: int = 2
    elastic: bool = True
    idempotency_keys: bool = True
    chaos: bool = False
    tracing: bool = False


#: ``--quick``: the CI smoke and :mod:`repro.experiments.perf`'s gate entry.
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


def build_scenario(scenario: ElasticScenario):
    """System + clients (+ armed injector when ``chaos``) for one run."""
    app = KeyValueApp({f"k{i:02d}": i for i in range(scenario.n_keys)})
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=2,
            seed=scenario.seed,
            latency=ConstantLatency(0.001),
            repartition_enabled=False,
            service_time=scenario.service_time,
            hint_period=scenario.hint_period,
            client_think_time=scenario.think_time,
            # Retransmit timeouts: chaos runs drop replies, and a client
            # with no timeout would wait on the lost reply forever.
            client_timeout=0.25,
            client_timeout_cap=2.0,
            audit=True,
            # Health sampling feeds the edge-cut / imbalance trajectory
            # in the exported artifacts (pure observer: trace-neutral).
            health_sample_period=0.5,
            elastic_enabled=scenario.elastic,
            elastic_split_factor=scenario.split_factor,
            elastic_merge_factor=scenario.merge_factor,
            elastic_eval_interval=scenario.eval_interval,
            elastic_cooldown=scenario.cooldown,
            max_partitions=scenario.max_partitions,
            min_partitions=scenario.min_partitions,
            idempotency_keys=scenario.idempotency_keys,
            tracing=scenario.tracing,
        ),
    )
    # The hot set is whatever landed on p0 at placement time — computed
    # from the seeded initial assignment, so it is run-to-run stable.
    hot, cold = [], []
    for i in range(scenario.n_keys):
        var = f"k{i:02d}"
        node = app.graph_node_of(var)
        (hot if system.initial_assignment[node] == "p0" else cold).append(var)
    if not hot or not cold:  # degenerate placement; split by index
        keys = [f"k{i:02d}" for i in range(scenario.n_keys)]
        hot, cold = keys[::2], keys[1::2]
    injector = None
    if scenario.chaos:
        injector = ChaosInjector(system, chaos_schedule(scenario)).arm()
    workloads = []
    for i in range(scenario.n_clients):
        workload = PhasedHotspotWorkload(
            hot, cold, scenario.shift_at,
            seed=scenario.seed * 1000 + i, client_tag=f"c{i}",
        )
        workloads.append(workload)
        system.add_client(workload, stop_at=scenario.duration)
    return system, injector, workloads


def summarize(system, workloads) -> dict:
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
        "workload_failures": sum(len(w.failures) for w in workloads),
        "stuck_clients": sum(1 for c in system.clients if not c.done),
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


def run_scenario(scenario: ElasticScenario):
    """Run one scenario to completion; returns (summary, system)."""
    system, _injector, workloads = build_scenario(scenario)
    # Drain well past stop_at so every in-flight command (and drain
    # announcement) resolves.
    system.run(until=scenario.duration + 30.0)
    return summarize(system, workloads), system


def fingerprint(scenario: ElasticScenario) -> tuple[str, str]:
    """(trace_jsonl, metrics_json) of one traced run — the exact gate
    (:mod:`repro.experiments.perf`) compares two of these byte-for-byte."""
    _summary, system = run_scenario(replace(scenario, tracing=True))
    return harness.fingerprint(system)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Elastic split/merge scenario."
    )
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--duration", type=float, default=16.0)
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke")
    parser.add_argument("--chaos", action="store_true",
                        help="fire the reconfiguration fault kinds during "
                             "the split and merge windows")
    parser.add_argument("--check-consistency", action="store_true",
                        help="also verify replica agreement, variable "
                             "conservation, and retired-store emptiness")
    parser.add_argument("--check-reconfig", action="store_true",
                        help="exit nonzero unless the run both split and "
                             "merged (partition count changed twice)")
    parser.add_argument("--obs", default=None, metavar="DIR",
                        help="export run artifacts for repro.obs.report")
    parser.add_argument("--json", default=None,
                        help="write the summary to this path")
    args = parser.parse_args(argv)

    scenario = replace(
        QUICK
        if args.quick
        else ElasticScenario(duration=args.duration, shift_at=args.duration / 2.0),
        seed=args.seed,
        chaos=args.chaos,
    )

    summary, system = run_scenario(scenario)
    print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
    if summary["stuck_clients"]:
        print("[elastic] stuck clients detected", file=sys.stderr)
        return 1
    if args.check_consistency:
        problems = verify_consistency(system)
        if problems:
            for problem in problems:
                print(f"[elastic] {problem}", file=sys.stderr)
            return 1
        print("[elastic] consistency: ok", flush=True)
    if args.check_reconfig:
        problems = []
        if not summary["splits_decided"]:
            problems.append("no split decided")
        if not summary["merges_decided"]:
            problems.append("no merge decided")
        if summary["topology_changes"] < 2:
            problems.append("partition count changed fewer than 2 times")
        if problems:
            for problem in problems:
                print(f"[elastic] check-reconfig: {problem}", file=sys.stderr)
            return 1
        print("[elastic] check-reconfig: ok", flush=True)
    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"[elastic] wrote {sorted(written)} to {args.obs}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"config": vars(args), "summary": summary}, fh,
                      indent=2, sort_keys=True)
        print(f"[elastic] wrote {args.json}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
