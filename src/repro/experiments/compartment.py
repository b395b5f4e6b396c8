"""Compartmentalized read-path scenario: proxy-leader ingress, scaled
read learners, and leader-lease local reads under a read-heavy mix.

A closed-loop fleet hammers a small keyspace with ~90% reads.  With
compartmentalization off, every read is ordered and executed at every
replica of its partition — replication adds fault tolerance, not read
throughput, so the run saturates at the replicas' service rate.  With
it on, each read executes at exactly one of the partition's learners
after a lease-checked sequencing probe, so read capacity scales with
the learner count; the ``--check-scaling`` gate asserts the 3-learner
deployment completes at least 2x the leader-only baseline on the same
offered load.

Usage::

    python -m repro.experiments.compartment                 # one summary
    python -m repro.experiments.compartment --quick         # CI smoke
    python -m repro.experiments.compartment --chaos         # + stage faults
    python -m repro.experiments.compartment --ablation      # learner x lease grid
    python -m repro.experiments.compartment --check-scaling
    python -m repro.experiments.compartment --check-consistency
    python -m repro.experiments.compartment --obs DIR       # export artifacts

That the traced ``--quick`` scenario replays byte-for-byte in every
cell of {compartment on, off} x {chaos on, off} is checked by the
``compartment``, ``compartment_chaos``, ``leader_only`` and
``leader_only_chaos`` cells of :mod:`repro.experiments.perf`.  ``--chaos``
fires the two stage fault kinds (``crash_proxy_leader``,
``expire_lease``) on a fine grid across the run; both resolve
applicability at fire time, so ticks that land on an idle stage no-op.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, replace

from repro.compartment import CompartmentConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.experiments import harness
from repro.experiments.harness import export_run_artifacts, verify_consistency
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


#: ``--quick``: the CI smoke and :mod:`repro.experiments.perf`'s four
#: compartment gate entries.
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


def build_scenario(scenario: CompartmentScenario):
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
            client_timeout=0.25,
            client_timeout_cap=2.0,
            idempotency_keys=True,
            tracing=scenario.tracing,
            compartment=CompartmentConfig(
                enabled=scenario.compartment,
                n_proxy_leaders=scenario.n_proxies,
                n_learners=scenario.n_learners,
                lease_enabled=scenario.lease,
            ),
        ),
    )
    injector = None
    if scenario.chaos:
        injector = ChaosInjector(system, chaos_schedule(scenario)).arm()
    workloads = []
    for i in range(scenario.n_clients):
        workload = ReadHeavyWorkload(
            [f"k{i:02d}" for i in range(scenario.n_keys)],
            scenario.read_fraction,
            seed=scenario.seed * 1000 + i,
            client_tag=f"c{i}",
        )
        workloads.append(workload)
        system.add_client(workload, stop_at=scenario.duration)
    return system, injector, workloads


def summarize(system, workloads) -> dict:
    counters = system.monitor.snapshot()["counters"]

    def _sum(prefix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    return {
        "completed": system.total_completed(),
        "failed": system.total_failed(),
        "workload_failures": sum(len(w.failures) for w in workloads),
        "stuck_clients": sum(1 for c in system.clients if not c.done),
        "local_reads_dispatched": sum(c.local_reads for c in system.clients),
        "local_ok": _sum("reads{event=local_ok"),
        "local_nok": _sum("reads{event=local_nok"),
        "local_deadline": _sum("reads{event=local_deadline"),
        "local_reject": _sum("reads{event=local_reject"),
        "ordered_reads": sum(
            v for k, v in counters.items()
            if k.startswith("reads{") and "event=ordered" in k
        ),
        "lease_granted": sum(
            v for k, v in counters.items()
            if k.startswith("lease{") and "event=granted" in k
        ),
        "lease_expired": sum(
            v for k, v in counters.items()
            if k.startswith("lease{") and "event=expired" in k
        ),
        "proxy_batches": _sum("proxy{event=batch"),
        "faults_applied": _sum("fault{"),
    }


def run_scenario(scenario: CompartmentScenario):
    """Run one scenario to completion; returns (summary, system)."""
    system, _injector, workloads = build_scenario(scenario)
    # Drain well past stop_at so every in-flight command resolves.
    system.run(until=scenario.duration + 30.0)
    return summarize(system, workloads), system


def fingerprint(scenario: CompartmentScenario) -> tuple[str, str]:
    """(trace_jsonl, metrics_json) of one traced run — the exact gate
    (:mod:`repro.experiments.perf`) compares two of these byte-for-byte."""
    _summary, system = run_scenario(replace(scenario, tracing=True))
    return harness.fingerprint(system)


def check_scaling(scenario: CompartmentScenario, min_ratio: float = 2.0):
    """Read throughput gate: the 3-learner lease-read deployment must
    complete >= ``min_ratio`` x the commands of the leader-only baseline
    on the identical seeded offered load (a 90%-read closed loop, so the
    completion ratio tracks the read-throughput ratio)."""
    on = replace(scenario, compartment=True, lease=True, chaos=False)
    off = replace(scenario, compartment=False, chaos=False)
    summary_on, _ = run_scenario(on)
    summary_off, _ = run_scenario(off)
    ratio = (
        summary_on["completed"] / summary_off["completed"]
        if summary_off["completed"]
        else float("inf")
    )
    return ratio, summary_on, summary_off


def run_ablation(scenario: CompartmentScenario) -> list[dict]:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compartmentalized read-path scenario and gates."
    )
    parser.add_argument("--seed", type=int, default=33)
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke")
    parser.add_argument("--chaos", action="store_true",
                        help="fire crash_proxy_leader / expire_lease combs "
                             "across the run")
    parser.add_argument("--ablation", action="store_true",
                        help="run the learner-count x lease grid and print "
                             "one summary row per cell")
    parser.add_argument("--check-scaling", action="store_true",
                        help="exit nonzero unless the 3-learner deployment "
                             "completes >= 2x the disabled baseline")
    parser.add_argument("--check-consistency", action="store_true",
                        help="also verify replica agreement, variable "
                             "conservation, and learner convergence")
    parser.add_argument("--obs", default=None, metavar="DIR",
                        help="export run artifacts for repro.obs.report")
    parser.add_argument("--json", default=None,
                        help="write the summary to this path")
    args = parser.parse_args(argv)

    scenario = replace(
        QUICK if args.quick else CompartmentScenario(duration=args.duration),
        seed=args.seed,
        chaos=args.chaos,
    )

    if args.ablation:
        rows = run_ablation(scenario)
        print(json.dumps(rows, indent=2, sort_keys=True), flush=True)
        return 0

    summary, system = run_scenario(scenario)
    print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
    if summary["stuck_clients"]:
        print("[compartment] stuck clients detected", file=sys.stderr)
        return 1
    if args.check_consistency:
        problems = verify_consistency(system)
        if problems:
            for problem in problems:
                print(f"[compartment] {problem}", file=sys.stderr)
            return 1
        print("[compartment] consistency: ok", flush=True)
    if args.check_scaling:
        ratio, summary_on, summary_off = check_scaling(scenario)
        print(
            f"[compartment] scaling: {summary_on['completed']} vs "
            f"{summary_off['completed']} completed (ratio {ratio:.2f})",
            flush=True,
        )
        if ratio < 2.0:
            print(
                f"[compartment] check-scaling: ratio {ratio:.2f} < 2.0",
                file=sys.stderr,
            )
            return 1
        print("[compartment] check-scaling: ok", flush=True)
    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"[compartment] wrote {sorted(written)} to {args.obs}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"config": vars(args), "summary": summary}, fh,
                      indent=2, sort_keys=True)
        print(f"[compartment] wrote {args.json}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
