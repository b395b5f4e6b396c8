"""Flash-crowd overload scenario: admission control and graceful
degradation under a seeded arrival-rate spike.

A fleet of open-loop-ish clients (seeded think times) runs a mixed
read/write/transfer workload against a small deployment; midway through,
an ``overload_burst`` fault multiplies every client's arrival rate.
With admission bounds, retry budgets, and circuit breakers configured,
the system sheds load deterministically — goodput stays near the
pre-burst level and admitted-command p99 stays bounded by the queue
bound — instead of growing unbounded queues.

Usage::

    python -m repro.experiments.overload                 # one summary
    python -m repro.experiments.overload --ablation      # bound × budget grid
    python -m repro.experiments.overload --quick --check-consistency  # CI smoke

That the traced ``--quick`` scenario replays byte-for-byte is checked by
the ``overload`` cell of :mod:`repro.experiments.perf`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, replace
from typing import Optional

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.experiments import harness
from repro.experiments.harness import verify_consistency
from repro.faults import FaultSchedule
from repro.faults.injector import ChaosInjector
from repro.sim.latency import ConstantLatency
from repro.smr import Command, History, KeyValueApp


class MixedOpenWorkload(Workload):
    """Endless seeded mix of reads, writes, and cross-key transfers.

    Open-ended on purpose — the client's ``stop_at`` bounds the run, so
    the offered load is set by think time (and the flash-crowd
    multiplier), not by a fixed script length.
    """

    def __init__(self, n_keys: int, seed: int, client_tag: str):
        self.n_keys = n_keys
        self.rng = random.Random(seed)
        self.client_tag = client_tag
        self._seq = 0
        self.failures: list[tuple[str, str]] = []

    def next_command(self, client) -> Command:
        i = self._seq
        self._seq += 1
        k = self.rng.randrange(self.n_keys)
        roll = self.rng.random()
        uid = f"{self.client_tag}:{i}"
        if roll < 0.5:
            return Command(uid, "read", (f"k{k}",))
        if roll < 0.85:
            return Command(uid, "write", (f"k{k}", i))
        return Command(
            uid, "transfer", (f"k{k}", f"k{(k + 1) % self.n_keys}", 1)
        )

    def on_command_failed(self, client, command, reason) -> None:
        self.failures.append((command.uid, reason))


@dataclass(frozen=True)
class FlashCrowdConfig:
    """One flash-crowd run, fully seeded."""

    seed: int = 7
    n_partitions: int = 2
    n_keys: int = 12
    n_clients: int = 24
    duration: float = 20.0
    #: Virtual CPU seconds per command execution — nonzero so partitions
    #: actually saturate and queues form under the burst.
    service_time: float = 0.002
    #: Burst window: arrival rate × ``burst_factor`` during it.
    burst_at: float = 6.0
    burst_duration: float = 5.0
    burst_factor: float = 10.0
    #: Overload defenses (the ablation varies the first two).
    admission_bound: Optional[int] = 6
    retry_budget: Optional[float] = 10.0
    breaker_threshold: Optional[int] = 5
    rate_limit: Optional[float] = None
    think_time: float = 0.1
    tracing: bool = False


#: ``--quick``: the CI smoke and :mod:`repro.experiments.perf`'s gate entry.
QUICK = FlashCrowdConfig(duration=4.0, burst_at=1.5, burst_duration=1.5)


def build_flash_crowd(config: FlashCrowdConfig, history: Optional[History] = None):
    """System + armed injector + clients for one flash-crowd run."""
    app = KeyValueApp({f"k{i}": i for i in range(config.n_keys)})
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=config.n_partitions,
            seed=config.seed,
            latency=ConstantLatency(0.001),
            repartition_enabled=False,
            service_time=config.service_time,
            client_timeout=0.25,
            client_timeout_cap=2.0,
            admission_bound=config.admission_bound,
            oracle_admission_bound=config.admission_bound,
            client_retry_budget=config.retry_budget,
            client_breaker_threshold=config.breaker_threshold,
            client_breaker_cooldown=0.5,
            client_rate_limit=config.rate_limit,
            client_think_time=config.think_time,
            tracing=config.tracing,
        ),
    )
    schedule = FaultSchedule().at(
        config.burst_at, "overload_burst",
        config.burst_duration, config.burst_factor,
    )
    injector = ChaosInjector(system, schedule).arm()
    workloads = []
    for i in range(config.n_clients):
        workload = MixedOpenWorkload(
            config.n_keys, seed=config.seed * 1000 + i, client_tag=f"c{i}"
        )
        workloads.append(workload)
        system.add_client(workload, history=history, stop_at=config.duration)
    return system, injector, workloads


def run_flash_crowd(config: FlashCrowdConfig, history: Optional[History] = None):
    """Run one flash crowd to completion; returns ``(summary, system)``."""
    system, _injector, workloads = build_flash_crowd(config, history)
    # Drain: well past stop_at so every in-flight command resolves.
    system.run(until=config.duration + 30.0)
    monitor = system.monitor
    latency = monitor.histogram("latency")
    completed = system.total_completed()
    admission = monitor.labeled_counters("admission")
    shed = sum(v for k, v in admission.items() if "shed" in k)
    busy = sum(v for k, v in admission.items() if "busy" in k and "client" not in k)
    return {
        "completed": completed,
        "failed": system.total_failed(),
        "gave_up": sum(c.gave_up for c in system.clients),
        "busy_rejections": sum(c.busy_rejections for c in system.clients),
        "workload_failures": sum(len(w.failures) for w in workloads),
        "goodput_per_s": completed / config.duration,
        "latency_p50": latency.percentile(50),
        "latency_p99": latency.percentile(99),
        "shed": shed,
        "busy": busy,
        "breaker_trips": admission.get("breaker_trip", 0),
        "stuck_clients": sum(1 for c in system.clients if not c.done),
    }, system


def fingerprint(config: FlashCrowdConfig) -> tuple[str, str]:
    """(trace_jsonl, metrics_json) of one traced run — the exact gate
    (:mod:`repro.experiments.perf`) compares two of these byte-for-byte."""
    _summary, system = run_flash_crowd(replace(config, tracing=True))
    return harness.fingerprint(system)


#: Ablation base: harsher than the default scenario (twice the clients,
#: slower service, a 20x burst) so both axes actually bind — with the
#: default load, closed-loop clients cannot collapse an unbounded queue
#: and the retry budget never runs dry.
ABLATION_BASE = FlashCrowdConfig(
    n_clients=48,
    duration=10.0,
    burst_at=3.0,
    burst_duration=4.0,
    burst_factor=20.0,
    service_time=0.004,
)


def run_ablation(config: FlashCrowdConfig, bounds, budgets) -> list[dict]:
    """Queue bound × retry budget grid (None = defense disabled)."""
    rows = []
    for bound in bounds:
        for budget in budgets:
            summary, _system = run_flash_crowd(
                replace(config, admission_bound=bound, retry_budget=budget)
            )
            rows.append(
                {"admission_bound": bound, "retry_budget": budget, **summary}
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Flash-crowd overload scenario."
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--factor", type=float, default=10.0,
                        help="flash-crowd arrival-rate multiplier")
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke")
    parser.add_argument("--ablation", action="store_true",
                        help="run the queue-bound × retry-budget grid")
    parser.add_argument("--check-consistency", action="store_true",
                        help="also verify replica agreement and variable "
                             "conservation after the run")
    parser.add_argument("--json", default=None,
                        help="write the summary to this path")
    args = parser.parse_args(argv)

    config = replace(
        QUICK if args.quick else FlashCrowdConfig(duration=args.duration),
        seed=args.seed,
        burst_factor=args.factor,
    )

    summary, system = run_flash_crowd(config)
    print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
    if summary["stuck_clients"]:
        print("[overload] stuck clients detected", file=sys.stderr)
        return 1
    if args.check_consistency:
        problems = verify_consistency(system)
        if problems:
            for problem in problems:
                print(f"[overload] {problem}", file=sys.stderr)
            return 1
        print("[overload] consistency: ok", flush=True)

    rows = None
    if args.ablation:
        base = replace(ABLATION_BASE, seed=args.seed)
        if args.quick:
            base = replace(base, duration=4.0, burst_at=1.0, burst_duration=2.0)
            bounds, budgets = (None, 4), (None, 2.0)
        else:
            bounds = (None, 4, 8, 16, 64)
            budgets = (None, 2.0, 10.0, 50.0)
        rows = run_ablation(base, bounds, budgets)
        header = (
            f"{'bound':>6} {'budget':>7} {'goodput/s':>10} {'p50':>8} "
            f"{'p99':>8} {'shed':>6} {'busy':>6} {'gave_up':>8}"
        )
        print(header, flush=True)
        for row in rows:
            print(
                f"{str(row['admission_bound']):>6} {str(row['retry_budget']):>7} "
                f"{row['goodput_per_s']:>10.1f} {row['latency_p50']:>8.3f} "
                f"{row['latency_p99']:>8.3f} "
                f"{row['shed']:>6} {row['busy']:>6} {row['gave_up']:>8}",
                flush=True,
            )

    if args.json:
        out = {"config": vars(args), "summary": summary}
        if rows is not None:
            out["ablation"] = rows
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"[overload] wrote {args.json}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
