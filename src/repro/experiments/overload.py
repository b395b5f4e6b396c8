"""Flash-crowd overload scenario: admission control and graceful
degradation under a seeded arrival-rate spike.

A fleet of open-loop-ish clients (seeded think times) runs a mixed
read/write/transfer workload against a small deployment; midway through,
an ``overload_burst`` fault multiplies every client's arrival rate.
With admission bounds, retry budgets, and circuit breakers configured,
the system sheds load deterministically — goodput stays near the
pre-burst level and admitted-command p99 stays bounded by the queue
bound — instead of growing unbounded queues.

Run and judged by ``python -m repro.experiments overload [--quick]``
(:mod:`repro.experiments.__main__`); :func:`run_ablation` is the queue
bound × retry budget grid.  That the traced ``--quick`` scenario replays
byte-for-byte is checked by the ``overload`` cell of
:mod:`repro.experiments.perf`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.experiments.harness import run_scenario
from repro.faults import FaultSchedule
from repro.faults.injector import ChaosInjector
from repro.sim.latency import ConstantLatency
from repro.smr import Command, KeyValueApp


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

    def build(self) -> DynaStarSystem:
        """The system of one run: burst armed, clients attached."""
        app = KeyValueApp({f"k{i}": i for i in range(self.n_keys)})
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=self.n_partitions,
                seed=self.seed,
                latency=ConstantLatency(0.001),
                repartition_enabled=False,
                service_time=self.service_time,
                client_timeout=0.25,
                client_timeout_cap=2.0,
                admission_bound=self.admission_bound,
                oracle_admission_bound=self.admission_bound,
                client_retry_budget=self.retry_budget,
                client_breaker_threshold=self.breaker_threshold,
                client_rate_limit=self.rate_limit,
                client_think_time=self.think_time,
                tracing=self.tracing,
            ),
        )
        schedule = FaultSchedule().at(
            self.burst_at, "overload_burst", self.burst_duration, self.burst_factor
        )
        ChaosInjector(system, schedule).arm()
        for i in range(self.n_clients):
            system.add_client(
                MixedOpenWorkload(
                    self.n_keys, seed=self.seed * 1000 + i, client_tag=f"c{i}"
                ),
                stop_at=self.duration,
            )
        return system

    def summarize(self, system) -> dict:
        monitor = system.monitor
        latency = monitor.histogram("latency")
        completed = system.total_completed()
        admission = monitor.labeled_counters("admission")
        shed = sum(v for k, v in admission.items() if "shed" in k)
        busy = sum(
            v for k, v in admission.items() if "busy" in k and "client" not in k
        )
        return {
            "completed": completed,
            "failed": system.total_failed(),
            "gave_up": sum(c.gave_up for c in system.clients),
            "busy_rejections": sum(c.busy_rejections for c in system.clients),
            "workload_failures": sum(len(c.workload.failures) for c in system.clients),
            "goodput_per_s": completed / self.duration,
            "latency_p50": latency.percentile(50),
            "latency_p99": latency.percentile(99),
            "shed": shed,
            "busy": busy,
            "breaker_trips": admission.get("breaker_trip", 0),
        }

    def gates(self, summary: dict) -> list[str]:
        """The run must show what it is for: the burst reached the
        admission gate and something was refused there."""
        if self.admission_bound is not None and not summary["shed"] + summary["busy"]:
            return ["the flash crowd never hit the admission gate"]
        return []


#: What ``python -m repro.experiments overload`` runs; ``QUICK`` is the
#: CI smoke and :mod:`repro.experiments.perf`'s gate entry.
FULL = FlashCrowdConfig()
QUICK = FlashCrowdConfig(duration=4.0, burst_at=1.5, burst_duration=1.5)

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


def run_ablation(
    config: FlashCrowdConfig = ABLATION_BASE,
    bounds=(None, 4, 8, 16, 64),
    budgets=(None, 2.0, 10.0, 50.0),
) -> list[dict]:
    """Queue bound × retry budget grid (None = defense disabled)."""
    rows = []
    for bound in bounds:
        for budget in budgets:
            summary, _system = run_scenario(
                replace(config, admission_bound=bound, retry_budget=budget)
            )
            rows.append(
                {"admission_bound": bound, "retry_budget": budget, **summary}
            )
    return rows
