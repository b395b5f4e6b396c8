#!/usr/bin/env python3
"""The Fig 6 scenario as a runnable story: a celebrity joins mid-run.

Starts Chirper on DynaStar, lets the system converge, then introduces a
new celebrity user half-way through (t=60 s).  Users flock to follow
them, the workload graph changes shape, and DynaStar repartitions on-line
to adapt — watch the multi-partition command rate rise after the event
and fall again after the next repartitioning.

Run:  python examples/dynamic_celebrity.py [--duration SECONDS]
"""

import argparse

from repro.core import DynaStarSystem, SystemConfig
from repro.experiments.harness import check_run
from repro.sim import ConstantLatency
from repro.workloads.social import (
    CelebrityEvent,
    ChirperApp,
    ChirperWorkload,
    generate_social_graph,
)

DURATION = 120.0


def window_rate(series, t0, t1):
    window = [v for t, v in series if t0 <= t < t1]
    return sum(window) / max(1, len(window))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=DURATION,
        help="virtual seconds to run; the celebrity joins half-way",
    )
    duration = parser.parse_args().duration
    event_time = duration / 2
    graph = generate_social_graph(n_users=600, avg_follows=8, seed=13)
    app = ChirperApp(graph)
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=4,
            seed=4,
            latency=ConstantLatency(0.0005),
            placement="random",
            repartition_enabled=True,
            repartition_threshold=5000,
        ),
    )
    celebrity = graph.num_users + 7
    event = CelebrityEvent(
        time=event_time, celebrity=celebrity, follow_prob=0.4,
        celebrity_post_prob=0.25,
    )
    workload = ChirperWorkload(graph, mix="mix", seed=21, event=event)
    for _ in range(12):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration)

    completed = system.monitor.series("completed").buckets()
    plans = [t for t, v in system.monitor.series("plans").buckets() if v > 0]
    followers = graph.in_degree(celebrity)

    print(f"celebrity user {celebrity} joined at t={event_time:.0f}s and "
          f"gained {followers} followers by t={duration:.0f}s")
    print(f"plans applied at t = {[f'{t:.0f}s' for t in plans]}")
    phases = [
        ("cold start (random placement)", 0, min(plans, default=20)),
        ("converged, pre-celebrity", min(plans, default=20) + 5, event_time),
        ("celebrity chaos", event_time, event_time + duration / 4),
        ("re-adapted", event_time + duration / 4, duration),
    ]
    print(f"\n{'phase':<34} {'throughput':>12}")
    print("-" * 48)
    for name, t0, t1 in phases:
        if t1 > t0:
            print(f"{name:<34} {window_rate(completed, t0, t1):>10.1f}/s")
    print(f"\ntotal: {system.total_completed()} commands, "
          f"{system.monitor.counter('client', event='retry').value} cache-staleness retries, "
          f"{len(plans)} repartitionings")

    # Let what was in flight when the clients stopped finish, then judge
    # the run: replicas agree, nothing lost, nothing left half-done.
    system.run(until=duration + 5.0)
    problems = check_run(system)
    print("\nproblems:", "; ".join(problems) or "none")
    if problems:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
