#!/usr/bin/env python3
"""Chirper on DynaStar: watch repartitioning adapt to a social workload.

Generates a power-law social graph (the paper's Higgs-dataset stand-in),
starts DynaStar with a *random* placement, drives a mixed 85/15
timeline/post workload, and shows the multi-partition command rate
collapsing once the oracle repartitions the workload graph.

Run:  python examples/social_network.py [--duration SECONDS]
"""

import argparse

from repro.core import DynaStarSystem, SystemConfig
from repro.experiments.harness import check_run
from repro.sim import ConstantLatency
from repro.workloads.social import (
    ChirperApp,
    ChirperWorkload,
    generate_social_graph,
)


def rate_in(series, t0, t1):
    window = [v for t, v in series if t0 <= t < t1]
    return sum(window) / max(1, len(window))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=60.0, help="virtual seconds to run"
    )
    duration = parser.parse_args().duration
    graph = generate_social_graph(n_users=800, avg_follows=10, seed=7)
    ranked = graph.users_by_popularity()
    print(
        f"social graph: {graph.num_users} users, {graph.num_edges} follow edges; "
        f"top celebrity has {graph.in_degree(ranked[0])} followers"
    )

    app = ChirperApp(graph)
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=4,
            seed=3,
            latency=ConstantLatency(0.0005),
            placement="random",           # DynaStar needs no prior knowledge
            repartition_enabled=True,
            repartition_threshold=4000,   # accesses between repartitions
        ),
    )

    workload = ChirperWorkload(graph, mix="mix", seed=11)
    for _ in range(12):
        system.add_client(workload, stop_at=duration)
    system.run(until=duration)

    completed = system.monitor.series("completed").buckets()
    multi = system.monitor.counters().get("multi_partition_commands", 0)
    total = system.monitor.counters().get("commands_completed", 0)
    plans = [t for t, v in system.monitor.series("plans").buckets() if v > 0]

    print(f"\ncompleted {total} commands "
          f"({workload.stats['timeline']} timeline / {workload.stats['post']} post)")
    print(f"plans applied at t = {[f'{t:.0f}s' for t in plans]}")
    print(f"multi-partition commands overall: {multi} ({100 * multi / max(1, total):.1f}%)")

    if plans:
        before = rate_in(completed, 0, plans[0])
        after = rate_in(completed, plans[0] + 5, duration)
        print(f"throughput before first plan: {before:7.1f} cmds/s")
        print(f"throughput after  first plan: {after:7.1f} cmds/s")

    print("\nper-partition load (skewed by user popularity, like Table 1):")
    for name in system.partition_names:
        tput = system.monitor.series("tput", partition=name).total()
        nodes = len(system.servers(name)[0].owned_nodes)
        print(f"  {name}: {tput:7.0f} commands executed, {nodes:4d} users hosted")

    # Let what was in flight when the clients stopped finish, then judge
    # the run: replicas agree, nothing lost, nothing left half-done.
    system.run(until=duration + 5.0)
    problems = check_run(system)
    print("\nproblems:", "; ".join(problems) or "none")
    if problems:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
