#!/usr/bin/env python3
"""Quickstart: a replicated key-value store on DynaStar.

Builds a 2-partition DynaStar deployment on the simulated network, runs a
handful of single- and multi-partition commands through a closed-loop
client, and prints what happened — including the borrow-and-return dance
behind a cross-partition ``transfer``.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace /tmp/quickstart-trace.jsonl
      python -m repro.obs.explain /tmp/quickstart-trace.jsonl
      python examples/quickstart.py --obs /tmp/quickstart-obs
      python -m repro.obs.report /tmp/quickstart-obs
      python examples/quickstart.py --elastic --obs /tmp/quickstart-elastic
      python -m repro.obs.report /tmp/quickstart-elastic --check-reconfig
      python examples/quickstart.py --compartment --obs /tmp/quickstart-reads
      python -m repro.obs.report /tmp/quickstart-reads --check-reads
"""

import argparse
import random

from repro.compartment import CompartmentConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.elastic import ElasticConfig
from repro.experiments.harness import check_run, export_run_artifacts
from repro.sim import ConstantLatency
from repro.smr import Command, History, KeyValueApp


def verdict(system, history=None) -> None:
    """Every mode ends here: the finished run is judged (replicas agree,
    nothing lost or left half-done, every client answered, the recorded
    history linearizable) and a problem is a non-zero exit."""
    problems = check_run(system, history)
    print("\nproblems:", "; ".join(problems) or "none")
    if problems:
        raise SystemExit(1)


def run_elastic(args) -> None:
    """The elastic variant: a seeded hot-key workload against low split
    thresholds, so the oracle splits a partition online within the run —
    the CI elastic smoke checks the exported artifacts with
    ``python -m repro.obs.report DIR --check-reconfig``."""
    app = KeyValueApp({f"account{i}": 100 for i in range(12)})
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=2,
            seed=42,
            latency=ConstantLatency(0.001),
            repartition_enabled=False,
            elastic_enabled=True,
            elastic=ElasticConfig(
                split_factor=1.5, eval_interval=100, cooldown=200,
                max_partitions=4, min_partitions=2,
            ),
            hint_period=0.25,
            idempotency_keys=True,
            tracing=args.trace is not None or args.obs is not None,
            audit=True,
            health_sample_period=1.0 if args.obs is not None else None,
        ),
    )
    before = len(system.partition_names)
    # Hammer the keys of the node-heaviest partition: its windowed access
    # share blows through the split factor (and it is guaranteed to hold
    # enough nodes to be splittable) so the oracle splits it online.
    by_partition: dict = {}
    for node, part in system.initial_assignment.items():
        by_partition.setdefault(part, []).append(node)
    hot = sorted(max(by_partition.values(), key=lambda nodes: (len(nodes), nodes)))
    every = sorted(system.initial_assignment)
    rng = random.Random(42)
    commands = []
    for i in range(800):
        key = rng.choice(hot) if rng.random() < 0.9 else rng.choice(every)
        if rng.random() < 0.5:
            commands.append(Command(f"c:{i}", "read", (key,)))
        else:
            commands.append(Command(f"c:{i}", "write", (key, i)))
    client = system.add_client(ScriptedWorkload(commands))
    system.run(until=30.0)

    after = len(system.partition_names)
    print(f"partitions: {before} -> {after} "
          f"({', '.join(sorted(system.partition_names))})")
    reconfigs = [
        r for r in system.audit.records if r["kind"].startswith("reconfig-")
    ]
    for record in reconfigs:
        detail = " ".join(
            f"{k}={record[k]}"
            for k in ("epoch", "op", "source", "target", "partition")
            if k in record
        )
        print(f"  t={record['t']:.3f} {record['kind']} {detail}")
    print(f"completed={client.completed}  failed={client.failed}")
    if after == before:
        raise SystemExit("elastic quickstart did not change the partition count")

    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"wrote run artifacts to {args.obs}: " + ", ".join(sorted(written)))
        print(f"check them with: python -m repro.obs.report {args.obs} "
              "--check-reconfig")
    verdict(system)


def run_compartment(args) -> None:
    """The compartmentalized variant: proxy-leader ingress, three read
    learners per partition, and leader-lease local reads under a
    read-heavy scripted workload — the CI compartment smoke checks the
    exported artifacts with
    ``python -m repro.obs.report DIR --check-reads``."""
    app = KeyValueApp({f"account{i}": 100 for i in range(12)})
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=2,
            seed=42,
            latency=ConstantLatency(0.001),
            service_time=0.001,
            client_timeout=1.0,
            tracing=args.trace is not None or args.obs is not None,
            audit=args.obs is not None,
            health_sample_period=1.0 if args.obs is not None else None,
            compartment=CompartmentConfig(
                enabled=True, n_proxy_leaders=2, n_learners=3
            ),
        ),
    )
    keys = sorted(system.initial_assignment)
    rng = random.Random(42)
    commands = []
    for i in range(600):
        key = rng.choice(keys)
        if rng.random() < 0.85:
            commands.append(Command(f"c:{i}", "read", (key,)))
        else:
            commands.append(Command(f"c:{i}", "write", (key, i)))
    client = system.add_client(ScriptedWorkload(commands))
    system.run(until=30.0)

    counters = system.monitor.snapshot()["counters"]
    local_ok = sum(
        v for k, v in counters.items()
        if k.startswith("reads{") and "event=local_ok" in k
    )
    print(f"completed={client.completed}  failed={client.failed}")
    print(f"local reads served: {local_ok} of {client.local_reads} dispatched")
    for key in sorted(counters):
        if key.startswith(("lease{", "learner_reads{", "proxy{")):
            print(f"  {key} = {counters[key]}")
    if not local_ok:
        raise SystemExit("compartment quickstart served no local reads")

    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"wrote run artifacts to {args.obs}: " + ", ".join(sorted(written)))
        print(f"check them with: python -m repro.obs.report {args.obs} "
              "--check-reads")
    verdict(system)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a command trace and export it as JSONL to PATH",
    )
    parser.add_argument(
        "--obs",
        metavar="DIR",
        default=None,
        help="enable tracing, decision auditing, and health sampling, "
        "and export all run artifacts into DIR (for repro.obs.report)",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="run the elastic variant: a hot-key workload that makes the "
        "oracle split a partition at runtime",
    )
    parser.add_argument(
        "--compartment",
        action="store_true",
        help="run the compartmentalized variant: proxy leaders, three "
        "read learners per partition, and leader-lease local reads",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        metavar="K",
        default=1,
        help="execute non-conflicting commands on K parallel lanes per "
        "partition (1 = serial legacy order; see DESIGN.md section 10)",
    )
    # parse_known_args: the test suite runs this file under runpy with
    # pytest's own argv still in place.
    args, _ = parser.parse_known_args()
    if args.elastic:
        run_elastic(args)
        return
    if args.compartment:
        run_compartment(args)
        return
    # 1. An application: a multi-key key-value store.  Every key is one
    #    DynaStar state variable (and one workload-graph node).
    app = KeyValueApp({f"account{i}": 100 for i in range(8)})

    # 2. A deployment: 2 partitions, each a Paxos group of 2 replicas +
    #    3 acceptors, plus the replicated location oracle.
    system = DynaStarSystem(
        app,
        SystemConfig(
            n_partitions=2,
            seed=42,
            latency=ConstantLatency(0.001),  # 1 ms one-way links
            execution_lanes=args.lanes,
            tracing=args.trace is not None or args.obs is not None,
            audit=args.obs is not None,
            health_sample_period=1.0 if args.obs is not None else None,
        ),
    )
    print("initial placement (node -> partition):")
    for node, part in sorted(system.initial_assignment.items()):
        print(f"  {node:>10} -> {part}")

    # 3. A closed-loop client issuing commands.
    loc = system.initial_assignment
    keys = sorted(loc)
    key_a = keys[0]
    key_b = next(k for k in keys if loc[k] != loc[key_a])  # other partition
    commands = [
        Command("c:1", "read", (key_a,)),
        Command("c:2", "write", (key_a, 250)),
        Command("c:3", "sum", (key_a, key_b)),  # multi-partition!
        Command("c:4", "transfer", (key_a, key_b, 50)),  # borrow & return
        Command("c:5", "read", (key_b,)),
    ]
    history = History()
    client = system.add_client(ScriptedWorkload(commands), history=history)

    # 4. Run the virtual clock.
    system.run(until=10.0)

    # 5. Inspect the results.
    print("\ncommand results:")
    for uid, (status, result) in sorted(client.results.items()):
        print(f"  {uid}: {status.value:>5}  -> {result!r}")

    counters = system.monitor.counters()
    print(f"\ncompleted={client.completed}  failed={client.failed}")
    print(f"multi-partition commands: {counters.get('multi_partition_commands', 0)}")
    print(f"objects borrowed+returned: {counters.get('objects_exchanged', 0)}")
    print(f"oracle queries: {counters.get('oracle_queries_total', 0)} "
          "(only cache misses — repeats hit the client cache)")

    lat = system.monitor.histogram("latency")
    print(f"latency: mean={lat.mean()*1e3:.2f} ms  p95={lat.percentile(95)*1e3:.2f} ms")

    if args.trace:
        n = system.tracer.export_jsonl(args.trace)
        print(f"\nwrote {n} trace records to {args.trace}")
        print(f"explain them with: python -m repro.obs.explain {args.trace}")

    if args.obs:
        written = export_run_artifacts(system, args.obs)
        print(f"\nwrote run artifacts to {args.obs}: "
              + ", ".join(sorted(written)))
        print(f"report on them with: python -m repro.obs.report {args.obs}")

    # 6. One verdict: five commands are few enough to check the recorded
    #    history for linearizability as well.
    verdict(system, history)


if __name__ == "__main__":
    main()
