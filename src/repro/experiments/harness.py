"""Shared experiment machinery: system builders for the two benchmarks,
client pools, steady-state metric extraction, and run-artifact export."""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.baselines import DSSMRSystem, SSMRSystem
from repro.compartment.messages import LeaseGrant
from repro.core import DynaStarSystem, PartitionServer, SystemConfig
from repro.partitioning import WorkloadGraph, partition_graph
from repro.partitioning.graph import Partitioning
from repro.sim.latency import LatencyModel, lan_default
from repro.smr import History, check_linearizable
from repro.workloads.social import (
    ChirperApp,
    ChirperWorkload,
    SocialGraph,
    generate_social_graph,
)
from repro.workloads.tpcc import (
    TPCCApp,
    TPCCConfig,
    TPCCWorkload,
    district_node,
    warehouse_node,
)

#: Default per-command service time for throughput experiments (2 ms -> a
#: partition saturates at ~500 cps; the paper's absolute numbers differ,
#: the scaling shape is what we reproduce).
DEFAULT_SERVICE_TIME = 0.002


@dataclass
class RunResult:
    """Everything the figures need from one run."""

    duration: float
    warmup: float
    completed: int
    failed: int
    throughput: float  # steady-state commands/second
    latency_mean: float
    latency_p95: float
    counters: dict = field(default_factory=dict)
    throughput_series: list = field(default_factory=list)
    system: object = None
    workload: object = None
    #: Per-stage latency breakdown (``repro.obs.analyze.stage_breakdown``
    #: output) — populated only when the system ran with tracing enabled.
    stage_breakdown: Optional[dict] = None


def steady_rate(series: list, warmup: float, duration: float) -> float:
    """Average per-second rate of a TimeSeries bucket list within
    ``[warmup, duration)``."""
    window = [v for (t, v) in series if warmup <= t < duration]
    if not window:
        return 0.0
    return sum(window) / len(window)


def run_clients(
    system,
    workload,
    n_clients: int,
    duration: float,
    warmup: float = 5.0,
) -> RunResult:
    """Attach ``n_clients`` closed-loop clients, run, and summarize the
    post-warmup steady state."""
    clients = [
        system.add_client(workload, stop_at=duration) for _ in range(n_clients)
    ]
    system.run(until=duration)
    monitor = system.monitor
    series = monitor.series("completed").buckets()
    latency = monitor.histogram("latency")
    breakdown = None
    tracer = getattr(system, "tracer", None)
    if tracer is not None and tracer.enabled and tracer.spans:
        from repro.obs.analyze import TraceSet, stage_breakdown

        breakdown = stage_breakdown(TraceSet.from_tracer(tracer))
    return RunResult(
        duration=duration,
        warmup=warmup,
        completed=sum(c.completed for c in clients),
        failed=sum(c.failed for c in clients),
        throughput=steady_rate(series, warmup, duration),
        latency_mean=latency.mean(),
        latency_p95=latency.percentile(95) if len(latency) else float("nan"),
        counters=dict(monitor.counters()),
        throughput_series=series,
        system=system,
        workload=workload,
        stage_breakdown=breakdown,
    )


def export_run_artifacts(system, directory: str) -> dict:
    """Write whatever observability artifacts the system collected into
    ``directory`` under the names ``repro.obs.report`` expects
    (``trace.jsonl``, ``metrics.json``, ``audit.jsonl``,
    ``health.jsonl``).  Returns ``{artifact: path}`` for what was
    written; disabled collectors are simply skipped."""
    os.makedirs(directory, exist_ok=True)
    written: dict = {}

    tracer = getattr(system, "tracer", None)
    if tracer is not None and tracer.enabled and tracer.spans:
        path = os.path.join(directory, "trace.jsonl")
        tracer.export_jsonl(path)
        written["trace"] = path

    monitor = getattr(system, "monitor", None)
    if monitor is not None:
        path = os.path.join(directory, "metrics.json")
        with open(path, "w") as fh:
            json.dump(monitor.snapshot(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        written["metrics"] = path

    audit = getattr(system, "audit", None)
    if audit is not None and audit.enabled:
        path = os.path.join(directory, "audit.jsonl")
        audit.export_jsonl(path)
        written["audit"] = path

    health = getattr(system, "health", None)
    if health is not None:
        path = os.path.join(directory, "health.jsonl")
        health.export_jsonl(path)
        written["health"] = path

    return written


def fingerprint(system) -> tuple[str, str]:
    """(trace_jsonl, metrics_json) of one finished traced run — what
    the exact gate (:mod:`repro.experiments.perf`) compares byte-for-byte.
    The metric half carries, under ``"sim"``, the event and message
    totals: no span sees a heartbeat-class message, and on a lossless
    constant-latency network an extra one moves nothing else."""
    buf = io.StringIO()
    system.tracer.export_jsonl(buf)
    net = system.net.stats()
    sim = {
        "events_processed": system.sim.events_processed,
        **{f"net_{key}": net[key] for key in ("sent", "delivered", "dropped")},
    }
    metrics = json.dumps({**system.monitor.snapshot(), "sim": sim}, sort_keys=True)
    return buf.getvalue(), metrics


#: Virtual seconds a scenario runs on after its clients stop, so every
#: command in flight resolves before the run is summarized and judged.
DRAIN = 30.0


def run_scenario(scenario) -> tuple:
    """Build one seeded scenario (``repro.experiments.overload`` /
    ``elastic`` / ``compartment``, ``repro.recovery.demo``), run it
    :data:`DRAIN` past ``scenario.duration`` and return ``(summary,
    system)``: the drained system is what :func:`check_run` judges and
    :func:`fingerprint` digests."""
    system = scenario.build()
    system.run(until=scenario.duration + DRAIN)
    return scenario.summarize(system), system


def check_run(system, history: Optional[History] = None) -> list[str]:
    """The verdict on one finished, *drained* run: every way it breaks
    the paper's correctness claim (replicas that deliver the same
    sequence stay identical and clients see a linearizable history),
    one line each; empty means clean.  DESIGN.md, "What ``check_run``
    asserts and what it assumes", gives the argument for each line.

    Replicas that are down are skipped, as ``all_store_variables`` skips
    them: a scenario that ends with one down asserts on it itself.
    Linearizability is checked only when a ``history`` was recorded, and
    is exponential in its length.  That no actor raised is implied: the
    run returned.
    """
    problems = []
    now = system.sim.now
    next_event = system.sim.peek_time()
    if next_event is not None and next_event < now:
        problems.append(
            f"virtual clock moved backwards: an event is due at {next_event}, now is {now}"
        )

    for partition in system.partition_names:
        group = system.directory.groups[partition]
        live = [r for r in group.replicas if not r.crashed]
        if not live:
            continue
        first, stores = live[0], dict(live[0].store.items())
        for replica in live[1:]:
            if dict(replica.store.items()) != stores:
                problems.append(f"replica state divergence in {partition}")
            if replica.owned_nodes != first.owned_nodes:
                problems.append(f"replica ownership divergence in {partition}")
        for learner in group.learners:
            if not learner.crashed and dict(learner.store.items()) != stores:
                problems.append(
                    f"learner {learner.name} diverged from {partition} state"
                )
    if system.elastic is not None:
        for name in sorted(system.elastic.retired):
            group = system.directory.groups.get(name)
            if group is not None and any(
                not r.crashed and len(r.store) for r in group.replicas
            ):
                problems.append(f"retired partition {name} still owns state")
    try:
        merged = system.all_store_variables()
    except AssertionError as exc:
        problems.append(str(exc))
    else:
        lost = set(system.app.initial_variables()) - set(merged)
        if lost:
            problems.append(
                f"initial variables owned by no partition: {sorted(lost, key=repr)}"
            )

    for client in system.clients:
        if not client.done:
            problems.append(f"{client.name} stuck (completed={client.completed})")
        elif len(client.results) != client.completed + client.failed:
            problems.append(
                f"{client.name} holds {len(client.results)} results for "
                f"{client.completed} completed + {client.failed} failed commands"
            )

    for group in system.directory.groups.values():
        for replica in group.replicas:
            if replica.crashed:
                continue
            left = [f"{name} {n}" for name, n in _attempt_state(replica).items() if n]
            if left:
                problems.append(
                    f"{replica.name} still holds per-attempt state: {', '.join(left)}"
                )

    if history is not None and not check_linearizable(history, system.app):
        problems.append(f"history of {len(history)} operations is not linearizable")
    return problems


def _attempt_state(replica) -> dict:
    """How much a server or oracle replica holds of what it keeps per
    unfinished attempt — all zero once the run is drained.  A lease
    renewal in the Paxos pipeline does not count: it is periodic, like a
    heartbeat."""
    proposed = [
        value
        for _ballot, batch in replica.proposals.values()
        for value in getattr(batch, "values", (batch,))
    ]
    held = {
        "pending_msgs": len(replica.pending_msgs),
        "paxos pending": sum(
            not isinstance(v, LeaseGrant) for v in replica.pending.values()
        ),
        "paxos proposals": sum(not isinstance(v, LeaseGrant) for v in proposed),
    }
    if replica.admission is not None:
        held["admission slots"] = replica.admission.depth
    if isinstance(replica, PartitionServer):
        held.update(
            {
                "queue": len(replica.queue),
                "_attempts": len(replica._attempts),
                "outbox": len(replica.reliable),
                "in_transit": len(replica.in_transit),
                "_early_plan_transfers": len(replica._early_plan_transfers),
            }
        )
    return held


# ---------------------------------------------------------------------------
# TPC-C builders
# ---------------------------------------------------------------------------


def warehouse_aligned_placement(config: TPCCConfig) -> dict:
    """The manual optimum for TPC-C: warehouse ``w`` and all its districts
    on partition ``w-1`` (one warehouse per partition, §6.3) — this is
    what S-SMR* uses."""
    placement = {}
    for w in range(1, config.n_warehouses + 1):
        part = (w - 1) % config.n_warehouses
        placement[warehouse_node(w)] = part
        for d in range(1, config.districts_per_warehouse + 1):
            placement[district_node(w, d)] = part
    return placement


def build_tpcc_system(
    n_partitions: int,
    mode: str = "dynastar",
    placement="random",
    seed: int = 1,
    tpcc_config: Optional[TPCCConfig] = None,
    repartition_threshold: int = 4000,
    service_time: float = DEFAULT_SERVICE_TIME,
    latency: Optional[LatencyModel] = None,
    hint_period: float = 1.0,
    execution_lanes: int = 1,
):
    """A TPC-C deployment with one warehouse per partition (paper §6.3)."""
    tpcc_config = tpcc_config or TPCCConfig(n_warehouses=n_partitions)
    app = TPCCApp(tpcc_config)
    config = SystemConfig(
        n_partitions=n_partitions,
        seed=seed,
        mode="dynastar" if mode == "dynastar" else mode,
        placement=placement,
        repartition_enabled=(mode == "dynastar"),
        repartition_threshold=repartition_threshold,
        service_time=service_time,
        latency=latency or lan_default(),
        hint_period=hint_period,
        execution_lanes=execution_lanes,
    )
    if mode == "ssmr":
        system = SSMRSystem(app, config)
    elif mode == "dssmr":
        system = DSSMRSystem(app, config)
    else:
        system = DynaStarSystem(app, config)
    return system, tpcc_config


def tpcc_workload(tpcc_config: TPCCConfig, seed: int = 2) -> TPCCWorkload:
    return TPCCWorkload(tpcc_config, seed=seed)


# ---------------------------------------------------------------------------
# Chirper builders
# ---------------------------------------------------------------------------


def social_optimized_placement(graph: SocialGraph, k: int, seed: int = 0) -> Partitioning:
    """Offline METIS-style placement of the *social* graph — full workload
    knowledge, as handed to S-SMR* in §6.4."""
    wg = WorkloadGraph()
    for user in graph.users():
        wg.ensure_vertex(("user", user))
    for user, following in graph.following.items():
        for other in following:
            wg.add_edge(("user", user), ("user", other))
    return partition_graph(wg, k, seed=seed)


def build_chirper_system(
    n_partitions: int,
    graph: SocialGraph,
    mode: str = "dynastar",
    placement="random",
    seed: int = 1,
    repartition_threshold: int = 6000,
    service_time: float = DEFAULT_SERVICE_TIME,
    latency: Optional[LatencyModel] = None,
    hint_period: float = 1.0,
    execution_lanes: int = 1,
):
    app = ChirperApp(graph)
    config = SystemConfig(
        n_partitions=n_partitions,
        seed=seed,
        mode="dynastar" if mode == "dynastar" else mode,
        placement=placement,
        repartition_enabled=(mode == "dynastar"),
        repartition_threshold=repartition_threshold,
        service_time=service_time,
        latency=latency or lan_default(),
        hint_period=hint_period,
        execution_lanes=execution_lanes,
    )
    if mode == "ssmr":
        return SSMRSystem(app, config)
    if mode == "dssmr":
        return DSSMRSystem(app, config)
    return DynaStarSystem(app, config)


def make_social_graph(n_users: int, seed: int = 11, avg_follows: float = 12.0) -> SocialGraph:
    """The Higgs-substitute graph at experiment scale."""
    return generate_social_graph(n_users, avg_follows=avg_follows, seed=seed)
