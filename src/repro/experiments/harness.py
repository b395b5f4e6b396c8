"""Shared experiment machinery: system builders for the two benchmarks,
client pools, steady-state metric extraction, and run-artifact export."""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.baselines import DSSMRSystem, SSMRSystem
from repro.core import DynaStarSystem, SystemConfig
from repro.partitioning import WorkloadGraph, partition_graph
from repro.partitioning.graph import Partitioning
from repro.sim.latency import LatencyModel, lan_default
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


def verify_consistency(system) -> list[str]:
    """Cheap safety invariants of a drained run (full linearizability
    checking is exponential in history length and lives in the test
    suite over short scripted histories): the replicas of every live
    partition agree, learner mirrors equal their partition's state,
    retired partitions hold nothing, and no initial variable is lost or
    owned twice.  Returns violation descriptions; empty means clean."""
    problems = []
    for partition in system.partition_names:
        replicas = system.servers(partition)
        baseline = dict(replicas[0].store.items())
        if any(dict(r.store.items()) != baseline for r in replicas[1:]):
            problems.append(f"replica state divergence in {partition}")
        for learner in system.directory.groups[partition].learners:
            if dict(learner.store.items()) != baseline:
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
    return problems


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
