"""One function per paper table/figure.

Every function is deterministic given its ``seed`` and returns a plain
dict of series/rows; ``repro.experiments.reporting`` renders them like
the paper presents them.  Default arguments are laptop-scale — crank
``duration`` / graph sizes / partition lists toward the paper's setup
when you have the time budget.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Optional

from repro.experiments.harness import (
    DEFAULT_SERVICE_TIME,
    build_chirper_system,
    build_tpcc_system,
    check_run,
    make_social_graph,
    run_clients,
    social_optimized_placement,
    steady_rate,
    tpcc_workload,
    warehouse_aligned_placement,
)
from repro.partitioning import PartitionerStats, WorkloadGraph, partition_graph
from repro.workloads.social import CelebrityEvent, ChirperWorkload
from repro.workloads.tpcc import TPCCConfig


def _merge_partition_series(system, name: str) -> list:
    """Sum the per-partition labeled TimeSeries ``name{partition=pX}``
    into one series."""
    merged: dict[float, float] = {}
    for partition in system.partition_names:
        series = system.monitor.series(name, partition=partition)
        for t, v in series.buckets():
            merged[t] = merged.get(t, 0.0) + v
    return sorted(merged.items())


# ---------------------------------------------------------------------------
# Figure 2 — the impact of graph repartitioning (TPC-C, 4 partitions)
# ---------------------------------------------------------------------------


def fig2_repartitioning(
    duration: float = 120.0,
    n_partitions: int = 4,
    seed: int = 1,
    clients_per_partition: int = 6,
    repartition_threshold: int = 25000,
    tpcc_config: Optional[TPCCConfig] = None,
) -> dict:
    """TPC-C with *random* initial placement: low throughput and ~100 %
    multi-partition commands until the oracle repartitions, then both
    recover (paper Fig 2)."""
    tpcc_config = tpcc_config or TPCCConfig(
        n_warehouses=n_partitions, customers_per_district=10, n_items=60
    )
    system, tpcc_config = build_tpcc_system(
        n_partitions,
        mode="dynastar",
        placement="random",
        seed=seed,
        tpcc_config=tpcc_config,
        repartition_threshold=repartition_threshold,
    )
    workload = tpcc_workload(tpcc_config, seed=seed + 1)
    result = run_clients(
        system, workload, clients_per_partition * n_partitions, duration
    )
    throughput = system.monitor.series("completed").buckets()
    objects = _merge_partition_series(system, "objects")
    multi = _merge_partition_series(system, "multipart")
    tput_by_t = dict(throughput)
    multi_fraction = [
        (t, (m / tput_by_t[t]) if tput_by_t.get(t) else 0.0) for t, m in multi
    ]
    return {
        "throughput": throughput,
        "objects_exchanged": objects,
        "multi_partition_fraction": multi_fraction,
        "plan_times": [t for t, _ in system.monitor.series("plans").buckets() if _ > 0],
        "completed": result.completed,
        "failed": result.failed,
        "counters": result.counters,
        "duration": duration,
    }


# ---------------------------------------------------------------------------
# Figure 3 — TPC-C scalability (DynaStar vs S-SMR*)
# ---------------------------------------------------------------------------


def fig3_tpcc_scalability(
    partition_counts=(1, 2, 4, 8),
    duration: float = 30.0,
    seed: int = 1,
    clients_per_partition: int = 6,
    tpcc_scale: Optional[dict] = None,
) -> dict:
    """Peak throughput vs number of partitions, one warehouse per
    partition (state grows with partitions).  DynaStar starts random and
    repartitions; S-SMR* gets the warehouse-aligned placement up front.
    DynaStar throughput is measured after convergence (second half)."""
    tpcc_scale = tpcc_scale or {"customers_per_district": 10, "n_items": 60}
    rows = []
    for k in partition_counts:
        config = TPCCConfig(n_warehouses=k, **tpcc_scale)
        n_clients = clients_per_partition * k

        system, _ = build_tpcc_system(
            k,
            mode="dynastar",
            placement="random",
            seed=seed,
            tpcc_config=config,
            repartition_threshold=4000 * k,
        )
        res_dyna = run_clients(
            system, tpcc_workload(config, seed + 1), n_clients, duration,
            warmup=duration / 2,
        )

        config2 = TPCCConfig(n_warehouses=k, **tpcc_scale)
        system2, _ = build_tpcc_system(
            k,
            mode="ssmr",
            placement=warehouse_aligned_placement(config2),
            seed=seed,
            tpcc_config=config2,
        )
        res_ssmr = run_clients(
            system2, tpcc_workload(config2, seed + 1), n_clients, duration,
            warmup=duration / 2,
        )
        rows.append(
            {
                "partitions": k,
                "dynastar_tput": res_dyna.throughput,
                "ssmr_star_tput": res_ssmr.throughput,
                "dynastar_completed": res_dyna.completed,
                "ssmr_star_completed": res_ssmr.completed,
            }
        )
    return {"rows": rows, "duration": duration}


# ---------------------------------------------------------------------------
# Figure 4 — social network throughput & latency vs partitions
# ---------------------------------------------------------------------------


def fig4_social_throughput(
    partition_counts=(1, 2, 4, 8),
    mixes=("timeline", "mix"),
    n_users: int = 1500,
    duration: float = 40.0,
    seed: int = 1,
    clients_per_partition: int = 6,
    modes=("dynastar", "ssmr_star"),
) -> dict:
    """Peak throughput and latency (~75 % of peak load; mean + p95) for
    timeline-only and mixed workloads, DynaStar vs S-SMR* (paper Fig 4);
    ``modes`` may add ``"dssmr"``, the naive-migration baseline."""

    def run(mode, k, mix, n_clients):
        graph = make_social_graph(n_users, seed=seed + 10)
        if mode == "dynastar":
            system = build_chirper_system(
                k, graph, placement="random", seed=seed, repartition_threshold=4000 * k
            )
        elif mode == "ssmr_star":
            system = build_chirper_system(
                k, graph, mode="ssmr", seed=seed,
                placement=social_optimized_placement(graph, k, seed=seed),
            )
        else:
            system = build_chirper_system(k, graph, mode=mode, placement="random", seed=seed)
        workload = ChirperWorkload(graph, mix=mix, seed=seed + 2)
        return run_clients(system, workload, n_clients, duration, warmup=duration / 2)

    rows = []
    for mix in mixes:
        for k in partition_counts:
            n_clients = clients_per_partition * k
            row = {"mix": mix, "partitions": k}
            for mode in modes:
                row[f"{mode}_tput"] = run(mode, k, mix, n_clients).throughput
                # latency at ~75% of saturating load: rerun with 3/4 clients
                res75 = run(mode, k, mix, max(1, (3 * n_clients) // 4))
                row[f"{mode}_lat_mean_ms"] = res75.latency_mean * 1e3
                row[f"{mode}_lat_p95_ms"] = res75.latency_p95 * 1e3
            rows.append(row)
    return {"rows": rows, "duration": duration, "n_users": n_users}


# ---------------------------------------------------------------------------
# Figure 5 — latency CDFs (mix workload)
# ---------------------------------------------------------------------------


def fig5_latency_cdf(
    partition_counts=(2, 4, 8),
    n_users: int = 1500,
    duration: float = 30.0,
    seed: int = 1,
    clients_per_partition: int = 4,
) -> dict:
    """Latency CDFs of the mixed workload for DynaStar vs S-SMR*."""
    cdfs = {}
    for k in partition_counts:
        for mode in ("dynastar", "ssmr_star"):
            graph = make_social_graph(n_users, seed=seed + 10)
            if mode == "dynastar":
                system = build_chirper_system(
                    k, graph, mode="dynastar", placement="random",
                    seed=seed, repartition_threshold=4000 * k,
                )
            else:
                system = build_chirper_system(
                    k, graph, mode="ssmr",
                    placement=social_optimized_placement(graph, k, seed=seed),
                    seed=seed,
                )
            workload = ChirperWorkload(graph, mix="mix", seed=seed + 2)
            run_clients(system, workload, clients_per_partition * k, duration)
            cdfs[(mode, k)] = system.monitor.histogram("latency").cdf(points=50)
    return {"cdfs": cdfs, "duration": duration}


# ---------------------------------------------------------------------------
# Figure 6 — dynamic workload (celebrity event)
# ---------------------------------------------------------------------------


def fig6_dynamic_workload(
    n_partitions: int = 4,
    n_users: int = 1200,
    duration: float = 240.0,
    event_time: float = 120.0,
    seed: int = 1,
    clients: int = 16,
    repartition_threshold: int = 8000,
) -> dict:
    """An evolving network: a celebrity appears at ``event_time``; users
    flock to follow them.  DynaStar repartitions and recovers; S-SMR*'s
    static placement degrades (paper Fig 6)."""
    results = {}
    for mode in ("dynastar", "ssmr_star"):
        graph = make_social_graph(n_users, seed=seed + 10)
        event = CelebrityEvent(time=event_time, celebrity=n_users + 7)
        if mode == "dynastar":
            system = build_chirper_system(
                n_partitions, graph, mode="dynastar", placement="random",
                seed=seed, repartition_threshold=repartition_threshold,
            )
        else:
            system = build_chirper_system(
                n_partitions, graph, mode="ssmr",
                placement=social_optimized_placement(graph, n_partitions, seed=seed),
                seed=seed,
            )
        workload = ChirperWorkload(graph, mix="mix", seed=seed + 2, event=event)
        run_clients(system, workload, clients, duration)
        tput = system.monitor.series("completed").buckets()
        multi = _merge_partition_series(system, "multipart")
        objects = _merge_partition_series(system, "objects")
        tput_by_t = dict(tput)
        results[mode] = {
            "throughput": tput,
            "multi_fraction": [
                (t, m / tput_by_t[t] if tput_by_t.get(t) else 0.0)
                for t, m in multi
            ],
            "objects_exchanged": objects,
            "plan_times": [
                t for t, v in system.monitor.series("plans").buckets() if v > 0
            ],
        }
    results["event_time"] = event_time
    results["duration"] = duration
    return results


# ---------------------------------------------------------------------------
# Table 1 — per-partition load at peak throughput
# ---------------------------------------------------------------------------


def table1_partition_load(
    n_partitions: int = 4,
    n_users: int = 1500,
    duration: float = 40.0,
    seed: int = 1,
    clients_per_partition: int = 6,
) -> dict:
    """Average per-partition throughput, multi-partition commands/s and
    exchanged objects/s at peak (paper Table 1: the load is skewed even
    though objects are evenly spread)."""
    graph = make_social_graph(n_users, seed=seed + 10)
    system = build_chirper_system(
        n_partitions, graph, mode="dynastar", placement="random",
        seed=seed, repartition_threshold=1200 * n_partitions,
    )
    workload = ChirperWorkload(graph, mix="mix", seed=seed + 2)
    run_clients(system, workload, clients_per_partition * n_partitions, duration)
    warmup = duration / 2
    rows = []
    for name in system.partition_names:
        rows.append(
            {
                "partition": name,
                "tput": steady_rate(
                    system.monitor.series("tput", partition=name).buckets(),
                    warmup,
                    duration,
                ),
                "multipart_per_sec": steady_rate(
                    system.monitor.series("multipart", partition=name).buckets(),
                    warmup,
                    duration,
                ),
                "objects_per_sec": steady_rate(
                    system.monitor.series("objects", partition=name).buckets(),
                    warmup,
                    duration,
                ),
                "owned_nodes": len(system.servers(name)[0].owned_nodes),
            }
        )
    rows.sort(key=lambda r: -r["tput"])
    return {"rows": rows, "duration": duration}


# ---------------------------------------------------------------------------
# Figure 7 — partitioner (METIS-equivalent) CPU and memory scaling
# ---------------------------------------------------------------------------


def fig7_partitioner_scaling(
    sizes=(10_000, 30_000, 100_000),
    k: int = 8,
    seed: int = 1,
    avg_degree: int = 5,
) -> dict:
    """Partitioner wall-clock time and peak memory vs graph size; the
    paper shows METIS scaling linearly to 10 M vertices — we verify the
    same linear shape on our multilevel implementation."""
    import random as _random

    rows = []
    for n in sizes:
        rng = _random.Random(seed)
        graph = WorkloadGraph()
        for v in range(1, n):
            for _ in range(avg_degree):
                graph.add_edge(v, rng.randrange(v))  # preferential-ish
        gc.collect()
        tracemalloc.start()
        stats = PartitionerStats()
        partition_graph(graph, k, seed=seed, stats=stats)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(
            {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "seconds": stats.elapsed_seconds,
                "peak_mb": peak / 1e6,
                "levels": stats.levels,
                "final_cut": stats.final_cut,
            }
        )
    return {"rows": rows, "k": k}


# ---------------------------------------------------------------------------
# Figure 8 — oracle load over time
# ---------------------------------------------------------------------------


def fig8_oracle_load(
    n_partitions: int = 4,
    n_users: int = 1200,
    duration: float = 160.0,
    repartition_time: float = 80.0,
    seed: int = 1,
    clients: int = 16,
) -> dict:
    """Steady state: the clients have everything cached and the oracle is
    idle.  A repartitioning invalidates the caches: the oracle sees a
    query spike that decays back to ~zero (paper Fig 8)."""
    graph = make_social_graph(n_users, seed=seed + 10)
    system = build_chirper_system(
        n_partitions, graph, mode="dynastar", placement="random",
        seed=seed, repartition_threshold=10**9,  # only the manual plan
    )
    workload = ChirperWorkload(graph, mix="mix", seed=seed + 2)
    oracle0 = system.oracle_replicas()[0]
    system.sim.schedule_at(repartition_time, oracle0.request_repartition)
    run_clients(system, workload, clients, duration)
    queries = system.monitor.series("oracle_queries").buckets()
    return {
        "oracle_queries": queries,
        "repartition_time": repartition_time,
        "plan_times": [
            t for t, v in system.monitor.series("plans").buckets() if v > 0
        ],
        "duration": duration,
        "total_queries": system.monitor.counters().get("oracle_queries_total", 0),
    }


# ---------------------------------------------------------------------------
# Execution lanes on Chirper (not a paper figure; DESIGN.md §10)
# ---------------------------------------------------------------------------


def chirper_lanes(
    lane_counts=(1, 2, 4),
    mixes=(("mix", 0.15, 0.0), ("posts", 0.5, 0.1)),
    n_users: int = 300,
    n_clients: int = 8,
    duration: float = 8.0,
    seed: int = 1,
) -> dict:
    """``execution_lanes`` on the paper's workload: the Chirper mix (85 %
    timeline / 15 % post) and the post-heavy variant (50 % post, 10 %
    follow / unfollow, ~45 % multi-partition) on 2 partitions with
    repartitioning, Zipf 0.95, 2 ms service time, saturated by
    ``n_clients`` closed-loop clients — the deployments of the
    ``chirper_mix`` / ``chirper_posts`` benchmark workloads.  Virtual
    time: exact at equal seeds; ``speedup`` is against the first lane
    count.  Each run is drained and judged by ``check_run``; ``problems``
    lists what it found."""
    rows, one_lane = [], {}
    for name, post_fraction, follow_fraction in mixes:
        for lanes in lane_counts:
            graph = make_social_graph(n_users, seed=seed + 10)
            system = build_chirper_system(
                2, graph, seed=seed, repartition_threshold=4000, execution_lanes=lanes
            )
            workload = ChirperWorkload(
                graph, mix="mix", rho=0.95, seed=seed + 2,
                post_fraction=post_fraction, follow_fraction=follow_fraction,
                rank_by="random",
            )
            result = run_clients(system, workload, n_clients, duration, warmup=2.0)
            system.run(until=duration + 3.0)
            multi = result.counters.get("multi_partition_commands", 0)
            base = one_lane.setdefault(name, result.throughput)
            rows.append(
                {
                    "mix": name,
                    "lanes": lanes,
                    "tput": result.throughput,
                    "speedup": result.throughput / base if base else 0.0,
                    "lat_mean_ms": result.latency_mean * 1e3,
                    "lat_p95_ms": result.latency_p95 * 1e3,
                    "multi_frac": multi / max(result.completed, 1),
                    "problems": check_run(system),
                }
            )
    return {"rows": rows, "duration": duration, "n_users": n_users, "n_clients": n_clients}
