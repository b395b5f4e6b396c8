"""Multilevel k-way partitioner driver (the METIS equivalent).

``partition_graph(graph, k)`` runs the full multilevel pipeline:

1. map vertex ids to dense ints,
2. coarsen with heavy-edge matching until ~max(20·k, 120) vertices,
3. greedy-graph-growing initial k-way partition of the coarsest graph,
4. project back level by level, refining the boundary at each level,
5. final rebalance pass enforcing the imbalance ceiling (default 20 %,
   the METIS configuration the paper uses).

Deterministic given ``seed``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.partitioning.coarsen import IntGraph, coarsen_to_size
from repro.partitioning.graph import Partitioning, WorkloadGraph
from repro.partitioning.initial import greedy_growing
from repro.partitioning.refine import rebalance, refine
from repro.sim.randomness import stable_hash


@dataclass
class PartitionerStats:
    """Diagnostics from one partitioner run (feeds the Fig 7 benchmark)."""

    n_vertices: int = 0
    n_edges: int = 0
    levels: int = 0
    coarsest_size: int = 0
    initial_cut: float = 0.0
    final_cut: float = 0.0
    elapsed_seconds: float = 0.0
    peak_coarse_vertices: int = 0


def partition_graph(
    graph: WorkloadGraph,
    k: int,
    imbalance: float = 0.20,
    seed: int = 0,
    refine_passes: int = 8,
    restarts: int = 1,
    stats: Optional[PartitionerStats] = None,
) -> Partitioning:
    """Partition ``graph`` into ``k`` parts minimizing edge-cut subject to
    a ``(1 + imbalance)`` vertex-weight ceiling per part.

    ``restarts`` runs the multilevel pipeline that many times with
    different seeds and keeps the best feasible cut (METIS's ``ncuts``) —
    important on small graphs where a single greedy-grown start can land
    in a poor local optimum.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    started = time.perf_counter()
    ids = list(graph.vertices())
    if not ids:
        return Partitioning({}, k)
    if k == 1:
        return Partitioning({v: 0 for v in ids}, 1)

    index = {v: i for i, v in enumerate(ids)}
    adj: list[dict[int, float]] = [dict() for _ in ids]
    for u, v, w in graph.edges():
        iu, iv = index[u], index[v]
        adj[iu][iv] = w
        adj[iv][iu] = w
    vwgt = [graph.vertex_weight(v) for v in ids]
    int_graph = IntGraph(adj, vwgt)

    best: Optional[list[int]] = None
    best_key: Optional[tuple] = None
    ideal = int_graph.total_vwgt / k
    for attempt in range(restarts):
        assignment, run_stats = _multilevel_once(
            int_graph, k, imbalance, seed + attempt, refine_passes
        )
        cut = int_graph.edge_cut(assignment)
        weights = [0.0] * k
        for u in range(int_graph.n):
            weights[assignment[u]] += int_graph.vwgt[u]
        over = max(weights) / ideal - 1.0 if ideal else 0.0
        feasible = over <= imbalance + 1e-9
        key = (not feasible, cut)
        if best_key is None or key < best_key:
            best, best_key = assignment, key
            if stats is not None:
                stats.levels = run_stats["levels"]
                stats.coarsest_size = run_stats["coarsest_size"]
                stats.initial_cut = run_stats["initial_cut"]
                stats.peak_coarse_vertices = run_stats["peak"]

    if stats is not None:
        stats.n_vertices = len(ids)
        stats.n_edges = graph.num_edges
        stats.final_cut = int_graph.edge_cut(best)
        stats.elapsed_seconds = time.perf_counter() - started

    return Partitioning({ids[i]: best[i] for i in range(len(ids))}, k)


def _multilevel_once(
    int_graph: IntGraph, k: int, imbalance: float, seed: int, refine_passes: int
) -> tuple[list[int], dict]:
    """One multilevel V-cycle: coarsen, initial partition, uncoarsen+refine."""
    rng = random.Random(seed)
    target = max(20 * k, 120)
    levels, maps = coarsen_to_size(int_graph, target, rng)
    coarsest = levels[-1]

    assignment = greedy_growing(coarsest, k, rng)
    initial_cut = coarsest.edge_cut(assignment)
    assignment = refine(coarsest, assignment, k, imbalance, refine_passes)
    assignment = rebalance(coarsest, assignment, k, imbalance)

    for level_index in range(len(maps) - 1, -1, -1):
        fine = levels[level_index]
        mapping = maps[level_index]
        fine_assignment = [assignment[mapping[u]] for u in range(fine.n)]
        assignment = refine(fine, fine_assignment, k, imbalance, refine_passes)
    assignment = rebalance(int_graph, assignment, k, imbalance)
    run_stats = {
        "levels": len(levels),
        "coarsest_size": coarsest.n,
        "initial_cut": initial_cut,
        "peak": sum(level.n for level in levels),
    }
    return assignment, run_stats


def random_partition(
    graph: WorkloadGraph, k: int, seed: int = 0
) -> Partitioning:
    """Uniform random placement — the paper's starting condition for
    DynaStar and the weakest baseline in the ablations."""
    rng = random.Random(seed)
    return Partitioning({v: rng.randrange(k) for v in graph.vertices()}, k)


def hash_partition(graph: WorkloadGraph, k: int) -> Partitioning:
    """Deterministic hash placement (consistent-hashing-style baseline)."""
    return Partitioning({v: stable_hash(v) % k for v in graph.vertices()}, k)
