"""Tests for coarsening, initial partitioning, refinement, and the
multilevel driver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import (
    PartitionerStats,
    WorkloadGraph,
    edge_cut,
    imbalance,
    partition_graph,
)
from repro.partitioning.coarsen import IntGraph, coarsen, coarsen_to_size
from repro.partitioning.initial import greedy_growing
from repro.partitioning.metis import random_partition
from repro.partitioning.quality import cut_fraction
from repro.partitioning.refine import refine


def ring_graph(n, weight=1.0):
    g = WorkloadGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n, weight)
    return g


def clustered_graph(n_clusters=4, size=30, seed=1, p_intra=0.4, p_inter=0.01):
    """Dense clusters with sparse inter-cluster edges: an easy instance
    any decent partitioner must nearly separate."""
    rng = random.Random(seed)
    g = WorkloadGraph()
    for c in range(n_clusters):
        base = c * size
        for i in range(size):
            g.ensure_vertex(base + i)
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < p_intra:
                    g.add_edge(base + i, base + j)
    for c in range(n_clusters):
        for d in range(c + 1, n_clusters):
            for _ in range(max(1, int(size * size * p_inter / 4))):
                g.add_edge(
                    c * size + rng.randrange(size), d * size + rng.randrange(size)
                )
    return g


def to_int_graph(g: WorkloadGraph):
    ids = list(g.vertices())
    index = {v: i for i, v in enumerate(ids)}
    adj = [dict() for _ in ids]
    for u, v, w in g.edges():
        adj[index[u]][index[v]] = w
        adj[index[v]][index[u]] = w
    return IntGraph(adj, [g.vertex_weight(v) for v in ids])


class TestCoarsen:
    def test_vertex_weight_conserved(self):
        g = to_int_graph(ring_graph(40))
        coarse, _ = coarsen(g, random.Random(1))
        assert coarse.total_vwgt == pytest.approx(g.total_vwgt)

    def test_mapping_is_total_and_onto(self):
        g = to_int_graph(ring_graph(40))
        coarse, mapping = coarsen(g, random.Random(1))
        assert len(mapping) == g.n
        assert set(mapping) == set(range(coarse.n))

    def test_graph_shrinks(self):
        g = to_int_graph(ring_graph(100))
        coarse, _ = coarsen(g, random.Random(1))
        assert coarse.n < g.n

    def test_internal_edges_disappear_weights_conserved_or_hidden(self):
        # Sum of coarse edge weights + hidden matched-edge weights == fine sum.
        g = to_int_graph(ring_graph(20, weight=2.0))
        fine_total = sum(sum(r.values()) for r in g.adj) / 2
        coarse, mapping = coarsen(g, random.Random(3))
        coarse_total = sum(sum(r.values()) for r in coarse.adj) / 2
        assert coarse_total <= fine_total

    def test_coarsen_to_size_reaches_target(self):
        g = to_int_graph(clustered_graph())
        levels, maps = coarsen_to_size(g, target=30, rng=random.Random(1))
        assert levels[-1].n <= max(30, levels[-2].n if len(levels) > 1 else 30)
        assert len(maps) == len(levels) - 1

    def test_coarsen_stops_on_stall(self):
        # A star cannot be matched below ~n/2 repeatedly; must not loop.
        g = WorkloadGraph()
        for i in range(1, 50):
            g.add_edge(0, i)
        levels, _ = coarsen_to_size(to_int_graph(g), target=2, rng=random.Random(1))
        assert len(levels) < 50  # terminated


class TestInitialPartition:
    def test_assignment_covers_all_vertices(self):
        g = to_int_graph(clustered_graph())
        assignment = greedy_growing(g, 4, random.Random(1))
        assert len(assignment) == g.n
        assert all(0 <= p < 4 for p in assignment)

    def test_all_parts_nonempty_on_reasonable_graph(self):
        g = to_int_graph(clustered_graph())
        assignment = greedy_growing(g, 4, random.Random(1))
        assert len(set(assignment)) == 4

    def test_k_equals_one(self):
        g = to_int_graph(ring_graph(10))
        assert greedy_growing(g, 1, random.Random(1)) == [0] * 10

    def test_k_larger_than_n(self):
        g = to_int_graph(ring_graph(3))
        assignment = greedy_growing(g, 8, random.Random(1))
        assert len(set(assignment)) == 3  # each vertex its own part

    def test_disconnected_graph_handled(self):
        g = WorkloadGraph()
        for c in range(4):  # 4 disjoint triangles
            g.add_edge((c, 0), (c, 1))
            g.add_edge((c, 1), (c, 2))
            g.add_edge((c, 0), (c, 2))
        assignment = greedy_growing(to_int_graph(g), 2, random.Random(1))
        assert len(assignment) == 12


class TestRefine:
    def test_refinement_never_increases_cut(self):
        for seed in range(5):
            g = to_int_graph(clustered_graph(seed=seed))
            rng = random.Random(seed)
            assignment = [rng.randrange(4) for _ in range(g.n)]
            before = g.edge_cut(assignment)
            refined = refine(g, list(assignment), 4, imbalance=0.2)
            after = g.edge_cut(refined)
            assert after <= before

    def test_refinement_improves_random_assignment(self):
        g = to_int_graph(clustered_graph(seed=7))
        rng = random.Random(7)
        assignment = [rng.randrange(4) for _ in range(g.n)]
        before = g.edge_cut(assignment)
        after = g.edge_cut(refine(g, list(assignment), 4))
        assert after < before

    def test_refine_k1_noop(self):
        g = to_int_graph(ring_graph(10))
        assert refine(g, [0] * 10, 1) == [0] * 10


class TestPartitionGraphDriver:
    def test_partition_covers_every_vertex(self):
        g = clustered_graph()
        p = partition_graph(g, 4, seed=1)
        assert set(p.assignment) == set(g.vertices())

    def test_partition_respects_k_range(self):
        g = clustered_graph()
        p = partition_graph(g, 4, seed=1)
        assert set(p.assignment.values()) <= set(range(4))

    def test_beats_random_on_clustered_graph(self):
        g = clustered_graph(seed=5)
        optimized = partition_graph(g, 4, seed=1)
        rand = random_partition(g, 4, seed=1)
        assert optimized.edge_cut(g) < 0.5 * rand.edge_cut(g)

    def test_nearly_separates_clusters(self):
        g = clustered_graph(seed=9)
        p = partition_graph(g, 4, seed=2)
        assert cut_fraction(g, p.assignment) < 0.15

    def test_balance_constraint_met_on_uniform_weights(self):
        g = clustered_graph(seed=3)
        p = partition_graph(g, 4, imbalance=0.2, seed=1)
        assert p.imbalance(g) <= 0.25  # small slack over the 20% target

    def test_deterministic_given_seed(self):
        g = clustered_graph(seed=2)
        p1 = partition_graph(g, 4, seed=11)
        p2 = partition_graph(g, 4, seed=11)
        assert p1.assignment == p2.assignment

    def test_k1(self):
        g = ring_graph(10)
        p = partition_graph(g, 1)
        assert set(p.assignment.values()) == {0}

    def test_empty_graph(self):
        p = partition_graph(WorkloadGraph(), 4)
        assert p.assignment == {}

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            partition_graph(WorkloadGraph(), 0)

    def test_stats_populated(self):
        g = clustered_graph()
        stats = PartitionerStats()
        partition_graph(g, 4, seed=1, stats=stats)
        assert stats.n_vertices == g.num_vertices
        assert stats.levels >= 1
        assert stats.final_cut >= 0
        assert stats.elapsed_seconds > 0

    def test_weighted_vertices_balance_on_weight(self):
        g = WorkloadGraph()
        # two heavy vertices and many light ones; heavy ones must split
        g.add_vertex("h1", 100.0)
        g.add_vertex("h2", 100.0)
        for i in range(20):
            g.add_edge("h1", f"a{i}")
            g.add_edge("h2", f"b{i}")
        p = partition_graph(g, 2, seed=1)
        assert p.assignment["h1"] != p.assignment["h2"]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_produces_valid_partition(self, seed):
        g = clustered_graph(n_clusters=3, size=12, seed=seed % 7)
        p = partition_graph(g, 3, seed=seed)
        assert set(p.assignment) == set(g.vertices())
        assert set(p.assignment.values()) <= {0, 1, 2}


class TestBaselinesPlacement:
    def test_random_partition_covers_all(self):
        g = clustered_graph()
        p = random_partition(g, 4, seed=1)
        assert set(p.assignment) == set(g.vertices())


class TestQualityFunctions:
    def test_edge_cut_and_imbalance_helpers(self):
        g = WorkloadGraph.from_edges([("a", "b", 2.0), ("b", "c", 1.0)])
        assignment = {"a": 0, "b": 1, "c": 1}
        assert edge_cut(g, assignment) == 2.0
        assert imbalance(g, assignment, 2) >= 0.0

    def test_cut_fraction_zero_for_empty(self):
        assert cut_fraction(WorkloadGraph(), {}) == 0.0
