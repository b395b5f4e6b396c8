"""Elasticity policy unit and property tests.

The hypothesis properties pin the core directory invariant: across ANY
sequence of split/merge plans — including moved-sets naming stale or
already-relocated nodes — the location map stays a *total*,
*non-overlapping* assignment of every node to a live partition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import ReconfigPlan
from repro.elastic import ElasticConfig
from repro.elastic.policy import apply_reconfig, decide_reconfig, split_assignment
from repro.partitioning import WorkloadGraph


def make_graph(location, weights=None):
    graph = WorkloadGraph()
    for node in location:
        graph.ensure_vertex(node, (weights or {}).get(node, 1.0))
    return graph


# ---------------------------------------------------------------------------
# ElasticConfig validation
# ---------------------------------------------------------------------------


class TestElasticConfig:
    def test_defaults_valid(self):
        ElasticConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"split_factor": 1.0},
            {"merge_factor": 0.0},
            {"merge_factor": 1.0},
            {"split_factor": 1.2, "merge_factor": 1.2},
            {"eval_interval": 0},
            {"cooldown": -1},
            {"min_partitions": 0},
            {"min_partitions": 5, "max_partitions": 4},
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            ElasticConfig(**kwargs)


# ---------------------------------------------------------------------------
# decide_reconfig
# ---------------------------------------------------------------------------


CFG = ElasticConfig(
    split_factor=1.5, merge_factor=0.25,
    eval_interval=10, cooldown=10,
    max_partitions=4, min_partitions=1,
)


class TestDecide:
    def test_hotspot_splits(self):
        decision = decide_reconfig(
            {"p0": 90.0, "p1": 10.0}, {"p0": 4, "p1": 4}, ["p0", "p1"], CFG
        )
        assert decision is not None
        assert (decision.kind, decision.source) == ("split", "p0")

    def test_balanced_load_does_nothing(self):
        assert (
            decide_reconfig(
                {"p0": 50.0, "p1": 50.0}, {"p0": 4, "p1": 4}, ["p0", "p1"], CFG
            )
            is None
        )

    def test_idle_partition_merges_into_next_lightest(self):
        decision = decide_reconfig(
            {"p0": 50.0, "p1": 48.0, "p2": 2.0},
            {"p0": 4, "p1": 4, "p2": 4},
            ["p0", "p1", "p2"],
            CFG,
        )
        assert decision is not None
        assert (decision.kind, decision.source, decision.target) == (
            "merge", "p2", "p1",
        )

    def test_split_beats_merge_when_both_apply(self):
        decision = decide_reconfig(
            {"p0": 97.0, "p1": 2.0, "p2": 1.0},
            {"p0": 8, "p1": 4, "p2": 4},
            ["p0", "p1", "p2"],
            CFG,
        )
        assert decision is not None and decision.kind == "split"

    def test_max_partitions_blocks_split(self):
        cfg = ElasticConfig(max_partitions=2)
        assert (
            decide_reconfig(
                {"p0": 99.0, "p1": 1.0}, {"p0": 8, "p1": 8},
                ["p0", "p1"], cfg,
            )
            is None
            or decide_reconfig(
                {"p0": 99.0, "p1": 1.0}, {"p0": 8, "p1": 8},
                ["p0", "p1"], cfg,
            ).kind
            == "merge"
        )

    def test_min_partitions_blocks_merge(self):
        # Split is vetoed by node count, merge by the partition floor:
        # the hot-but-unsplittable topology stays as it is.
        cfg = ElasticConfig(min_partitions=2)
        assert (
            decide_reconfig(
                {"p0": 99.0, "p1": 0.0}, {"p0": 2, "p1": 8},
                ["p0", "p1"], cfg,
            )
            is None
        )

    def test_min_split_nodes_blocks_split(self):
        decision = decide_reconfig(
            {"p0": 99.0, "p1": 1.0}, {"p0": 1, "p1": 8}, ["p0", "p1"], CFG
        )
        assert decision is None or decision.kind != "split"

    def test_empty_window_does_nothing(self):
        assert decide_reconfig({}, {"p0": 4}, ["p0", "p1"], CFG) is None

    @given(
        weights=st.dictionaries(
            st.sampled_from(["p0", "p1", "p2"]),
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
        ),
        counts=st.dictionaries(
            st.sampled_from(["p0", "p1", "p2"]),
            st.integers(min_value=0, max_value=50),
        ),
    )
    def test_deterministic(self, weights, counts):
        names = ["p0", "p1", "p2"]
        first = decide_reconfig(weights, counts, names, CFG)
        second = decide_reconfig(dict(weights), dict(counts), list(names), CFG)
        assert first == second


# ---------------------------------------------------------------------------
# split_assignment
# ---------------------------------------------------------------------------


class TestSplitAssignment:
    def test_moves_a_proper_nonempty_subset(self):
        location = {f"n{i}": "p0" for i in range(8)}
        location.update({f"m{i}": "p1" for i in range(4)})
        graph = make_graph(location)
        moved = split_assignment(graph, location, "p0", seed=1)
        assert moved
        assert set(moved) < {n for n, p in location.items() if p == "p0"}

    def test_single_node_partition_yields_nothing(self):
        location = {"n0": "p0", "m0": "p1"}
        assert split_assignment(make_graph(location), location, "p0", seed=1) == ()

    def test_same_seed_same_answer(self):
        location = {f"n{i}": "p0" for i in range(10)}
        graph = make_graph(location, {f"n{i}": float(i + 1) for i in range(10)})
        assert split_assignment(graph, location, "p0", seed=7) == split_assignment(
            graph, dict(location), "p0", seed=7
        )


# ---------------------------------------------------------------------------
# apply_reconfig: the directory-map invariant, property-tested
# ---------------------------------------------------------------------------


NODES = [f"n{i}" for i in range(12)]


@st.composite
def plan_sequences(draw):
    """(initial_location, [ReconfigPlan...]) with splits and merges over
    an evolving live-partition set; moved-sets may be stale (nodes whose
    owner already changed) — apply_reconfig must shrug those off."""
    live = ["p0", "p1"]
    location = {
        node: draw(st.sampled_from(live)) for node in NODES
    }
    initial = dict(location)
    plans = []
    epoch = 0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        epoch += 1
        kind = draw(st.sampled_from(["split", "merge"]))
        if kind == "split":
            source = draw(st.sampled_from(live))
            target = f"e{epoch}"
            # Deliberately allow stale nodes (not currently on source).
            moved = tuple(
                sorted(draw(st.sets(st.sampled_from(NODES), max_size=8)))
            )
            plans.append(ReconfigPlan(epoch, "split", source, target, moved))
            live = live + [target]
        else:
            if len(live) < 2:
                continue
            source = draw(st.sampled_from(live))
            target = draw(st.sampled_from([p for p in live if p != source]))
            plans.append(ReconfigPlan(epoch, "merge", source, target))
            live = [p for p in live if p != source]
        location = apply_reconfig(location, plans[-1])
    return initial, plans


class TestApplyReconfig:
    @settings(max_examples=200, deadline=None)
    @given(data=plan_sequences())
    def test_map_stays_total_and_non_overlapping(self, data):
        initial, plans = data
        location = dict(initial)
        live = {"p0", "p1"}
        for plan in plans:
            location = apply_reconfig(location, plan)
            if plan.kind == "split":
                live.add(plan.target)
            else:
                live.discard(plan.source)
            # Total: every node still has exactly one home (dict keys
            # unchanged — nothing dropped, nothing duplicated).
            assert set(location) == set(NODES)
            # Non-overlapping onto live partitions only.
            assert set(location.values()) <= live
            if plan.kind == "merge":
                assert plan.source not in location.values()

    def test_split_moves_only_nodes_still_at_source(self):
        location = {"a": "p0", "b": "p0", "c": "p1"}
        plan = ReconfigPlan(1, "split", "p0", "e1", moved=("a", "c", "zz"))
        out = apply_reconfig(location, plan)
        assert out == {"a": "e1", "b": "p0", "c": "p1"}

    def test_merge_takes_late_arrivals_too(self):
        # A create that landed on the source after the plan was computed
        # still moves: merge is defined over the *current* owners.
        location = {"a": "p0", "late": "p0", "c": "p1"}
        plan = ReconfigPlan(2, "merge", "p0", "p1")
        out = apply_reconfig(location, plan)
        assert out == {"a": "p1", "late": "p1", "c": "p1"}

    def test_pure(self):
        location = {"a": "p0"}
        apply_reconfig(location, ReconfigPlan(1, "merge", "p0", "p1"))
        assert location == {"a": "p0"}
