"""Focused unit tests for oracle internals: target selection, plan label
alignment, hysteresis, and the workload-graph bookkeeping."""

import pytest

from repro.core.client import ScriptedWorkload
from repro.core.oracle import choose_target
from repro.smr import Command

from tests.core.conftest import build_system


def oracle_of(system):
    return system.oracle_replicas()[0]


class TestChooseTarget:
    def test_majority_partition_wins(self):
        locations = (("a", "p1"), ("b", "p1"), ("c", "p0"))
        assert choose_target("most_nodes", locations) == "p1"

    def test_tie_broken_by_smallest_name(self):
        locations = (("a", "p1"), ("b", "p0"))
        assert choose_target("most_nodes", locations) == "p0"

    def test_first_policy(self):
        locations = (("a", "p1"), ("b", "p1"), ("c", "p0"))
        assert choose_target("first", locations) == "p0"

    def test_hash_policy_deterministic(self):
        locations = (("a", "p1"), ("b", "p0"))
        assert choose_target("hash", locations) == choose_target("hash", locations)

    def test_spread_policy_fans_out_ties(self):
        locations = (("a", "p1"), ("b", "p0"))
        targets = {
            choose_target("spread", locations, uid=f"c:{i}") for i in range(32)
        }
        # Tied candidates both get traffic across distinct uids.
        assert targets == {"p0", "p1"}

    def test_spread_policy_respects_majority(self):
        locations = (("a", "p1"), ("b", "p1"), ("c", "p0"))
        for i in range(8):
            assert choose_target("spread", locations, uid=f"c:{i}") == "p1"

    def test_spread_policy_deterministic_across_replicas(self):
        """Every oracle replica is configured with the system's policy,
        and the rule is a pure function of it and the query."""
        from repro.core import SystemConfig
        from repro.core.system import DynaStarSystem
        from repro.sim import ConstantLatency
        from repro.smr import KeyValueApp

        system = DynaStarSystem(
            KeyValueApp({f"k{i}": i for i in range(8)}),
            SystemConfig(
                n_partitions=2,
                seed=3,
                latency=ConstantLatency(0.001),
                target_policy="spread",
            ),
        )
        replicas = system.oracle_replicas()
        assert len(replicas) >= 2
        locations = (("a", "p1"), ("b", "p0"))
        for i in range(16):
            picks = {
                choose_target(r.target_policy, locations, uid=f"c:{i}", attempt=i % 3)
                for r in replicas
            }
            assert len(picks) == 1  # every replica routes identically

    def test_invalid_policy_rejected(self):
        from repro.core import SystemConfig
        from repro.core.system import DynaStarSystem
        from repro.smr import KeyValueApp

        with pytest.raises(ValueError):
            DynaStarSystem(
                KeyValueApp({"x": 0}),
                SystemConfig(n_partitions=1, target_policy="bogus"),
            )


class TestPlanLabelAlignment:
    def test_identical_partition_keeps_labels(self):
        system = build_system(n_keys=8, n_partitions=2)
        oracle = oracle_of(system)
        # raw assignment reproducing the current map with flipped indices
        current = dict(oracle.location)
        index_of = {"p0": 1, "p1": 0}  # deliberately swapped
        raw = {node: index_of[part] for node, part in current.items()}
        aligned = oracle._align_plan_labels(raw)
        assert aligned == current  # zero moves despite the relabeling

    def test_partial_overlap_alignment(self):
        system = build_system(n_keys=8, n_partitions=2)
        oracle = oracle_of(system)
        current = dict(oracle.location)
        nodes = sorted(current)
        # new plan: same as current except one node switches sides
        index_of = {"p0": 0, "p1": 1}
        raw = {node: index_of[current[node]] for node in nodes}
        raw[nodes[0]] = 1 - raw[nodes[0]]
        aligned = oracle._align_plan_labels(raw)
        moves = sum(1 for n in nodes if aligned[n] != current[n])
        assert moves == 1

    def test_all_indices_get_labels(self):
        system = build_system(n_keys=8, n_partitions=4)
        oracle = oracle_of(system)
        raw = {node: i % 4 for i, node in enumerate(sorted(oracle.location))}
        aligned = oracle._align_plan_labels(raw)
        assert set(aligned.values()) <= set(system.partition_names)


class TestHysteresis:
    def test_no_plan_published_when_already_optimal(self):
        """A converged system should not keep publishing no-op plans."""
        system = build_system(
            n_keys=16, n_partitions=2, repartition=True, threshold=200
        )
        cmds = [
            Command(f"c:{i}", "transfer", (f"k{2 * (i % 8)}", f"k{2 * (i % 8) + 1}", 1))
            for i in range(400)
        ]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=120.0)
        assert client.completed == 400
        # converged after at most a few plans despite the tiny threshold
        assert oracle_of(system).version <= 4


class TestWorkloadGraphBookkeeping:
    def test_hints_populate_graph(self):
        system = build_system(n_keys=8, n_partitions=2, repartition=True,
                              threshold=10**9)
        client = system.add_client(
            ScriptedWorkload([Command("c:0", "sum", ("k0", "k1"))])
        )
        system.run(until=10.0)
        oracle = oracle_of(system)
        assert oracle.graph.has_edge("k0", "k1")
        assert oracle.graph.vertex_weight("k0") >= 1

    def test_hints_for_unknown_nodes_ignored(self):
        from repro.core.messages import ExecutionHint
        from repro.multicast.messages import MulticastMessage

        system = build_system(n_keys=4, n_partitions=2)
        oracle = oracle_of(system)
        hint = ExecutionHint("p0", 0, (("ghost", 5.0),), (("ghost", "k0", 1.0),))
        oracle.adeliver(MulticastMessage("h", ("oracle",), hint))
        assert "ghost" not in oracle.graph

    def test_delete_removes_node_from_graph_and_map(self):
        from repro.smr.command import CommandKind

        system = build_system(n_keys=4, n_partitions=2)
        client = system.add_client(
            ScriptedWorkload(
                [Command("c:0", "delete", ("k0",), kind=CommandKind.DELETE)]
            )
        )
        system.run(until=10.0)
        oracle = oracle_of(system)
        assert "k0" not in oracle.location
        assert "k0" not in oracle.graph
