"""Tests for dynamic repartitioning: plan propagation, on-line variable
relocation, cache invalidation, and state conservation."""

import random

import pytest

from repro.core.client import CallbackWorkload, ScriptedWorkload
from repro.smr import Command

from tests.core.conftest import assert_clean, build_system


def paired_workload(system, n_keys, total, seed=1, clients=4):
    """Clients repeatedly transfer between fixed key pairs (k0,k1),
    (k2,k3), ... — the canonical co-access pattern a good partitioner
    must co-locate."""
    rng = random.Random(seed)
    state = {"count": 0}

    def gen(client):
        if state["count"] >= total:
            return None
        state["count"] += 1
        base = 2 * rng.randrange(n_keys // 2)
        return Command(
            f"{client.name}:{state['count']}",
            "transfer",
            (f"k{base}", f"k{base + 1}", 1),
        )

    return [system.add_client(CallbackWorkload(gen)) for _ in range(clients)]


class TestRepartitioningConvergence:
    def test_plan_is_computed_and_applied(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=400
        )
        paired_workload(system, 40, total=1500)
        system.run(until=120.0)
        assert system.monitor.counters()["plans_applied"] >= 1
        assert system.oracle_replicas()[0].version >= 1

    def test_pairs_colocated_after_repartitioning(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=400
        )
        paired_workload(system, 40, total=1500)
        system.run(until=120.0)
        loc = system.oracle_replicas()[0].location
        colocated = sum(
            1 for i in range(0, 40, 2) if loc[f"k{i}"] == loc[f"k{i + 1}"]
        )
        assert colocated == 20

    def test_state_conserved_across_plans(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=400
        )
        clients = paired_workload(system, 40, total=1500)
        system.run(until=120.0)
        assert sum(c.completed for c in clients) == 1500
        assert len(system.all_store_variables()) == 40
        merged = system.all_store_variables()
        # transfers conserve the total sum (initial sum = 0+1+...+39)
        assert sum(merged.values()) == sum(range(40))
        assert_clean(system)

    def test_multi_partition_rate_drops_after_repartitioning(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=400
        )
        paired_workload(system, 40, total=3000)
        system.run(until=200.0)
        counters = system.monitor.counters()
        completed = counters["commands_completed"]
        multi = counters["multi_partition_commands"]
        # with all pairs colocated, the tail of the run is single-partition
        assert multi < completed * 0.8

    def test_ownership_matches_oracle_map_at_quiescence(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=400
        )
        paired_workload(system, 40, total=1500)
        system.run(until=120.0)
        loc = system.oracle_replicas()[0].location
        for partition in system.partition_names:
            server = system.servers(partition)[0]
            for node in server.owned_nodes:
                assert loc[node] == partition
            assert not server.in_transit

    def test_no_repartition_when_disabled(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=False, threshold=400
        )
        paired_workload(system, 40, total=1000)
        system.run(until=120.0)
        assert system.oracle_replicas()[0].version == 0
        assert "plans_applied" not in system.monitor.counters()


class TestStaleCacheRetry:
    def test_client_with_stale_cache_retries_and_succeeds(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=300
        )
        # Phase 1: drive repartitioning with one set of clients.
        clients = paired_workload(system, 40, total=1200)
        # Phase 2 client: learns locations early, then issues commands late
        # (after plans changed), forcing retries.
        late_cmds = [Command(f"late:{i}", "read", (f"k{i % 40}",)) for i in range(40)]
        late = system.add_client(ScriptedWorkload(late_cmds))
        system.run(until=300.0)
        assert late.completed == 40
        assert sum(c.completed for c in clients) == 1200

    def test_retries_counted(self):
        system = build_system(
            n_keys=40, n_partitions=4, repartition=True, threshold=300
        )
        paired_workload(system, 40, total=2000)
        system.run(until=200.0)
        # repartitioning must have invalidated some cached locations
        assert system.monitor.counter("client", event="retry").value >= 1


class TestManualRepartition:
    def test_explicit_request_repartition(self):
        system = build_system(
            n_keys=16, n_partitions=2, repartition=False
        )
        cmds = [
            Command(f"c:{i}", "transfer", (f"k{2 * (i % 8)}", f"k{2 * (i % 8) + 1}", 1))
            for i in range(64)
        ]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=30.0)
        assert client.completed == 64
        oracle0 = system.oracle_replicas()[0]
        # Manually enable and trigger (as an application-requested plan).
        for rep in system.oracle_replicas():
            rep.repartition_enabled = True
        oracle0.request_repartition()
        system.sim.run(until=60.0)
        assert oracle0.version == 1
        loc = oracle0.location
        colocated = sum(
            1 for i in range(0, 16, 2) if loc[f"k{i}"] == loc[f"k{i + 1}"]
        )
        assert colocated == 8
        assert_clean(system)
        assert len(system.all_store_variables()) == 16
