"""Behavioural tests for the S-SMR and DS-SMR baselines."""

import random

import pytest

from repro.baselines import (
    DSSMRServer,
    DSSMRSystem,
    SSMRServer,
    SSMRSystem,
    optimized_placement,
)
from repro.core import SystemConfig
from repro.core.client import CallbackWorkload, ScriptedWorkload
from repro.core.messages import GlobalCommand
from repro.experiments.harness import check_run
from repro.multicast.messages import MulticastMessage
from repro.partitioning import WorkloadGraph
from repro.sim import ConstantLatency
from repro.smr import Command, KeyValueApp


def kv_app(n):
    return KeyValueApp({f"k{i}": i for i in range(n)})


def make_ssmr(n_keys=8, n_partitions=2, seed=3, placement="random"):
    return SSMRSystem(
        kv_app(n_keys),
        SystemConfig(
            n_partitions=n_partitions,
            seed=seed,
            latency=ConstantLatency(0.001),
            placement=placement,
        ),
    )


def make_dssmr(n_keys=8, n_partitions=2, seed=3):
    return DSSMRSystem(
        kv_app(n_keys),
        SystemConfig(
            n_partitions=n_partitions, seed=seed, latency=ConstantLatency(0.001)
        ),
    )


def split_keys(system):
    loc = system.initial_assignment
    keys = sorted(loc)
    ka = keys[0]
    kb = next(k for k in keys if loc[k] != loc[ka])
    return ka, kb


class TestOneConstructionPath:
    @pytest.mark.parametrize(
        "system_class, server_class",
        [(SSMRSystem, SSMRServer), (DSSMRSystem, DSSMRServer)],
    )
    def test_baseline_servers_get_every_setting(self, system_class, server_class):
        """The baselines build their servers through the system's one
        factory: nothing a ``SystemConfig`` sets is dropped on the way."""
        system = system_class(
            kv_app(4),
            SystemConfig(
                n_partitions=2,
                retransmit_period=0,
                admission_bound=12,
                service_time=0.002,
                execution_lanes=2,
            ),
        )
        for partition in system.partition_names:
            for server in system.servers(partition):
                assert type(server) is server_class
                assert not server.reliable.enabled
                assert server.admission.bound == 12
                assert server.admission.headroom == 3
                assert server.service_time == 0.002 and server.lanes == 2
                assert not server.sends_hints


class TestSSMR:
    def test_single_partition_commands_work(self):
        system = make_ssmr()
        client = system.add_client(
            ScriptedWorkload([Command("c:0", "read", ("k2",))])
        )
        system.run(until=10.0)
        assert client.completed == 1

    def test_multi_partition_command_correct_result(self):
        system = make_ssmr()
        ka, kb = split_keys(system)
        client = system.add_client(
            ScriptedWorkload([Command("c:0", "sum", (ka, kb))])
        )
        system.run(until=10.0)
        assert client.results["c:0"][1] == int(ka[1:]) + int(kb[1:])

    def test_variables_never_move(self):
        system = make_ssmr()
        ka, kb = split_keys(system)
        loc = system.initial_assignment
        client = system.add_client(
            ScriptedWorkload(
                [Command(f"c:{i}", "transfer", (ka, kb, 1)) for i in range(10)]
            )
        )
        system.run(until=30.0)
        assert client.completed == 10
        for key in (ka, kb):
            server = system.servers(loc[key])[0]
            assert key in server.store
            assert system.app.graph_node_of(key) in server.owned_nodes

    def test_writes_visible_on_both_partitions_afterwards(self):
        system = make_ssmr()
        ka, kb = split_keys(system)
        client = system.add_client(
            ScriptedWorkload(
                [
                    Command("c:0", "transfer", (ka, kb, 3)),
                    Command("c:1", "read", (ka,)),
                    Command("c:2", "read", (kb,)),
                ]
            )
        )
        system.run(until=15.0)
        assert client.results["c:1"][1] == int(ka[1:]) - 3
        assert client.results["c:2"][1] == int(kb[1:]) + 3

    def test_never_repartitions(self):
        system = make_ssmr()
        ka, kb = split_keys(system)
        system.add_client(
            ScriptedWorkload(
                [Command(f"c:{i}", "transfer", (ka, kb, 1)) for i in range(50)]
            )
        )
        system.run(until=60.0)
        assert system.oracle_replicas()[0].version == 0

    def test_optimized_placement_reduces_multipartition_rate(self):
        # workload graph: pairs (k0,k1), (k2,k3)... heavily co-accessed
        n = 16
        graph = WorkloadGraph()
        for i in range(0, n, 2):
            graph.add_edge(f"k{i}", f"k{i + 1}", 100.0)
        placement = optimized_placement(graph, 4, seed=1)

        def run(place):
            system = SSMRSystem(
                kv_app(n),
                SystemConfig(
                    n_partitions=4,
                    seed=3,
                    latency=ConstantLatency(0.001),
                    placement=place,
                ),
            )
            cmds = [
                Command(f"c:{i}", "transfer", (f"k{2 * (i % 8)}", f"k{2 * (i % 8) + 1}", 1))
                for i in range(80)
            ]
            client = system.add_client(ScriptedWorkload(cmds))
            system.run(until=60.0)
            assert client.completed == 80
            return system.monitor.counters().get("multi_partition_commands", 0)

        assert run(placement) == 0  # perfect partitioning: no cross commands
        assert run("random") > 0


class TestDSSMR:
    def test_multi_partition_command_migrates_permanently(self):
        system = make_dssmr()
        ka, kb = split_keys(system)
        client = system.add_client(
            ScriptedWorkload([Command("c:0", "sum", (ka, kb))])
        )
        system.run(until=10.0)
        assert client.completed == 1
        # both keys now live on the same (target) partition
        owners = []
        for partition in system.partition_names:
            server = system.servers(partition)[0]
            if ka in server.store:
                owners.append((partition, ka))
            if kb in server.store:
                owners.append((partition, kb))
        assert len(owners) == 2
        assert owners[0][0] == owners[1][0], "keys did not end up colocated"

    def test_oracle_map_tracks_migrations(self):
        system = make_dssmr()
        ka, kb = split_keys(system)
        system.add_client(ScriptedWorkload([Command("c:0", "sum", (ka, kb))]))
        system.run(until=10.0)
        loc = system.oracle_replicas()[0].location
        assert loc[ka] == loc[kb]

    def test_subsequent_commands_single_partition(self):
        system = make_dssmr()
        ka, kb = split_keys(system)
        client = system.add_client(
            ScriptedWorkload(
                [
                    Command("c:0", "sum", (ka, kb)),
                    Command("c:1", "sum", (ka, kb)),
                ]
            )
        )
        system.run(until=15.0)
        assert client.completed == 2
        # the second sum found both keys colocated -> one migration only
        assert system.monitor.counters().get("dssmr_migrations", 0) == 1

    def test_thrashing_when_state_not_perfectly_partitionable(self):
        """Spoke keys shared between two hub communities ping-pong under
        DS-SMR's move-to-target policy (the pathology §7 describes)."""
        placement = {
            "k0": 0, "k1": 0,   # hub A (two nodes -> majority stays put)
            "k2": 1, "k3": 1,   # hub B
            "k4": 2, "k5": 2,   # shared spokes
        }
        system = DSSMRSystem(
            kv_app(6),
            SystemConfig(
                n_partitions=3,
                seed=3,
                latency=ConstantLatency(0.001),
                placement=placement,
            ),
        )
        cmds = []
        for i in range(30):
            if i % 2 == 0:
                cmds.append(Command(f"c:{i}", "sum", ("k0", "k1", "k4")))
            else:
                cmds.append(Command(f"c:{i}", "sum", ("k2", "k3", "k4")))
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=60.0)
        assert client.completed == 30
        # k4 migrates on (nearly) every command: A pulls it, then B pulls it.
        assert system.monitor.counters().get("dssmr_migrations", 0) >= 20

    def test_conservation_under_migrations(self):
        system = make_dssmr(n_keys=12, n_partitions=3)
        rng = random.Random(5)
        state = {"n": 0}

        def gen(client):
            if state["n"] >= 200:
                return None
            state["n"] += 1
            a, b = rng.sample(range(12), 2)
            return Command(
                f"{client.name}:{state['n']}", "transfer", (f"k{a}", f"k{b}", 1)
            )

        clients = [system.add_client(CallbackWorkload(gen)) for _ in range(3)]
        system.run(until=120.0)
        assert sum(c.completed for c in clients) == 200
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(12)}
        assert sum(merged.values()) == sum(range(12))

    def test_replica_recovers_mid_gather_from_peer_checkpoint(self):
        """A target replica crashes while the gather is open, comes back
        on its peer's checkpoint — taken mid-gather — and finishes the
        command as a :class:`DSSMRServer`: same store, same ownership as
        the replica that never crashed.  Payloads are a-delivered by hand
        so the gather is provably open at the crash."""
        system = DSSMRSystem(
            KeyValueApp({"x": 7, "y": 1, "z": 2}),
            SystemConfig(
                n_partitions=2,
                seed=1,
                latency=ConstantLatency(0.001),
                placement={"x": 0, "y": 1, "z": 1},
            ),
        )
        system.run(until=1.0)
        assert all(type(s) is DSSMRServer for s in system.servers("p1"))
        move = GlobalCommand(
            Command("sum:0", "sum", ("x", "y", "z")), "nobody", 0, "p1",
            (("x", "p0"), ("y", "p1"), ("z", "p1")), seq=1,
        )
        message = MulticastMessage("m:sum", ("p0", "p1"), move)
        survivor, victim = system.servers("p1")
        for server in (survivor, victim):
            server.adeliver(message)
            assert list(server.queue) == [move]  # gathering
        victim.crash()
        checkpoint = survivor.capture_app_state()

        for server in system.servers("p0"):
            server.adeliver(message)
        system.run(until=2.0)
        assert not survivor.queue and survivor.store.get("x") == 7

        victim.recover()
        victim.install_app_state(checkpoint)
        assert list(victim.queue) == [move]
        system.run(until=4.0)  # p0 retransmits the transfer the crash dropped
        assert not victim.queue
        assert dict(victim.store.items()) == dict(survivor.store.items())
        assert victim.owned_nodes == survivor.owned_nodes == {"x", "y", "z"}
        assert victim.executed_count == survivor.executed_count == 1
        for server in system.servers("p0"):
            assert not server.owned_nodes and not len(server.store)


class TestDSSMRAbortedGather:
    """A DS-SMR source is done with its nodes once it has shipped them,
    so a target that will not execute the attempt has nobody to bounce
    them to: it adopts them (DESIGN.md §5, "DS-SMR: a one-way move has
    no way back").  At the parent of the fix the bounce was dropped by
    the closed source and the variables were gone for good — the
    ``social_dssmr`` gate cell lost ``('user', 25)`` this way."""

    @staticmethod
    def build(**placement):
        system = DSSMRSystem(
            KeyValueApp({key: 7 for key in placement}),
            SystemConfig(
                n_partitions=1 + max(placement.values()),
                seed=1,
                latency=ConstantLatency(0.001),
                placement=placement,
            ),
        )
        system.run(until=1.0)
        return system

    @staticmethod
    def adeliver(system, uid, target, locations, partitions):
        """A-deliver one multi-partition ``sum`` over the keys of
        ``locations`` at ``partitions``, in that order."""
        keys = tuple(key for key, _ in locations)
        payload = GlobalCommand(
            Command(uid, "sum", keys), "nobody", 0, target, locations, seq=int(uid[-1])
        )
        dests = tuple(sorted({partition for _, partition in locations}))
        message = MulticastMessage(f"m:{uid}", dests, payload)
        for partition in partitions:
            for server in system.servers(partition):
                server.adeliver(message)

    @pytest.mark.parametrize("order", [("p0", "p1"), ("p1", "p0")], ids=["shipped_first", "aborted_first"])
    def test_stale_target_adopts_what_the_source_shipped(self, order):
        """The shape of the cell: a move the oracle never heard of (a
        client dispatched it from its cache) took ``z`` from p1 to p0;
        the next command, placed by the stale map, names p1 as the
        target and still lists ``z`` there.  p1 aborts, p0 ships ``x``
        and closes — in either order."""
        system = self.build(x=0, y=1, z=1)
        self.adeliver(system, "c:1", "p0", (("x", "p0"), ("z", "p1")), ("p0", "p1"))
        system.run(until=2.0)
        assert system.servers("p0")[0].owned_nodes == {"x", "z"}

        stale = (("x", "p0"), ("y", "p1"), ("z", "p1"))
        self.adeliver(system, "c:2", "p1", stale, order)
        system.run(until=3.0)
        for server in system.servers("p1"):
            assert server.owned_nodes == {"x", "y"} and server.store.get("x") == 7
            assert server._is_closed(("c:2", 0)) and not server._unbounced
            assert server.executed_count == 0  # answered RETRY, not run
        for server in system.servers("p0"):
            assert server.owned_nodes == {"z"}
        assert check_run(system) == []

    def test_target_waits_for_the_source_that_ships_when_another_fails(self):
        """Three partitions: p2 no longer owns its node and reports
        ``TransferFailed``; the target aborts on that but closes only
        once p0's transfer is in, adopted by both replicas alike."""
        system = self.build(x=0, y=1, w=2)
        self.adeliver(system, "c:1", "p1", (("w", "p2"), ("y", "p1")), ("p1", "p2"))
        system.run(until=2.0)

        stale = (("w", "p2"), ("x", "p0"), ("y", "p1"))
        self.adeliver(system, "c:2", "p1", stale, ("p2", "p1"))
        system.run(until=3.0)
        for server in system.servers("p1"):
            assert list(server.queue) and server._attempts[("c:2", 0)].failed == ("p2",)
        self.adeliver(system, "c:2", "p1", stale, ("p0",))
        system.run(until=4.0)
        for server in system.servers("p1"):
            assert server.owned_nodes == {"w", "x", "y"}
        assert check_run(system) == []
