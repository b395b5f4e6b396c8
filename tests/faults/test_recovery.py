"""Replica recovery: crashed replicas re-sync from acceptors, rejoin
their group, and serve commands that reflect every prior write."""

import pytest

from repro.core.client import ScriptedWorkload
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command, History
from repro.smr.command import ReplyStatus

from tests.core.conftest import assert_clean, ok_results
from tests.faults.conftest import build_chaos_system


class TestReplicaRecovery:
    def test_partition_leader_crash_and_recover_mid_workload(self):
        """Acceptance scenario: a partition-leader replica and an oracle
        replica crash mid-workload and *recover*; the recovered replicas
        rejoin, serve reads reflecting all prior writes, and the history
        is linearizable."""
        system = build_chaos_system(n_keys=8, n_partitions=2, seed=3)
        part = system.initial_assignment["k0"]
        leader = system.servers(part)[0]
        oracle = system.oracle_replicas()[0]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 0)
            .at(0.06, "crash_replica", system.oracle_group, 0)
            .at(2.0, "recover_replica", part, 0)
            .at(2.0, "recover_replica", system.oracle_group, 0)
        )
        ChaosInjector(system, schedule).arm()

        history = History()
        cmds = [Command(f"c:{i}", "write", ("k0", i)) for i in range(30)]
        cmds.append(Command("c:final", "read", ("k0",)))
        client = system.add_client(ScriptedWorkload(cmds), history=history)
        system.run(until=60.0)

        assert client.completed == 31
        assert ok_results(client)["c:final"] == 29
        assert not leader.crashed and not oracle.crashed
        # the recovered replicas rejoined: same store as their peers
        assert dict(leader.store.items()) == dict(
            system.servers(part)[1].store.items()
        )
        assert_clean(system, history)

    def test_recovered_replica_serves_post_recovery_reads(self):
        """Writes land while a replica is down; a read issued *after* the
        recovery horizon still sees them, and the recovered replica holds
        the written state (it re-synced decided instances)."""
        system = build_chaos_system(n_keys=4, n_partitions=1, seed=5)
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", "p0", 1)
            .at(1.0, "recover_replica", "p0", 1)
        )
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"w:{i}", "write", ("k1", 100 + i)) for i in range(10)]
        cmds.append(Command("r:after", "read", ("k1",)))
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=30.0)
        assert client.completed == 11
        assert ok_results(client)["r:after"] == 109
        recovered = system.servers("p0")[1]
        assert not recovered.crashed
        assert dict(recovered.store.items())["k1"] == 109

    def test_whole_group_crash_and_recover_with_client_timeouts(self):
        """Every replica of a partition goes down.  Clients with request
        timeouts keep retrying through the outage and every command
        completes once the group recovers."""
        system = build_chaos_system(
            n_keys=4,
            n_partitions=2,
            seed=3,
            client_timeout=0.25,
            client_timeout_cap=1.0,
        )
        part = system.initial_assignment["k0"]
        schedule = FaultSchedule()
        for i in range(system.config.n_replicas):
            schedule.at(0.0, "crash_replica", part, i)
            schedule.at(1.5, "recover_replica", part, i)
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"c:{i}", "write", ("k0", i)) for i in range(5)]
        cmds.append(Command("c:final", "read", ("k0",)))
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=60.0)
        assert client.completed == 6
        assert client.timeouts > 0, "outage should have triggered timeouts"
        assert ok_results(client)["c:final"] == 4
        assert_clean(system)

    def test_acceptor_crash_and_recover(self):
        """An acceptor crashing and recovering never disturbs the
        workload (quorum of 2/3 stays available throughout)."""
        system = build_chaos_system(n_keys=8, n_partitions=2, seed=3)
        part = system.partition_names[0]
        schedule = (
            FaultSchedule()
            .at(0.0, "crash_acceptor", part, 0)
            .at(1.0, "recover_acceptor", part, 0)
            .at(1.2, "crash_acceptor", part, 1)
        )
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"c:{i}", "read", (f"k{i % 8}",)) for i in range(16)]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=30.0)
        assert client.completed == 16

    def test_oracle_leader_crash_and_recover_with_repartitioning(self):
        """The oracle leader crashes while repartitioning traffic is in
        flight and recovers; plans still converge and no state is lost."""
        system = build_chaos_system(
            n_keys=16,
            n_partitions=2,
            seed=6,
            repartition=True,
            threshold=120,
        )
        schedule = (
            FaultSchedule()
            .at(1.0, "crash_leader", system.oracle_group)
            .at(3.0, "recover_leader", system.oracle_group)
        )
        ChaosInjector(system, schedule).arm()
        cmds = [
            Command(f"c:{i}", "transfer", (f"k{2 * (i % 8)}", f"k{2 * (i % 8) + 1}", 1))
            for i in range(80)
        ]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=180.0)
        assert client.completed == 80
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(16)}
        assert_clean(system)

    def test_repeated_crash_recover_cycles(self):
        """Two crash/recover cycles of the same replica; state converges
        each time."""
        system = build_chaos_system(n_keys=4, n_partitions=1, seed=4)
        schedule = (
            FaultSchedule()
            .at(0.1, "crash_replica", "p0", 0)
            .at(1.0, "recover_replica", "p0", 0)
            .at(2.0, "crash_replica", "p0", 1)
            .at(3.0, "recover_replica", "p0", 1)
        )
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"c:{i}", "write", ("k0", i)) for i in range(40)]
        cmds.append(Command("c:final", "read", ("k0",)))
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=60.0)
        assert client.completed == 41
        assert ok_results(client)["c:final"] == 39
        assert_clean(system)

    def test_crash_plus_background_loss_no_timestamp_livelock(self):
        """Regression: with a replica crashed *and* background message
        loss, a group could a-deliver a multi-partition command, drop its
        pending entry, and never re-answer the peer group's timestamp
        probes — the peer's min-pending gate then wedged both partitions
        and the shipped variable was lost.  The a-delivered timestamp log
        must keep answering the peer's timestamp probes (``TsProbe``)."""
        system = build_chaos_system(
            n_keys=8,
            n_partitions=2,
            seed=5,
            loss_probability=0.05,
            client_timeout=0.2,
            client_timeout_cap=2.0,
        )
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", "p0", 0)
            .at(1.5, "recover_replica", "p0", 0)
        )
        ChaosInjector(system, schedule).arm()
        scripts = []
        for c in range(3):
            cmds = []
            for i in range(10):
                k = (c * 3 + i) % 8
                if i % 3 == 0:
                    cmds.append(Command(f"c{c}:{i}", "write", (f"k{k}", c * 100 + i)))
                elif i % 3 == 1:
                    cmds.append(Command(f"c{c}:{i}", "read", (f"k{k}",)))
                else:
                    cmds.append(
                        Command(
                            f"c{c}:{i}",
                            "transfer",
                            (f"k{k}", f"k{(k + 1) % 8}", 1),
                        )
                    )
            scripts.append(cmds)
        clients = [system.add_client(ScriptedWorkload(cmds)) for cmds in scripts]
        system.run(until=120.0)
        for client in clients:
            assert client.completed == 10
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}, "variable lost"
        assert_clean(system)
