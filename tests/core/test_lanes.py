"""The partition scheduler across lane counts (``execution_lanes``).

Guarantees under test:

1. ``execution_lanes=1`` is the default — same events, messages, stores,
   results for the same seed;
2. with more lanes, an independent command passes a command stalled on
   in-transit borrowed variables, while conflicting commands retain log
   order (histories stay linearizable, replicas agree);
3. a multi-partition command *moves* the variables it declares, so it is
   a writer of all of them: nothing that touches a lent variable —
   declared read-only or exempted from conflicts — runs until it is home;
4. ownership-changing payloads (repartition plans et al.) act as
   barriers, so relocation under lanes stays deterministic and correct.
"""

import pytest

from repro.consensus.paxos import ReplicaConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.core.messages import ExecCommand, GlobalCommand
from repro.experiments.harness import warehouse_aligned_placement
from repro.multicast.messages import MulticastMessage
from repro.sim import Actor, ConstantLatency, LogNormalLatency
from repro.smr import Command, History, KeyValueApp
from repro.smr.command import Reply, ReplyStatus
from repro.workloads.tpcc import TPCCApp, TPCCConfig, TPCCWorkload

from tests.core.conftest import assert_clean, build_system, kv_app


def mixed_scripts(n_clients=3, n_cmds=10, n_keys=8):
    """Writes, reads, transfers and — the one kind that lends a variable
    it declares read-only — ``sum``s over two keys, which random placement
    puts on different partitions about half the time."""
    scripts = []
    for c in range(n_clients):
        cmds = []
        for i in range(n_cmds):
            k = (c * 3 + i) % n_keys
            if i % 4 == 0:
                cmds.append(Command(f"c{c}:{i}", "write", (f"k{k}", c * 100 + i)))
            elif i % 4 == 1:
                cmds.append(Command(f"c{c}:{i}", "read", (f"k{k}",)))
            elif i % 4 == 3:
                cmds.append(
                    Command(f"c{c}:{i}", "sum", (f"k{k}", f"k{(k + 3) % n_keys}"))
                )
            else:
                cmds.append(
                    Command(
                        f"c{c}:{i}",
                        "transfer",
                        (f"k{k}", f"k{(k + 1) % n_keys}", 1),
                    )
                )
        scripts.append(cmds)
    return scripts


def fingerprint(system, scripts, until=60.0):
    clients = [system.add_client(ScriptedWorkload(cmds)) for cmds in scripts]
    system.run(until=until)
    return {
        "results": [dict(c.results) for c in clients],
        "completed": [c.completed for c in clients],
        "events": system.sim.events_processed,
        "messages": system.net.messages_sent,
        "stores": {
            p: tuple(sorted(system.servers(p)[0].store.items()))
            for p in system.partition_names
        },
    }


class TestConfig:
    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError):
            DynaStarSystem(
                kv_app(), SystemConfig(n_partitions=2, execution_lanes=0)
            )


class TestSerialEquivalence:
    def test_lanes1_is_byte_identical_to_default(self):
        """``execution_lanes=1`` is the default: naming it cannot perturb
        a run."""
        scripts = mixed_scripts()
        base = fingerprint(
            build_system(n_keys=8, n_partitions=2, seed=9, service_time=0.001),
            scripts,
        )
        explicit = fingerprint(
            build_system(
                n_keys=8,
                n_partitions=2,
                seed=9,
                service_time=0.001,
                execution_lanes=1,
            ),
            scripts,
        )
        assert base == explicit

    def test_lanes_run_is_deterministic(self):
        scripts = mixed_scripts()

        def run():
            return fingerprint(
                build_system(
                    n_keys=8,
                    n_partitions=2,
                    seed=9,
                    service_time=0.001,
                    execution_lanes=4,
                ),
                scripts,
            )

        assert run() == run()


class TestParallelExecution:
    @pytest.mark.parametrize("execution_lanes", [1, 2, 4])
    def test_lanes_linearizable_with_service_time(self, execution_lanes):
        """The whole-system form of "a conflict-respecting schedule is
        equivalent to the serial one": at every lane count the history is
        linearizable, replicas agree and every command is answered."""
        system = build_system(
            n_keys=8,
            n_partitions=2,
            seed=7,
            service_time=0.002,
            execution_lanes=execution_lanes,
        )
        history = History()
        scripts = mixed_scripts()
        home = system.initial_assignment
        assert any(
            home[cmd.args[0]] != home[cmd.args[1]]
            for cmds in scripts
            for cmd in cmds
            if cmd.op == "sum"
        ), "no two-partition sum in the script"
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=60.0)
        for client, cmds in zip(clients, scripts):
            assert client.completed + client.failed == len(cmds)
        assert_clean(system, history)

    @staticmethod
    def _bypass_counts(execution_lanes):
        """One cross-partition transfer (stalls on the borrowed k2) racing
        a stream of independent writes to k1; returns how many writes
        returned before the transfer did."""
        system = build_system(
            n_keys=3,
            n_partitions=2,
            seed=5,
            placement={"k0": 0, "k1": 0, "k2": 1},
            execution_lanes=execution_lanes,
        )
        history = History()
        transfer = Command("t:0", "transfer", ("k0", "k2", 1))
        writes = [Command(f"w:{i}", "write", ("k1", i)) for i in range(12)]
        a = system.add_client(ScriptedWorkload([transfer]), history=history)
        b = system.add_client(ScriptedWorkload(writes), history=history)
        system.run(until=30.0)
        assert a.completed == 1 and b.completed == len(writes)
        assert_clean(system, history)
        ops = {op.command.uid: op for op in history.operations}
        transfer_returned = ops["t:0"].returned_at
        return sum(
            1
            for w in writes
            if ops[w.uid].returned_at < transfer_returned
        )

    def test_independent_writes_bypass_stalled_transfer(self):
        serial = self._bypass_counts(execution_lanes=1)
        lanes = self._bypass_counts(execution_lanes=4)
        assert lanes > serial, (
            f"expected lanes to let independent writes pass the stalled "
            f"transfer (serial={serial}, lanes={lanes})"
        )

    def test_conflicting_writes_keep_log_order(self):
        """Two clients hammer the same key: every interleaving the lane
        scheduler picks must still be linearizable and replica-identical."""
        system = build_system(
            n_keys=2,
            n_partitions=1,
            seed=3,
            service_time=0.002,
            execution_lanes=4,
        )
        history = History()
        scripts = [
            [Command(f"c{c}:{i}", "write", ("k0", c * 100 + i)) for i in range(8)]
            for c in range(2)
        ]
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=30.0)
        assert all(c.completed == 8 for c in clients)
        assert_clean(system, history)


class ExemptingKeyValueApp(KeyValueApp):
    """Declares ``x`` conflict-free for reads, the way TPC-C's New-Order
    exempts the warehouse row it reads only for its tax rate."""

    def conflict_free_variables_of(self, command):
        if command.op == "read":
            return self.variables_of(command)
        return frozenset()


class ReplyProbe(Actor):
    """Stands in for the client: collects the servers' replies."""

    def __init__(self):
        super().__init__("probe")
        self.replies = []

    def on_message(self, sender, message):
        if isinstance(message, Reply):
            self.replies.append(message)


class TestMovesAreWrites:
    """p0 lends ``x`` as a source of the two-partition ``sum(x, y, z)``
    (target p1, which holds two of the three); a single-partition
    ``read x`` is delivered behind it.  Payloads are a-delivered by hand —
    p1 gets the sum only later — so ``x`` is provably away while the read
    sits in p0's queue."""

    @pytest.mark.parametrize("app_class", [KeyValueApp, ExemptingKeyValueApp])
    def test_read_waits_until_lent_variable_is_home(self, app_class):
        system = DynaStarSystem(
            app_class({"x": 7, "y": 1, "z": 2}),
            SystemConfig(
                n_partitions=2,
                seed=1,
                latency=ConstantLatency(0.001),
                placement={"x": 0, "y": 1, "z": 1},
                repartition_enabled=False,
                execution_lanes=4,
            ),
        )
        probe = system.net.register(ReplyProbe())
        system.run(until=1.0)  # leaders elected, nothing in flight

        total = GlobalCommand(
            Command("sum:0", "sum", ("x", "y", "z")), "probe", 0, "p1",
            (("x", "p0"), ("y", "p1"), ("z", "p1")), seq=1,
        )
        read = ExecCommand(Command("read:0", "read", ("x",)), "probe", 0, seq=2)
        for server in system.servers("p0"):
            server.adeliver(MulticastMessage("m:sum", ("p0", "p1"), total))
            server.adeliver(MulticastMessage("m:read", ("p0",), read))
        system.run(until=2.0)
        for server in system.servers("p0"):
            assert "x" not in server.store  # lent, and p1 has not run yet
            assert list(server.queue) == [total, read]
        assert probe.replies == []

        for server in system.servers("p1"):
            server.adeliver(MulticastMessage("m:sum", ("p0", "p1"), total))
        system.run(until=3.0)
        answers = {(r.uid, r.status, r.result) for r in probe.replies}
        assert answers == {
            ("sum:0", ReplyStatus.OK, 10),
            ("read:0", ReplyStatus.OK, 7),
        }
        for server in system.servers("p0"):
            assert server.store.get("x") == 7 and not server.queue
        assert_clean(system)


class TestMultiPartitionTPCC:
    """The deployment that diverged: TPC-C, two warehouse-aligned
    partitions, 4 ms service time, 4 lanes, 3 closed-loop clients — few
    enough that commands wait in line behind lent-out warehouse rows.
    (system seed, workload seed) pairs are those of ``benchmarks/e2e``
    ``tpcc_lanes`` at ``--seed`` 1 (clients hung, a variable lost) and
    4 (replica stores differ)."""

    @pytest.mark.parametrize(
        "system_seed, workload_seed",
        [(1442518696, 582025290), (1074157177, 1605946630)],
    )
    def test_three_clients_drain_consistent(self, system_seed, workload_seed):
        tpcc = TPCCConfig(
            n_warehouses=2,
            districts_per_warehouse=10,
            customers_per_district=30,
            n_items=200,
            initial_stock=1000,
            remote_order_line_prob=0.01,
            remote_payment_prob=0.15,
            invalid_item_prob=0.01,
        )
        system = DynaStarSystem(
            TPCCApp(tpcc),
            SystemConfig(
                n_partitions=2,
                seed=system_seed,
                placement=warehouse_aligned_placement(tpcc),
                repartition_threshold=4000,
                service_time=0.004,
                execution_lanes=4,
                latency=LogNormalLatency(median=0.00035, sigma=0.35, floor=0.00008),
                replica=ReplicaConfig(
                    heartbeat_period=0.1, leader_timeout=0.5,
                    batch_delay=0.0005, max_batch=64, window=32,
                ),
            ),
        )
        workload = TPCCWorkload(tpcc, seed=workload_seed)
        for _ in range(3):
            system.add_client(workload, stop_at=2.5)
        system.run(until=4.5)
        assert_clean(system)
        assert system.total_completed() > 3000


class TestRelocationBarrier:
    def test_repartition_under_lanes_deterministic_and_consistent(self):
        """PartitionPlan payloads are barriers: relocation in the middle
        of parallel execution keeps runs deterministic and replicas in
        agreement."""

        def run():
            system = build_system(
                n_keys=16,
                n_partitions=3,
                seed=7,
                repartition=True,
                threshold=150,
                service_time=0.001,
                execution_lanes=4,
            )
            cmds = [
                Command(
                    f"c:{i}",
                    "transfer",
                    (f"k{2 * (i % 8)}", f"k{2 * (i % 8) + 1}", 1),
                )
                for i in range(120)
            ]
            client = system.add_client(ScriptedWorkload(cmds))
            system.run(until=90.0)
            assert client.completed + client.failed == 120
            assert_clean(system)
            return {
                "results": dict(client.results),
                "events": system.sim.events_processed,
                "stores": {
                    p: tuple(sorted(system.servers(p)[0].store.items()))
                    for p in system.partition_names
                },
            }

        assert run() == run()
