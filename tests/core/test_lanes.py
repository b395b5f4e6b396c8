"""The partition scheduler across lane counts (``execution_lanes``).

A lane is a CPU: an execution holds one for ``service_time`` and nothing
else does.  Guarantees under test, each at K = 1, 2 and 4 lanes:

1. ``execution_lanes=1`` is the default — same events, messages, stores,
   results for the same seed;
2. an independent command passes a command that waits on the network
   (a transfer held back on the link), while conflicting commands retain
   log order (histories stay linearizable, replicas agree);
3. a multi-partition command *moves* the variables it declares, so it is
   a writer of all of them: nothing that touches a lent variable —
   declared read-only or exempted from conflicts — runs until it is home;
4. ownership-changing payloads (plans, creates, deletes) are barriers:
   nothing passes them, so relocation under lanes stays deterministic
   and correct;
5. K lanes are K CPUs: at one lane no replica starts two executions
   closer than ``service_time``;
6. whatever passed whatever, final stores and per-command results are
   those of a strict-serial execution of each partition's log.
"""

from contextlib import contextmanager

import pytest

from repro.consensus.paxos import ReplicaConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.core.messages import (
    CreateVar,
    DeleteVar,
    ExecCommand,
    GlobalCommand,
    PartitionPlan,
    ReliableMsg,
    VarTransfer,
)
from repro.experiments.harness import warehouse_aligned_placement
from repro.multicast.messages import MulticastMessage
from repro.sim import Actor, ConstantLatency, LogNormalLatency
from repro.smr import Command, History, KeyValueApp
from repro.smr.command import CommandKind, Reply, ReplyStatus
from repro.smr.statemachine import VariableStore
from repro.workloads.tpcc import TPCCApp, TPCCConfig, TPCCWorkload

from tests.core.conftest import assert_clean, build_system, kv_app

LANE_COUNTS = [1, 2, 4]


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


@contextmanager
def held_back(system, kind):
    """Keep every reliable message carrying a ``kind`` off the network
    while the block runs (retransmissions too) and hand them to it, in
    order, on exit; yields the list of what is being held."""
    deliver = system.net.send
    held = []

    def send(src, dst, message, size=1):
        if isinstance(message, ReliableMsg) and isinstance(message.payload, kind):
            held.append((src, dst, message, size))
        else:
            deliver(src, dst, message, size)

    system.net.send = send
    try:
        yield held
    finally:
        system.net.send = deliver
        for args in held:
            deliver(*args)


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

    @pytest.mark.parametrize("execution_lanes", LANE_COUNTS)
    def test_independent_writes_complete_while_a_transfer_is_held_back(
        self, execution_lanes
    ):
        """One cross-partition transfer whose ``VarTransfer`` is kept off
        the link, and a stream of writes to ``k1``, which it does not
        name: p0 has the transfer unfinished at the head of its queue —
        gathering as the target, or with ``k0`` lent as the source — and
        holds no CPU for it, so every write completes meanwhile."""
        system = build_system(
            n_keys=3,
            n_partitions=2,
            seed=5,
            placement={"k0": 0, "k1": 0, "k2": 1},
            execution_lanes=execution_lanes,
            service_time=0.001,
        )
        history = History()
        transfer = Command("t:0", "transfer", ("k0", "k2", 1))
        writes = [Command(f"w:{i}", "write", ("k1", i)) for i in range(12)]
        a = system.add_client(ScriptedWorkload([transfer]), history=history)
        b = system.add_client(ScriptedWorkload(writes), history=history)
        with held_back(system, VarTransfer) as held:
            system.run(until=10.0)
            assert held, "no transfer was sent"
            assert a.completed == 0 and b.completed == len(writes)
            for server in system.servers("p0"):
                assert [payload.command.uid for payload in server.queue] == ["t:0"]
        system.run(until=20.0)
        assert a.completed == 1
        assert_clean(system, history)

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


def probed_system(app_class, execution_lanes):
    """``x`` on p0, ``y`` and ``z`` on p1, leaders elected and nothing in
    flight; the probe stands in for the client of hand-delivered
    payloads."""
    system = DynaStarSystem(
        app_class({"x": 7, "y": 1, "z": 2}),
        SystemConfig(
            n_partitions=2,
            seed=1,
            latency=ConstantLatency(0.001),
            placement={"x": 0, "y": 1, "z": 1},
            repartition_enabled=False,
            execution_lanes=execution_lanes,
        ),
    )
    probe = system.net.register(ReplyProbe())
    system.run(until=1.0)
    return system, probe


class TestMovesAreWrites:
    """p0 lends ``x`` as a source of the two-partition ``sum(x, y, z)``
    (target p1, which holds two of the three); a single-partition
    ``read x`` is delivered behind it.  Payloads are a-delivered by hand —
    p1 gets the sum only later — so ``x`` is provably away while the read
    sits in p0's queue."""

    @pytest.mark.parametrize(
        "app_class, execution_lanes",
        [
            # four lanes, where the test began, keeps its bare id
            pytest.param(app, k, id=app.__name__ if k == 4 else f"{app.__name__}-{k}")
            for app in (KeyValueApp, ExemptingKeyValueApp)
            for k in LANE_COUNTS
        ],
    )
    def test_read_waits_until_lent_variable_is_home(self, app_class, execution_lanes):
        system, probe = probed_system(app_class, execution_lanes)

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


class TestNothingPassesABarrier:
    """p1 holds, in this order, the two-partition ``sum(x, y)`` (target
    p1; p0 gets it only later, so it cannot finish), an ownership-changing
    payload about ``z``, and a ``read z`` — which ``sum`` does not name,
    so it would pass the ``sum``.  It must not pass the barrier: in log
    order it sees the ownership the barrier leaves behind."""

    BARRIERS = {
        # z leaves p1: the read behind it is stale
        "plan": (
            PartitionPlan(1, (("x", "p0"), ("y", "p1"), ("z", "p0"))),
            ReplyStatus.RETRY,
        ),
        "delete": (
            DeleteVar(
                Command("del:0", "delete", ("z",), CommandKind.DELETE),
                "z", "z", "p1", "probe", 0, seq=2,
            ),
            ReplyStatus.RETRY,
        ),
        # z is re-created: the read sees the initial value, not 2
        "create": (
            CreateVar(
                Command("new:0", "create", ("z",), CommandKind.CREATE),
                "z", "z", "p1", "probe", 0, seq=2,
            ),
            ReplyStatus.OK,
        ),
    }

    @pytest.mark.parametrize("execution_lanes", LANE_COUNTS)
    @pytest.mark.parametrize("kind", sorted(BARRIERS))
    def test_read_behind_the_barrier_waits(self, kind, execution_lanes):
        system, probe = probed_system(KeyValueApp, execution_lanes)
        barrier, read_status = self.BARRIERS[kind]
        total = GlobalCommand(
            Command("sum:0", "sum", ("x", "y")), "probe", 0, "p1",
            (("x", "p0"), ("y", "p1")), seq=1,
        )
        read = ExecCommand(Command("read:0", "read", ("z",)), "probe", 0, seq=3)
        for server in system.servers("p1"):
            server.adeliver(MulticastMessage("m:sum", ("p0", "p1"), total))
            server.adeliver(MulticastMessage("m:bar", ("p1",), barrier))
            server.adeliver(MulticastMessage("m:read", ("p1",), read))
        system.run(until=2.0)
        for server in system.servers("p1"):
            assert list(server.queue) == [total, barrier, read]
            assert server.store.get("z") == 2
        assert probe.replies == []

        for server in system.servers("p0"):
            server.adeliver(MulticastMessage("m:sum", ("p0", "p1"), total))
            if kind == "plan":
                server.adeliver(MulticastMessage("m:bar", ("p0",), barrier))
        system.run(until=3.0)
        replies = {r.uid: r for r in probe.replies}
        assert replies["sum:0"].result == 8
        assert replies["read:0"].status == read_status
        if kind == "create":
            assert replies["read:0"].result == 0
        for partition in system.partition_names:
            for server in system.servers(partition):
                assert not server.queue and not server.in_transit


class TestALaneIsACPU:
    def test_one_lane_spaces_executions_by_the_service_time(self):
        """Commands pass each other at one lane, executions do not
        overlap: on every replica two consecutive ones are at least
        ``service_time`` apart."""
        service_time = 0.002
        system = build_system(
            n_keys=8, n_partitions=2, seed=7, service_time=service_time
        )
        executions = {}
        for partition in system.partition_names:
            for server in system.servers(partition):
                record_executions(server, executions.setdefault(server.name, []))
        clients = [
            system.add_client(ScriptedWorkload(cmds))
            for cmds in mixed_scripts(n_clients=4, n_cmds=24)
        ]
        system.run(until=60.0)
        assert all(client.done for client in clients)
        assert any(passed for log in executions.values() for _, _, passed in log)
        for log in executions.values():
            times = [time for time, _, _ in log]
            assert len(times) > 20
            assert min(b - a for a, b in zip(times, times[1:])) >= service_time - 1e-12


def record_executions(server, into):
    """Append ``(virtual time, command uid, passed)`` to ``into`` for
    every execution of ``server`` (single-partition, or as a target);
    ``passed`` says that an earlier command was still queued."""
    execute = server._tracked_execute

    def tracked(command):
        passed = server.queue[0].command is not command
        into.append((server.now, command.uid, passed))
        return execute(command)

    server._tracked_execute = tracked


class TestSerialEquivalenceOfTheSystem:
    """What ``tests/smr/test_conflicts.py`` checks on the model, checked
    on the system: record each partition's log (its a-deliveries), then
    re-execute the logs strictly serially — a multi-partition command
    when it heads the log of every partition it involves — on plain
    stores.  Final stores and per-command results must be the system's.
    Static placement and a reliable network: no retry, plan or repeat,
    which the model does not know."""

    PLACEMENT = {f"k{i}": i % 2 for i in range(8)}

    @staticmethod
    def serial_reexecution(app, placement, logs):
        home = {key: f"p{index}" for key, index in placement.items()}
        stores = {partition: VariableStore() for partition in logs}
        for var, value in app.initial_variables().items():
            stores[home[var]].put(var, value)
        results = {}
        heads = {partition: 0 for partition in logs}

        def head(partition):
            log = logs[partition]
            return log[heads[partition]] if heads[partition] < len(log) else None

        while any(head(partition) is not None for partition in logs):
            for partition in logs:
                payload = head(partition)
                if payload is None:
                    continue
                involved = (
                    payload.involved()
                    if isinstance(payload, GlobalCommand)
                    else (partition,)
                )
                if any(head(other) is not payload for other in involved):
                    continue  # not yet at the head everywhere
                gathered = VariableStore()
                for other in involved:
                    for var, value in stores[other].items():
                        gathered.put(var, value)
                results[payload.command.uid] = app.execute(payload.command, gathered)
                for var, value in gathered.items():
                    stores[home[var]].put(var, value)
                for other in involved:
                    heads[other] += 1
                break
            else:
                raise AssertionError("the partitions' logs order two commands differently")
        return stores, results

    @pytest.mark.parametrize("execution_lanes", LANE_COUNTS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_stores_and_results_equal_a_serial_reexecution(self, seed, execution_lanes):
        app = kv_app(8)
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=2,
                seed=seed,
                latency=LogNormalLatency(median=0.00035, sigma=0.35, floor=0.00008),
                placement=self.PLACEMENT,
                repartition_enabled=False,
                service_time=0.002,
                execution_lanes=execution_lanes,
            ),
        )
        logs, executed = {}, {}
        for partition in system.partition_names:
            server = system.servers(partition)[0]
            log = logs[partition] = []
            server.adeliver = lambda msg, log=log, deliver=server.adeliver: (
                log.append(msg.payload), deliver(msg)
            )
            record_executions(server, executed.setdefault(partition, []))
        clients = [
            system.add_client(ScriptedWorkload(cmds))
            for cmds in mixed_scripts(n_clients=4, n_cmds=24)
        ]
        system.run(until=60.0)
        assert_clean(system)
        assert all(client.failed == 0 for client in clients)

        stores, results = self.serial_reexecution(app, self.PLACEMENT, logs)
        for partition in system.partition_names:
            assert dict(system.servers(partition)[0].store.items()) == dict(
                stores[partition].items()
            )
        for client in clients:
            assert {uid: result for uid, (_, result) in client.results.items()} == {
                uid: results[uid] for uid in client.results
            }
        # Not vacuous: some command ran ahead of one delivered before it.
        assert any(passed for log in executed.values() for _, _, passed in log)


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
