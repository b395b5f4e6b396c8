"""End-to-end tests for single- and multi-partition command execution."""

import pytest

from repro.smr import Command
from repro.smr.command import CommandKind, ReplyStatus

from tests.core.conftest import (
    assert_clean,
    build_system,
    ok_results,
    run_script,
)


class TestSinglePartition:
    def test_read_returns_initial_value(self):
        system = build_system()
        client = run_script(system, [Command("c:0", "read", ("k3",))])
        assert ok_results(client) == {"c:0": 3}

    def test_write_then_read(self):
        system = build_system()
        client = run_script(
            system,
            [
                Command("c:0", "write", ("k0", 99)),
                Command("c:1", "read", ("k0",)),
            ],
        )
        assert ok_results(client)["c:1"] == 99

    def test_closed_loop_sequences_commands(self):
        system = build_system()
        cmds = [Command(f"c:{i}", "write", ("k0", i)) for i in range(10)]
        cmds.append(Command("c:final", "read", ("k0",)))
        client = run_script(system, cmds)
        assert client.completed == 11
        assert ok_results(client)["c:final"] == 9

    def test_cache_learned_after_first_command(self):
        system = build_system()
        client = run_script(
            system,
            [Command("c:0", "read", ("k0",)), Command("c:1", "read", ("k0",))],
        )
        assert client.completed == 2
        # second command hit the cache; only one oracle query happened
        assert system.monitor.counters()["oracle_queries_total"] == 1

    def test_many_clients_all_complete(self):
        system = build_system(n_keys=16, n_partitions=4)
        clients = []
        for c in range(8):
            cmds = [
                Command(f"c{c}:{i}", "read", (f"k{(c + i) % 16}",))
                for i in range(20)
            ]
            from repro.core.client import ScriptedWorkload

            clients.append(system.add_client(ScriptedWorkload(cmds)))
        system.run(until=60.0)
        assert all(cl.completed == 20 for cl in clients)


class TestMultiPartition:
    def _system_with_known_split(self):
        # placement 'hash' is deterministic; find two keys on different parts
        system = build_system(n_keys=8, n_partitions=2)
        loc = system.initial_assignment
        keys = sorted(loc)
        k_a = keys[0]
        k_b = next(k for k in keys if loc[k] != loc[k_a])
        return system, k_a, k_b

    def test_cross_partition_sum(self):
        system, ka, kb = self._system_with_known_split()
        expected = int(ka[1:]) + int(kb[1:])
        client = run_script(system, [Command("c:0", "sum", (ka, kb))])
        assert ok_results(client)["c:0"] == expected
        assert system.monitor.counters()["multi_partition_commands"] == 1

    def test_cross_partition_transfer_moves_value(self):
        system, ka, kb = self._system_with_known_split()
        client = run_script(
            system,
            [
                Command("c:0", "transfer", (ka, kb, 5)),
                Command("c:1", "read", (ka,)),
                Command("c:2", "read", (kb,)),
            ],
        )
        results = ok_results(client)
        assert results["c:1"] == int(ka[1:]) - 5
        assert results["c:2"] == int(kb[1:]) + 5

    def test_borrowed_variables_return_home(self):
        system, ka, kb = self._system_with_known_split()
        loc = system.initial_assignment
        run_script(system, [Command("c:0", "transfer", (ka, kb, 1))])
        # each key must live in its original partition afterwards
        for key in (ka, kb):
            server = system.servers(loc[key])[0]
            assert key in server.store, f"{key} did not return to {loc[key]}"
        assert len(system.all_store_variables()) == 8
        assert_clean(system)

    def test_interleaved_multi_partition_commands_from_two_clients(self):
        system, ka, kb = self._system_with_known_split()
        from repro.core.client import ScriptedWorkload

        c1 = system.add_client(
            ScriptedWorkload(
                [Command(f"a:{i}", "transfer", (ka, kb, 1)) for i in range(10)]
            )
        )
        c2 = system.add_client(
            ScriptedWorkload(
                [Command(f"b:{i}", "transfer", (kb, ka, 1)) for i in range(10)]
            )
        )
        system.run(until=60.0)
        assert c1.completed == 10 and c2.completed == 10
        # net effect zero
        merged = system.all_store_variables()
        assert merged[ka] == int(ka[1:])
        assert merged[kb] == int(kb[1:])
        assert_clean(system)

    def test_three_way_command(self):
        system = build_system(n_keys=12, n_partitions=3)
        loc = system.initial_assignment
        # find three keys on three distinct partitions
        by_part = {}
        for key, part in sorted(loc.items()):
            by_part.setdefault(part, key)
        if len(by_part) < 3:
            pytest.skip("placement did not spread over 3 partitions")
        keys = tuple(sorted(by_part.values()))
        expected = sum(int(k[1:]) for k in keys)
        client = run_script(system, [Command("c:0", "sum", keys)])
        assert ok_results(client)["c:0"] == expected
        assert_clean(system)
        assert len(system.all_store_variables()) == 12


class TestNokPaths:
    def test_access_to_unknown_variable_noks(self):
        system = build_system()
        client = run_script(system, [Command("c:0", "read", ("nope",))])
        assert client.failed == 1
        assert client.results["c:0"][0] == ReplyStatus.NOK

    def test_create_new_variable(self):
        system = build_system()
        client = run_script(
            system,
            [
                Command("c:0", "create", ("fresh",), kind=CommandKind.CREATE),
                Command("c:1", "read", ("fresh",)),
            ],
        )
        assert client.completed == 2
        assert ok_results(client)["c:1"] == 0  # KeyValueApp initial value

    def test_create_duplicate_noks(self):
        system = build_system()
        client = run_script(
            system,
            [Command("c:0", "create", ("k0",), kind=CommandKind.CREATE)],
        )
        assert client.failed == 1

    def test_delete_then_access_noks(self):
        system = build_system()
        client = run_script(
            system,
            [
                Command("c:0", "delete", ("k0",), kind=CommandKind.DELETE),
                Command("c:1", "read", ("k0",)),
            ],
        )
        assert client.completed == 1
        assert client.results["c:1"][0] == ReplyStatus.NOK

    def test_delete_unknown_noks(self):
        system = build_system()
        client = run_script(
            system,
            [Command("c:0", "delete", ("ghost",), kind=CommandKind.DELETE)],
        )
        assert client.failed == 1


class TestOracleDispatchMode:
    """The base protocol (Algorithm 1/2): every command goes through the
    oracle, which forwards it to the partitions."""

    def test_single_partition_via_oracle(self):
        system = build_system(oracle_dispatch=True)
        client = run_script(system, [Command("c:0", "read", ("k1",))])
        assert ok_results(client)["c:0"] == 1

    def test_multi_partition_via_oracle(self):
        system = build_system(oracle_dispatch=True)
        loc = system.initial_assignment
        keys = sorted(loc)
        ka = keys[0]
        kb = next(k for k in keys if loc[k] != loc[ka])
        client = run_script(system, [Command("c:0", "sum", (ka, kb))])
        assert ok_results(client)["c:0"] == int(ka[1:]) + int(kb[1:])

    def test_every_command_queries_oracle(self):
        system = build_system(oracle_dispatch=True)
        run_script(
            system,
            [Command(f"c:{i}", "read", ("k0",)) for i in range(5)],
        )
        assert system.monitor.counters()["oracle_queries_total"] == 5
