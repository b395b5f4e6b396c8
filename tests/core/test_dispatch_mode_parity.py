"""The optimized protocol (client cache, §4.3) and the base protocol
(every command through the oracle, Algorithms 1-2) must produce the same
application results — the optimization changes routing, not semantics."""

import random

import pytest

from repro.core import DynaStarSystem, GlobalCommand, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.core.oracle import TARGET_POLICIES
from repro.sim import ConstantLatency
from repro.smr import Command
from repro.smr.command import ReplyStatus

from tests.core.conftest import build_system, kv_app


def random_script(seed, n_keys, count):
    rng = random.Random(seed)
    cmds = []
    for i in range(count):
        kind = rng.choice(["read", "sum", "transfer"])
        if kind == "read":
            cmds.append(Command(f"c:{i}", "read", (f"k{rng.randrange(n_keys)}",)))
        elif kind == "sum":
            a, b = rng.sample(range(n_keys), 2)
            cmds.append(Command(f"c:{i}", "sum", (f"k{a}", f"k{b}")))
        else:
            a, b = rng.sample(range(n_keys), 2)
            cmds.append(Command(f"c:{i}", "transfer", (f"k{a}", f"k{b}", 1)))
    return cmds


def run_mode(oracle_dispatch, seed=5, count=30):
    system = build_system(
        n_keys=10, n_partitions=3, seed=seed, oracle_dispatch=oracle_dispatch
    )
    client = system.add_client(ScriptedWorkload(random_script(seed, 10, count)))
    system.run(until=60.0)
    assert client.completed == count
    return {
        uid: result
        for uid, (status, result) in client.results.items()
        if status == ReplyStatus.OK
    }


class TestProtocolParity:
    @pytest.mark.parametrize("seed", [1, 5, 12])
    def test_same_results_with_and_without_cache(self, seed):
        cached = run_mode(False, seed=seed)
        via_oracle = run_mode(True, seed=seed)
        assert cached == via_oracle

    def test_oracle_traffic_differs(self):
        system_cached = build_system(n_keys=10, n_partitions=2, seed=4)
        c1 = system_cached.add_client(
            ScriptedWorkload(random_script(4, 10, 20))
        )
        system_cached.run(until=60.0)

        system_oracle = build_system(
            n_keys=10, n_partitions=2, seed=4, oracle_dispatch=True
        )
        c2 = system_oracle.add_client(
            ScriptedWorkload(random_script(4, 10, 20))
        )
        system_oracle.run(until=60.0)

        assert c1.completed == c2.completed == 20
        cached_q = system_cached.monitor.counters()["oracle_queries_total"]
        oracle_q = system_oracle.monitor.counters()["oracle_queries_total"]
        assert oracle_q == 20
        assert cached_q < oracle_q


def dispatched_targets(policy, use_cache):
    """``{uid: target}`` of every multi-partition command one client
    dispatched: from its warm cache, or from the oracle's prophecies."""
    system = DynaStarSystem(
        kv_app(8),
        SystemConfig(
            n_partitions=3, seed=3, latency=ConstantLatency(0.001),
            repartition_enabled=False, target_policy=policy,
        ),
    )
    targets = {}
    amcast = system.directory.amcast

    def spy(sender, message):
        if isinstance(message.payload, GlobalCommand):
            targets[message.payload.command.uid] = message.payload.target
        amcast(sender, message)

    system.directory.amcast = spy
    warm_up = [Command(f"w:{i}", "read", (f"k{i}",)) for i in range(8)]
    sums = [
        Command(f"s:{i}:{j}", "sum", (f"k{i}", f"k{j}", f"k{(i + j) % 8}"))
        for i in range(8)
        for j in range(i + 1, 8)
    ]
    client = system.add_client(ScriptedWorkload(warm_up + sums), use_cache=use_cache)
    system.run(until=60.0)
    assert client.completed == len(warm_up) + len(sums) and client.timeouts == 0
    return targets


class TestTargetParity:
    @pytest.mark.parametrize("policy", TARGET_POLICIES)
    def test_cached_client_and_oracle_pick_the_same_target(self, policy):
        """One rule: a client dispatching from its cache names the target
        the oracle's prophecy names for the same command."""
        cached = dispatched_targets(policy, use_cache=True)
        prophesied = dispatched_targets(policy, use_cache=False)
        assert len(set(prophesied.values())) > 1  # the policy had a choice
        assert cached == prophesied
