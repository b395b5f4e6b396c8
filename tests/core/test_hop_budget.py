"""Hop budgets: with one client on a constant one-way latency ``L`` and no
service time, a command completes in a whole number of ``L`` — its
protocol round trips and nothing else.  No ``batch_delay`` term: an
uncontended consensus round starts in the tick its value arrives.

    single partition   4 L   client -> replicas, Accept, Accepted, reply
    two partitions     8 L   + timestamp exchange, its consensus round (2 L)
                             and the variable transfer to the target
    oracle miss       +4 L   client -> oracle, its consensus round, prophecy
    proxied write      5 L   one more hop through the proxy leader
"""

import pytest

from repro.compartment import CompartmentConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.sim import ConstantLatency
from repro.smr import Command, History, KeyValueApp

L = 0.001


def rig(**config):
    """Two partitions, four keys alternating between them, constant
    one-way latency ``L``, no service time (also the message-budget rig)."""
    return DynaStarSystem(
        KeyValueApp({f"k{i}": i for i in range(4)}),
        SystemConfig(
            n_partitions=2,
            seed=5,
            latency=ConstantLatency(L),
            service_time=0.0,
            placement={f"k{i}": i % 2 for i in range(4)},
            repartition_enabled=False,
            **config,
        ),
    )


def latencies_in_hops(commands, **config):
    system = rig(**config)
    history = History()
    client = system.add_client(ScriptedWorkload(commands), history=history)
    system.run(until=2.0)
    assert client.done and client.completed == len(commands)
    return [(op.returned_at - op.invoked_at) / L for op in history.operations]


def test_single_and_multi_partition_commands_cost_round_trips_only():
    hops = latencies_in_hops([
        Command("c:0", "write", ("k0", 1)),      # k0 unknown to the client
        Command("c:1", "write", ("k0", 2)),      # cached: one consensus round
        Command("c:2", "sum", ("k0", "k1")),     # k1 unknown, two partitions
        Command("c:3", "sum", ("k0", "k1")),     # cached: two rounds
    ])
    assert hops == [pytest.approx(n) for n in (8, 4, 12, 8)]


def test_proxied_write_adds_one_hop():
    hops = latencies_in_hops(
        [Command(f"c:{i}", "write", ("k0", i)) for i in range(3)],
        compartment=CompartmentConfig(enabled=True),
    )
    assert hops == [pytest.approx(n) for n in (9, 5, 5)]
