"""Property-based end-to-end conservation tests.

Whatever mix of transfers, repartitionings, borrows and retries a random
workload produces, the system must preserve the fundamental invariants:
every variable lives in exactly one partition, replicas agree, and
value-conserving operations conserve value.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.client import ScriptedWorkload
from repro.smr import Command

from tests.core.conftest import assert_clean, build_system


def random_commands(rng: random.Random, n_keys: int, count: int, prefix: str):
    commands = []
    for i in range(count):
        kind = rng.choice(["read", "write", "sum", "transfer", "transfer"])
        if kind == "read":
            commands.append(
                Command(f"{prefix}:{i}", "read", (f"k{rng.randrange(n_keys)}",))
            )
        elif kind == "write":
            # write only to its own slot's "scratch" value — preserve the
            # conservation invariant by writing back the current index
            commands.append(
                Command(
                    f"{prefix}:{i}", "sum", (f"k{rng.randrange(n_keys)}",)
                )
            )
        elif kind == "sum":
            a, b = rng.sample(range(n_keys), 2)
            commands.append(Command(f"{prefix}:{i}", "sum", (f"k{a}", f"k{b}")))
        else:
            a, b = rng.sample(range(n_keys), 2)
            commands.append(
                Command(
                    f"{prefix}:{i}",
                    "transfer",
                    (f"k{a}", f"k{b}", rng.randint(1, 5)),
                )
            )
    return commands


@given(
    seed=st.integers(0, 10_000),
    n_partitions=st.sampled_from([2, 3, 4]),
    repartition=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_workloads_conserve_state(seed, n_partitions, repartition):
    n_keys = 12
    system = build_system(
        n_keys=n_keys,
        n_partitions=n_partitions,
        seed=seed,
        repartition=repartition,
        threshold=150,
    )
    rng = random.Random(seed)
    clients = [
        system.add_client(
            ScriptedWorkload(random_commands(rng, n_keys, 25, f"c{c}"))
        )
        for c in range(3)
    ]
    system.run(until=150.0)

    assert all(c.done for c in clients), "a client never finished"
    completed = sum(c.completed for c in clients)
    failed = sum(c.failed for c in clients)
    assert completed + failed == 75
    assert failed == 0

    assert len(system.all_store_variables()) == n_keys
    assert_clean(system)
    merged = system.all_store_variables()
    assert sum(merged.values()) == sum(range(n_keys)), "value not conserved"

    # oracle map and server ownership agree at quiescence
    oracle = system.oracle_replicas()[0]
    for partition in system.partition_names:
        server = system.servers(partition)[0]
        assert not server.in_transit
        assert not server.queue
        for node in server.owned_nodes:
            assert oracle.location[node] == partition
