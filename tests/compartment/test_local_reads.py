"""End-to-end correctness of the compartmentalized read path: local
reads return linearizable values, spread across the learner fleet, and
the whole subsystem is a strict no-op when disabled."""

import random

from repro.compartment import CompartmentConfig
from repro.core.client import ScriptedWorkload
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.faults.conftest import build_chaos_system

N_KEYS = 8
STAGE_COUNTERS = ("proxy{", "reads{", "lease{", "learner_reads{")


def build_compartment_system(**compartment_kwargs):
    compartment_kwargs.setdefault("enabled", True)
    compartment_kwargs.setdefault("n_learners", 3)
    return build_chaos_system(
        n_keys=N_KEYS,
        n_partitions=2,
        seed=3,
        client_timeout=0.5,
        client_timeout_cap=2.0,
        idempotency_keys=True,
        compartment=CompartmentConfig(**compartment_kwargs),
    )


def read_heavy_scripts(n_clients=4, n_commands=40, read_fraction=0.85, seed=7):
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(N_KEYS)]
    scripts = []
    for c in range(n_clients):
        cmds = []
        for i in range(n_commands):
            key = rng.choice(keys)
            if rng.random() < read_fraction:
                cmds.append(Command(f"c{c}:{i}", "read", (key,)))
            else:
                cmds.append(Command(f"c{c}:{i}", "write", (key, c * 1000 + i)))
        scripts.append(cmds)
    return scripts


def run_scripts(system, scripts, until=60.0):
    history = History()
    clients = [
        system.add_client(ScriptedWorkload(cmds), history=history)
        for cmds in scripts
    ]
    system.run(until=until)
    return history, clients


class TestLocalReads:
    def test_local_reads_served_and_linearizable(self):
        system = build_compartment_system()
        scripts = read_heavy_scripts()
        history, clients = run_scripts(system, scripts)

        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds)
            assert client.failed == 0
        local_dispatched = sum(c.local_reads for c in system.clients)
        assert local_dispatched > 0, "no read ever took the local path"
        counters = system.monitor.snapshot()["counters"]
        local_ok = sum(
            v for k, v in counters.items()
            if k.startswith("reads{") and "event=local_ok" in k
        )
        assert local_ok > 0, "local reads dispatched but none served"
        granted = sum(
            v for k, v in counters.items()
            if k.startswith("lease{") and "event=granted" in k
        )
        assert granted >= len(system.partition_names)
        assert_clean(system, history)

    def test_reads_spread_across_learner_fleet(self):
        system = build_compartment_system(n_learners=3)
        # Plenty of reads so the uid hash touches every learner.
        scripts = read_heavy_scripts(n_clients=6, n_commands=50)
        run_scripts(system, scripts)

        assert_clean(system)
        counters = system.monitor.snapshot()["counters"]
        per_learner = {
            k: v for k, v in counters.items() if k.startswith("learner_reads{")
        }
        served = [k for k, v in per_learner.items() if v > 0]
        # 2 partitions x 3 learners: the hash spread must reach most of
        # the fleet, not funnel everything through one learner.
        assert len(served) >= 4, f"reads funneled into {served}"

    def test_learner_mirrors_converge_to_replica_state(self):
        system = build_compartment_system()
        scripts = read_heavy_scripts(read_fraction=0.5)
        run_scripts(system, scripts)

        assert_clean(system)
        for partition in system.partition_names:
            baseline = dict(system.servers(partition)[0].store.items())
            for learner in system.directory.groups[partition].learners:
                assert dict(learner.store.items()) == baseline, (
                    f"{learner.name} diverged from {partition}"
                )

    def test_lease_disabled_routes_all_reads_through_order(self):
        system = build_compartment_system(lease_enabled=False)
        scripts = read_heavy_scripts()
        history, clients = run_scripts(system, scripts)

        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds)
        assert sum(c.local_reads for c in system.clients) == 0
        counters = system.monitor.snapshot()["counters"]
        assert not any("event=local_ok" in k for k in counters)
        # Proxies still batch the ordered traffic in this ablation arm.
        assert any(k.startswith("proxy{") for k in counters)
        assert_clean(system, history)

    def test_proxy_stage_carries_client_traffic(self):
        system = build_compartment_system()
        scripts = read_heavy_scripts()
        run_scripts(system, scripts)

        counters = system.monitor.snapshot()["counters"]
        submits = sum(
            v for k, v in counters.items()
            if k.startswith("proxy{") and "event=submit" in k
        )
        batches = sum(
            v for k, v in counters.items()
            if k.startswith("proxy{") and "event=batch" in k
        )
        assert submits > 0 and batches > 0
        # Batching may only coalesce, never multiply.
        assert batches <= submits

    def test_disabled_config_leaves_zero_footprint(self):
        # The off switch must be total: no stage actors registered and
        # no compartment counter families in the metrics snapshot, so
        # seeded baseline traces stay byte-identical to pre-compartment
        # builds.
        system = build_chaos_system(
            n_keys=N_KEYS, n_partitions=2, seed=3,
            compartment=CompartmentConfig(enabled=False),
        )
        scripts = read_heavy_scripts(n_clients=2, n_commands=20)
        _, clients = run_scripts(system, scripts, until=30.0)

        assert_clean(system)
        assert sum(c.local_reads for c in system.clients) == 0
        for group in system.directory.groups.values():
            assert not group.proxy_names
            assert not group.learner_names
        counters = system.monitor.snapshot()["counters"]
        leaked = [
            k for k in counters if k.startswith(STAGE_COUNTERS)
        ]
        assert not leaked, f"compartment counters leaked while disabled: {leaked}"

    def test_compartment_and_elastic_are_mutually_exclusive(self):
        import pytest

        with pytest.raises(ValueError, match="mutually exclusive"):
            build_chaos_system(
                elastic_enabled=True,
                compartment=CompartmentConfig(enabled=True),
            )
