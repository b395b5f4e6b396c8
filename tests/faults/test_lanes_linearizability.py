"""The existing chaos combs, rerun with parallel execution lanes: loss,
randomized fault schedules, and crash/recovery must not surface any
reordering the conflict footprints failed to rule out."""

import pytest

from repro.core.client import ScriptedWorkload
from repro.faults import ChaosConfig, ChaosInjector, generate_for_system
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.core.test_lanes import mixed_scripts as core_mixed_scripts
from tests.faults.conftest import build_chaos_system


def mixed_scripts():
    return core_mixed_scripts(n_cmds=8)


def build_lanes_chaos_system(**kwargs):
    kwargs.setdefault("n_keys", 8)
    kwargs.setdefault("n_partitions", 2)
    kwargs.setdefault("client_timeout", 0.2)
    kwargs.setdefault("client_timeout_cap", 2.0)
    kwargs.setdefault("execution_lanes", 4)
    kwargs.setdefault("service_time", 0.002)
    return build_chaos_system(**kwargs)


class TestLanesUnderChaos:
    def test_loss_with_lanes_stays_linearizable(self):
        system = build_lanes_chaos_system(seed=11, loss_probability=0.05)
        history = History()
        scripts = mixed_scripts()
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=120.0)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds)
            assert client.failed == 0
        assert_clean(system, history)

    def test_loss_with_lanes_conserves_transfer_sum(self):
        system = build_lanes_chaos_system(
            n_keys=4, seed=8, loss_probability=0.05, idempotency_keys=True
        )
        cmds = [
            Command(f"c:{i}", "transfer", (f"k{i % 4}", f"k{(i + 1) % 4}", 1))
            for i in range(12)
        ]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=120.0)
        assert_clean(system)
        assert client.completed + client.failed == 12
        merged = system.all_store_variables()
        assert sum(merged.values()) == sum(range(4))

    @pytest.mark.parametrize("chaos_seed", [101, 202])
    def test_randomized_chaos_with_lanes(self, chaos_seed):
        """Crashes + recoveries + cuts with 4 lanes: checkpointed
        per-command state (``cmd_states``) and volatile lane clocks must
        reconstruct a consistent replica on recovery."""
        system = build_lanes_chaos_system(
            seed=9, loss_probability=0.02, client_timeout=0.25
        )
        config = ChaosConfig(duration=8.0, start_after=0.5)
        schedule = generate_for_system(system, config, seed=chaos_seed)
        ChaosInjector(system, schedule).arm()
        history = History()
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in mixed_scripts()
        ]
        system.run(until=120.0)
        assert sum(c.completed for c in clients) > 0
        assert_clean(system, history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}

    def test_chaos_with_lanes_replays_identically(self):
        def run():
            system = build_lanes_chaos_system(
                seed=5, loss_probability=0.02, client_timeout=0.25
            )
            config = ChaosConfig(duration=8.0, start_after=0.5)
            schedule = generate_for_system(system, config, seed=77)
            injector = ChaosInjector(system, schedule).arm()
            clients = [
                system.add_client(ScriptedWorkload(cmds))
                for cmds in mixed_scripts()
            ]
            system.run(until=120.0)
            return {
                "applied": list(injector.applied),
                "results": [dict(c.results) for c in clients],
                "events": system.sim.events_processed,
                "net": system.net.stats(),
                "stores": {
                    p: tuple(sorted(system.servers(p)[0].store.items()))
                    for p in system.partition_names
                },
            }

        assert run() == run()
