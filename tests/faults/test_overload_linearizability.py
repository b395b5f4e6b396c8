"""Safety under overload: acked commands stay linearizable and execute
exactly once while the system sheds load, trips breakers, and rides an
``overload_burst`` that overlaps crash and loss faults."""

from repro.core.client import ScriptedWorkload
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.faults.conftest import build_chaos_system
from tests.faults.test_chaos_linearizability import mixed_scripts


def saturated_system(**extra):
    """A deployment whose admission gate is guaranteed to push back:
    bound 1 with no headroom, slow service, several concurrent clients."""
    return build_chaos_system(
        n_keys=8,
        n_partitions=2,
        seed=13,
        service_time=0.02,
        client_timeout=0.3,
        client_timeout_cap=2.0,
        admission_bound=1,
        admission_headroom=0,
        admission_retry_after=0.01,
        **extra,
    )


class TestSheddingSafety:
    def test_linearizable_with_admission_shedding(self):
        # Unlimited retries (no budget): every command eventually lands,
        # and the acked history must still be linearizable even though
        # many attempts bounced off the admission gate first.
        system = saturated_system()
        history = History()
        scripts = mixed_scripts(n_clients=3, n_cmds=8)
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=120.0)

        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds)
            assert client.failed == 0
        # The gate actually refused traffic during the run.
        assert sum(c.busy_rejections for c in clients) > 0
        assert_clean(system, history)

    def test_budget_limited_clients_conserve_transfers(self):
        # With a tight retry budget some commands give up — but a shed
        # command was refused *before* ordering, so it must never have
        # half-executed: transfer sums are conserved and replicas agree
        # no matter how many clients gave up.
        system = saturated_system(
            client_retry_budget=2.0,
            client_retry_budget_ratio=0.1,
        )
        n_keys = 8
        clients = []
        for c in range(3):
            cmds = [
                Command(
                    f"t{c}:{i}", "transfer",
                    (f"k{(c + i) % n_keys}", f"k{(c + i + 1) % n_keys}", 1),
                )
                for i in range(8)
            ]
            clients.append(system.add_client(ScriptedWorkload(cmds)))
        system.run(until=120.0)

        for client in clients:
            assert client.completed + client.failed == 8
        merged = system.all_store_variables()
        assert sum(merged.values()) == sum(range(n_keys))
        assert_clean(system)


class TestOverloadBurstWithChaos:
    def test_burst_overlapping_crash_and_loss_stays_linearizable(self):
        # A flash crowd (10x arrival rate) overlaps a leader crash and a
        # loss burst.  Clients keep generous retry allowances, so every
        # acked command completes and the history is checkable.
        system = build_chaos_system(
            n_keys=8,
            n_partitions=2,
            seed=17,
            service_time=0.005,
            client_timeout=0.3,
            client_timeout_cap=2.0,
            admission_bound=4,
            admission_retry_after=0.01,
            client_breaker_threshold=8,
            client_breaker_cooldown=0.5,
            client_think_time=0.05,
        )
        schedule = (
            FaultSchedule()
            .at(1.0, "overload_burst", 4.0, 10.0)
            .at(2.0, "crash_leader", "p0")
            .at(2.5, "loss_burst", 1.0, 0.1)
            .at(4.0, "recover_leader", "p0")
        )
        injector = ChaosInjector(system, schedule).arm()
        history = History()
        scripts = mixed_scripts(n_clients=3, n_cmds=8)
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=180.0)

        assert len(injector.applied) == 4
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
            assert client.failed == 0
            for command in cmds:
                assert command.uid in client.results
        # Exactly once: a duplicated write or transfer would surface as
        # an unexplainable read in the acked history or as replica skew.
        assert_clean(system, history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}

    def test_burst_restores_arrival_rate_after_window(self):
        system = build_chaos_system(
            n_keys=4, n_partitions=2, seed=3, client_think_time=0.1
        )
        schedule = (
            FaultSchedule()
            .at(0.5, "overload_burst", 1.0, 8.0)
            .at(0.8, "overload_burst", 1.0, 2.0)  # overlapping bursts
        )
        ChaosInjector(system, schedule).arm()
        cmds = [Command(f"r:{i}", "read", ("k0",)) for i in range(40)]
        client = system.add_client(ScriptedWorkload(cmds))
        system.start()
        system.run(until=0.7)
        assert client.load_factor == 8.0
        system.run(until=1.0)
        assert client.load_factor == 16.0  # windows compose
        system.run(until=1.6)
        assert client.load_factor == 2.0  # first window unwound
        system.run(until=60.0)
        assert client.load_factor == 1.0  # both restored exactly
        assert_clean(system)
