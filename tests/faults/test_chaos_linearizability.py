"""Linearizability, conservation, and progress under chaos: lossy
networks, randomized fault schedules, and deterministic replay."""

import os

import pytest

from repro.core.client import ScriptedWorkload
from repro.core.messages import ReplyQuery
from repro.faults import ChaosConfig, ChaosInjector, FaultSchedule, generate_for_system
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.faults.conftest import build_chaos_system


def mixed_scripts(n_clients=3, n_cmds=8, n_keys=8):
    """Deterministic per-client scripts mixing reads, writes, and
    cross-key transfers."""
    scripts = []
    for c in range(n_clients):
        cmds = []
        for i in range(n_cmds):
            k = (c * 3 + i) % n_keys
            if i % 3 == 0:
                cmds.append(Command(f"c{c}:{i}", "write", (f"k{k}", c * 100 + i)))
            elif i % 3 == 1:
                cmds.append(Command(f"c{c}:{i}", "read", (f"k{k}",)))
            else:
                cmds.append(
                    Command(f"c{c}:{i}", "transfer", (f"k{k}", f"k{(k + 1) % n_keys}", 1))
                )
        scripts.append(cmds)
    return scripts


class TestLossyNetwork:
    def test_five_percent_loss_completes_every_command(self):
        """Acceptance scenario: a 5% message-loss run with client
        timeouts completes every scripted command — zero stuck clients —
        and the history is linearizable."""
        system = build_chaos_system(
            n_keys=8,
            n_partitions=2,
            seed=11,
            loss_probability=0.05,
            client_timeout=0.2,
            client_timeout_cap=2.0,
        )
        history = History()
        scripts = mixed_scripts()
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=120.0)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost commands"
            assert client.failed == 0
            for command in cmds:
                assert command.uid in client.results
        assert system.net.drops_by_reason.get("loss", 0) > 0
        assert_clean(system, history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}

    def test_loss_with_multi_partition_transfers_conserves_sum(self):
        """Transfers under loss: retransmission + exactly-once caching
        must neither lose nor double-apply a transfer."""
        system = build_chaos_system(
            n_keys=4,
            n_partitions=2,
            seed=8,
            loss_probability=0.05,
            client_timeout=0.2,
            client_timeout_cap=2.0,
        )
        cmds = [Command(f"c:{i}", "transfer", (f"k{i % 4}", f"k{(i + 1) % 4}", 1)) for i in range(12)]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=120.0)
        assert_clean(system)
        assert client.completed + client.failed == 12
        merged = system.all_store_variables()
        # transfers move value around but conserve the total
        assert sum(merged.values()) == sum(range(4))


def chaos_fingerprint(seed, chaos_seed):
    """Run three scripted clients under a generated chaos schedule.
    Returns the run's fingerprint and the system, whose clients share one
    ``History``; ``queries_answered`` counts the ``ReplyQuery`` a replica
    answered from its client table."""
    system = build_chaos_system(
        n_keys=8,
        n_partitions=2,
        seed=seed,
        loss_probability=0.02,
        client_timeout=0.25,
        client_timeout_cap=2.0,
        # Spreads each client's eight commands over the faults; back to
        # back, all of them finish in 60 ms, before the first fault.
        client_think_time=1.0,
    )
    config = ChaosConfig(duration=8.0, start_after=0.5)
    schedule = generate_for_system(system, config, seed=chaos_seed)
    injector = ChaosInjector(system, schedule).arm()
    history = History()
    clients = [
        system.add_client(ScriptedWorkload(cmds), history=history)
        for cmds in mixed_scripts()
    ]
    answered = []
    for partition in system.partition_names:
        for server in system.servers(partition):
            server.on_app_message = count_answers(system, server.on_app_message, answered)
    system.run(until=120.0)
    return {
        "queries_answered": len(answered),
        "applied": list(injector.applied),
        "results": [dict(c.results) for c in clients],
        "completed": [c.completed for c in clients],
        "timeouts": [c.timeouts for c in clients],
        "events": system.sim.events_processed,
        "net": system.net.stats(),
        "stores": {
            p: tuple(sorted(system.servers(p)[0].store.items()))
            for p in system.partition_names
        },
    }, system


def count_answers(system, handle, answered):
    """``handle`` (a server's ``on_app_message``), noting in ``answered``
    every ``ReplyQuery`` whose handling sent a message."""

    def counting(sender, message):
        sent = system.net.messages_sent
        handle(sender, message)
        if isinstance(message, ReplyQuery) and system.net.messages_sent > sent:
            answered.append(message.uid)

    return counting


class TestChaosReplay:
    def test_same_seed_identical_chaos_run(self):
        """Acceptance scenario: the chaos injector replays identically
        for a fixed seed — fault log, message counts, results, stores."""
        a, _ = chaos_fingerprint(seed=5, chaos_seed=77)
        b, _ = chaos_fingerprint(seed=5, chaos_seed=77)
        assert a == b

    def test_different_chaos_seed_different_faults(self):
        a, _ = chaos_fingerprint(seed=5, chaos_seed=77)
        b, _ = chaos_fingerprint(seed=5, chaos_seed=78)
        assert a["applied"] != b["applied"]


class TestRandomizedChaos:
    @pytest.mark.parametrize("chaos_seed", [101, 202])
    def test_randomized_schedule_run_stays_consistent(self, chaos_seed):
        """A full randomized chaos run (crashes + recoveries, cuts,
        bursts, spikes) with client timeouts: every client finishes, no
        variable is lost, surviving replicas agree, and the history —
        replies served from a client table included — is linearizable."""
        fingerprint, system = chaos_fingerprint(seed=9, chaos_seed=chaos_seed)
        assert sum(fingerprint["completed"]) > 0
        assert fingerprint["queries_answered"] >= 1
        assert all(not r.crashed for p in system.partition_names for r in system.servers(p))
        assert_clean(system, system.clients[0].history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}

    @pytest.mark.slow
    def test_long_chaos_from_env_seed(self):
        """Weekly CI entry point: CHAOS_SEED selects the randomized
        schedule, so a red run is reproducible by exporting the same
        seed locally (see EXPERIMENTS.md)."""
        chaos_seed = int(os.environ.get("CHAOS_SEED", "1"))
        system = build_chaos_system(
            n_keys=8,
            n_partitions=3,
            seed=chaos_seed,
            loss_probability=0.02,
            client_timeout=0.25,
            client_timeout_cap=2.0,
        )
        config = ChaosConfig(
            duration=30.0,
            start_after=0.5,
            replica_crashes_per_group=3,
            acceptor_crashes_per_group=2,
            loss_bursts=2,
            delay_spikes=2,
        )
        schedule = generate_for_system(system, config, seed=chaos_seed)
        ChaosInjector(system, schedule).arm()
        history = History()
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in mixed_scripts(n_clients=4, n_cmds=12)
        ]
        system.run(until=300.0)
        for client in clients:
            assert client.completed + client.failed == 12
        assert_clean(system, history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(8)}
