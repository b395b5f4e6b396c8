"""Safety of lease-served local reads under stage faults: acked reads
stay linearizable while proxy leaders crash mid-batch and lease holders
force-expire mid-read-burst, and every bounced read completes through
the ordered path."""

import random

import pytest

from repro.compartment import CompartmentConfig
from repro.core.client import ScriptedWorkload
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.faults.conftest import build_chaos_system

N_KEYS = 8


def build_compartment_system(**extra):
    return build_chaos_system(
        n_keys=N_KEYS,
        n_partitions=2,
        seed=3,
        client_timeout=0.4,
        client_timeout_cap=2.0,
        idempotency_keys=True,
        compartment=CompartmentConfig(
            enabled=True, n_proxy_leaders=2, n_learners=3
        ),
        **extra,
    )


def read_burst_scripts(n_clients=4, n_commands=48, seed=11):
    """Read-heavy scripts with interleaved writes, so forced lease
    expiries land inside bursts of in-flight local reads and the
    sequencing probes have fresh writes to cover."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(N_KEYS)]
    scripts = []
    for c in range(n_clients):
        cmds = []
        for i in range(n_commands):
            key = rng.choice(keys)
            if rng.random() < 0.8:
                cmds.append(Command(f"c{c}:{i}", "read", (key,)))
            else:
                cmds.append(Command(f"c{c}:{i}", "write", (key, c * 1000 + i)))
        scripts.append(cmds)
    return scripts


def stage_fault_comb(until=3.0):
    """A dense comb of the two stage fault kinds.  Both resolve their
    victim at fire time (no-op against an idle stage), so the comb is
    safe to lay down densely; proxy crashes pair with recover_leader via
    the injector's shared crash ledger."""
    schedule = FaultSchedule()
    t = 0.3
    i = 0
    while t < until:
        group = f"p{i % 2}"
        schedule.at(round(t, 4), "crash_proxy_leader", group)
        schedule.at(round(t + 0.2, 4), "recover_leader", group)
        schedule.at(round(t + 0.1, 4), "expire_lease", f"p{(i + 1) % 2}")
        t += 0.4
        i += 1
    return schedule


def run_with_faults(system, schedule):
    injector = ChaosInjector(system, schedule).arm()
    history = History()
    scripts = read_burst_scripts()
    clients = [
        system.add_client(ScriptedWorkload(cmds), history=history)
        for cmds in scripts
    ]
    system.run(until=90.0)
    return injector, history, clients, scripts


class TestCompartmentLinearizability:
    def test_lease_expiry_mid_burst_stays_linearizable(self):
        # Only forced expiries: every local read in flight when its
        # partition's lease dies must either still be covered by a
        # completed probe or bounce to the ordered path — never return
        # a stale value.
        system = build_compartment_system()
        schedule = FaultSchedule()
        for i in range(8):
            schedule.at(round(0.3 + i * 0.35, 4), "expire_lease", f"p{i % 2}")
        injector, history, clients, scripts = run_with_faults(system, schedule)

        assert len(injector.applied) == len(injector.schedule)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
            assert client.failed == 0
        counters = system.monitor.snapshot()["counters"]
        expired = sum(
            v for k, v in counters.items()
            if k.startswith("lease{") and "event=expired" in k
        )
        assert expired > 0, "no forced expiry actually bit a held lease"
        assert_clean(system, history)

    def test_stage_fault_comb_stays_linearizable(self):
        # The full comb: proxy leaders crash while holding batched
        # submissions (volatile state lost, Paxos uid-dedup absorbs the
        # client retries) interleaved with forced lease expiries.
        system = build_compartment_system()
        injector, history, clients, scripts = run_with_faults(
            system, stage_fault_comb()
        )

        assert len(injector.applied) == len(injector.schedule)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
            assert client.failed == 0
        counters = system.monitor.snapshot()["counters"]
        local_ok = sum(
            v for k, v in counters.items()
            if k.startswith("reads{") and "event=local_ok" in k
        )
        assert local_ok > 0, "the comb starved the local read path entirely"
        assert_clean(system, history)
        merged = system.all_store_variables()
        assert set(merged) == {f"k{i}" for i in range(N_KEYS)}

    def test_proxy_crash_loses_no_acked_commands(self):
        # Crash proxies only, aggressively: dedup at the replicas must
        # keep every command exactly-once even when a retried submission
        # rides a different proxy than its crashed original.
        system = build_compartment_system()
        schedule = FaultSchedule()
        for i in range(6):
            group = f"p{i % 2}"
            schedule.at(round(0.25 + i * 0.4, 4), "crash_proxy_leader", group)
            schedule.at(round(0.45 + i * 0.4, 4), "recover_leader", group)
        injector, history, clients, scripts = run_with_faults(system, schedule)

        assert len(injector.applied) == len(injector.schedule)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
        assert_clean(system, history)


@pytest.mark.slow
class TestCompartmentChaosSlow:
    def test_experiment_chaos_scenario_is_safe(self):
        # The full seeded experiment scenario under its stage-fault
        # comb.  The open-loop history is too long to linearizability-
        # check (exponential), so this asserts the cheap invariants:
        # progress, no stuck clients, replica agreement, and learner
        # mirrors converged to the replica state.
        from repro.experiments.compartment import CompartmentScenario
        from repro.experiments.harness import run_scenario

        summary, system = run_scenario(
            CompartmentScenario(duration=4.0, chaos=True)
        )
        assert summary["completed"] > 0
        assert summary["faults_applied"] > 0
        assert_clean(system)
