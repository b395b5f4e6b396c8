"""Safety during elastic reconfiguration: acked commands stay
linearizable and execute exactly once while partitions split, drain, and
retire online — including with the three reconfiguration fault kinds
(``crash_mid_split``, ``crash_oracle_during_reconfig``,
``lose_cutover_msgs``) firing inside the reconfig windows."""

import pytest

from repro.core.client import ScriptedWorkload
from repro.elastic import ElasticConfig
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command, History

from tests.core.conftest import assert_clean
from tests.faults.conftest import build_chaos_system

N_KEYS = 8


def build_elastic_system(**extra):
    """Seed 3 places five of the eight keys on p0 — enough nodes to
    split — with aggressive log-driven thresholds so the hotspot scripts
    below trigger a split (and usually a merge) within the run."""
    return build_chaos_system(
        n_keys=N_KEYS,
        n_partitions=2,
        seed=3,
        hint_period=0.1,
        client_think_time=0.05,
        client_timeout=0.3,
        client_timeout_cap=2.0,
        audit=True,
        elastic_enabled=True,
        elastic=ElasticConfig(
            split_factor=1.3, merge_factor=0.3, eval_interval=30, cooldown=50,
            max_partitions=4, min_partitions=1,
        ),
        idempotency_keys=True,
        **extra,
    )


def hotspot_scripts(system, n_clients=3, n_hot=24, n_cold=12):
    """Per-client scripts: a hot phase hammering the node-heavy
    partition's keys (with transfers among them, so the split bisection
    has edges), then a cold phase on the other partition's keys only —
    the load shift that triggers the merge."""
    by_partition: dict = {}
    for key, part in system.initial_assignment.items():
        by_partition.setdefault(part, []).append(key)
    hot = sorted(max(by_partition.values(), key=len))
    cold = sorted(min(by_partition.values(), key=len))
    assert len(hot) >= 4 and cold, "seed no longer yields a splittable hotspot"
    scripts = []
    for c in range(n_clients):
        cmds = []
        for i in range(n_hot):
            key = hot[(c * 3 + i) % len(hot)]
            if i % 4 == 0:
                other = hot[(c * 3 + i + 1) % len(hot)]
                if other != key:
                    cmds.append(Command(f"c{c}:{i}", "transfer", (key, other, 1)))
                    continue
            if i % 2 == 0:
                cmds.append(Command(f"c{c}:{i}", "write", (key, c * 100 + i)))
            else:
                cmds.append(Command(f"c{c}:{i}", "read", (key,)))
        for i in range(n_hot, n_hot + n_cold):
            key = cold[(c + i) % len(cold)]
            if i % 2 == 0:
                cmds.append(Command(f"c{c}:{i}", "write", (key, c * 100 + i)))
            else:
                cmds.append(Command(f"c{c}:{i}", "read", (key,)))
        scripts.append(cmds)
    return scripts


def reconfig_fault_comb(until=3.0):
    """A dense comb of the three reconfiguration fault kinds.  Each
    resolves applicability at fire time (no-op when nothing is in
    flight), so the comb bites exactly inside the reconfig windows
    wherever they land.  Crash ticks pair with recover_leader shortly
    after, bounding any outage."""
    schedule = FaultSchedule()
    t = 0.2
    i = 0
    while t < until:
        schedule.at(round(t, 4), "lose_cutover_msgs", 0.15, 0.2)
        if i % 3 == 0:
            schedule.at(round(t + 0.005, 4), "crash_oracle_during_reconfig")
            schedule.at(round(t + 0.205, 4), "recover_leader", "oracle")
        elif i % 3 == 1:
            group = f"p{(i // 3) % 2}"
            schedule.at(round(t + 0.005, 4), "crash_mid_split", group)
            schedule.at(round(t + 0.205, 4), "recover_leader", group)
        t += 0.1
        i += 1
    return schedule


class TestElasticLinearizability:
    def test_split_and_merge_stay_linearizable(self):
        # No injected faults: the reconfigurations themselves are the
        # disturbance.  Every acked command must be linearizable across
        # the cutovers, and no variable may be lost or duplicated by the
        # handoffs.
        system = build_elastic_system()
        history = History()
        scripts = hotspot_scripts(system)
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=120.0)

        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
            assert client.failed == 0
        # The run actually reconfigured.
        cutovers = [
            r for r in system.audit.records if r["kind"] == "reconfig-cutover"
        ]
        assert cutovers, "scenario never split or merged"
        assert_clean(system, history)
        assert len(system.all_store_variables()) == N_KEYS

    def test_reconfig_faults_stay_linearizable(self):
        # The three new fault kinds fire inside the reconfig windows:
        # oracle replicas crash mid-protocol, handoff holders crash with
        # nodes in transit, and cutover multicasts ride loss bursts.
        # Safety must hold anyway.
        system = build_elastic_system()
        injector = ChaosInjector(system, reconfig_fault_comb(until=3.5)).arm()
        history = History()
        scripts = hotspot_scripts(system)
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=240.0)

        assert len(injector.applied) == len(injector.schedule)
        for client, cmds in zip(clients, scripts):
            assert client.completed == len(cmds), f"{client.name} lost acks"
            assert client.failed == 0
        cutovers = [
            r for r in system.audit.records if r["kind"] == "reconfig-cutover"
        ]
        assert cutovers, "scenario never split or merged"
        assert_clean(system, history)
        assert len(system.all_store_variables()) == N_KEYS

    def test_retired_partition_ends_empty_and_nacks(self):
        # Drive a merge, then check the retirement contract: the retired
        # group's replicas hold no state, and the audit trail shows the
        # full decision -> cutover -> drain -> retire lifecycle.
        system = build_elastic_system()
        history = History()
        scripts = hotspot_scripts(system)
        clients = [
            system.add_client(ScriptedWorkload(cmds), history=history)
            for cmds in scripts
        ]
        system.run(until=120.0)

        retired = [
            r for r in system.audit.records if r["kind"] == "reconfig-retired"
        ]
        if not retired:
            pytest.skip("this seed produced splits but no merge")
        for record in retired:
            name = record["partition"]
            assert name not in system.partition_names
            for replica in system.servers(name):
                assert replica.retired
                assert not dict(replica.store.items()), (
                    f"retired {name} still owns state"
                )
        assert_clean(system, history)
        assert len(system.all_store_variables()) == N_KEYS


@pytest.mark.slow
class TestElasticChaosSlow:
    def test_experiment_chaos_scenario_is_safe(self):
        # The full seeded experiment scenario under its chaos comb:
        # splits and merges in both phases with all three fault kinds
        # firing.  Open-loop history is too long to linearizability-check
        # (exponential), so this asserts the cheap invariants: progress,
        # replica agreement, conservation, retired-store emptiness.
        from repro.experiments.elastic import ElasticScenario
        from repro.experiments.harness import run_scenario

        scenario = ElasticScenario(duration=8.0, shift_at=4.0, chaos=True)
        summary, system = run_scenario(scenario)
        assert summary["failed"] == 0
        assert summary["cutovers"] >= 2
        assert scenario.gates(summary) == []  # split and merged
        assert summary["faults_applied"] > 0
        assert_clean(system)
