"""The chaos injector: scripted schedules applied to a live system."""

import pytest

from repro.core.messages import ReliableMsg
from repro.faults import ChaosConfig, ChaosInjector, FaultSchedule, generate_for_system

from tests.faults.conftest import build_chaos_system


class TestInjectorBasics:
    def test_applies_events_at_scheduled_times(self):
        system = build_chaos_system()
        schedule = (
            FaultSchedule()
            .at(0.5, "crash_replica", "p0", 1)
            .at(1.5, "recover_replica", "p0", 1)
        )
        injector = ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        assert system.servers("p0")[1].crashed
        assert [(k, a) for _, k, a in injector.applied] == [
            ("crash_replica", ("p0", 1))
        ]
        system.run(until=2.0)
        assert not system.servers("p0")[1].crashed
        assert len(injector.applied) == 2
        assert injector.applied[0][0] == pytest.approx(0.5)
        assert injector.applied[1][0] == pytest.approx(1.5)

    def test_arm_twice_raises(self):
        system = build_chaos_system()
        injector = ChaosInjector(system, FaultSchedule()).arm()
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm()

    def test_monitor_counts_faults(self):
        system = build_chaos_system()
        schedule = (
            FaultSchedule()
            .at(0.1, "crash_acceptor", "p0", 0)
            .at(0.2, "recover_acceptor", "p0", 0)
            .at(0.3, "crash_acceptor", "p0", 1)
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        counters = system.monitor.labeled_counters("fault")
        assert counters["crash_acceptor"] == 2
        assert counters["recover_acceptor"] == 1


class TestLeaderFaults:
    def test_crash_leader_resolves_at_fire_time(self):
        system = build_chaos_system()
        schedule = (
            FaultSchedule()
            .at(1.0, "crash_leader", "p0")
            .at(3.0, "recover_leader", "p0")
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=2.0)
        group = system.partition_group("p0")
        crashed = [r for r in group.replicas if r.crashed]
        assert len(crashed) == 1
        victim = crashed[0]
        system.run(until=4.0)
        assert not victim.crashed

    def test_recover_leader_without_crash_is_noop(self):
        system = build_chaos_system()
        schedule = FaultSchedule().at(0.5, "recover_leader", "p0")
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        assert all(not r.crashed for r in system.partition_group("p0").replicas)


class TestLinkAndTrafficFaults:
    def test_cut_and_heal_route_to_network(self):
        system = build_chaos_system()
        a, b = "p0/rep0", "p1/rep0"
        schedule = FaultSchedule().at(0.5, "cut", a, b).at(1.5, "heal", a, b)
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        assert not system.net.link_up(a, b)
        system.run(until=2.0)
        assert system.net.link_up(a, b)

    def test_oneway_cut_and_partition_groups(self):
        system = build_chaos_system()
        a, b = "p0/rep0", "p1/rep0"
        side_a = ("p0/rep0", "p0/rep1")
        side_b = ("p1/rep0", "p1/rep1")
        schedule = (
            FaultSchedule()
            .at(0.2, "cut_oneway", a, b)
            .at(0.4, "partition_groups", side_a, side_b)
            .at(0.6, "heal_all")
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=0.3)
        assert not system.net.link_up(a, b)
        assert system.net.link_up(b, a)
        system.run(until=0.5)
        assert not system.net.link_up("p0/rep1", "p1/rep1")
        system.run(until=1.0)
        assert system.net.link_up(a, b)
        assert system.net.link_up("p0/rep1", "p1/rep1")

    def test_loss_burst_and_delay_spike_anchor_at_fire_time(self):
        system = build_chaos_system()
        schedule = (
            FaultSchedule()
            .at(1.0, "loss_burst", 2.0, 0.5)
            .at(1.0, "delay_spike", 2.0, 0.05)
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=1.5)
        p, reason = system.net._effective_loss(system.sim.now)
        assert p == 0.5 and reason == "loss_burst"
        assert system.net._extra_delay(system.sim.now) == 0.05
        system.run(until=3.5)
        p, _ = system.net._effective_loss(system.sim.now)
        assert p == 0.0
        assert system.net._extra_delay(system.sim.now) == 0.0


class TestGenerateForSystem:
    def test_schedule_shapes_to_system(self):
        system = build_chaos_system(n_partitions=3)
        config = ChaosConfig(duration=10.0)
        schedule = generate_for_system(system, config, seed=9)
        groups = {e.args[0] for e in schedule if e.kind.startswith(("crash_", "recover_"))}
        assert groups <= set(system.partition_names) | {system.oracle_group}
        assert len(schedule) > 0
        # replica indices stay within the deployment's bounds
        for event in schedule:
            if event.kind in ("crash_replica", "recover_replica"):
                assert 0 <= event.args[1] < system.config.n_replicas
            if event.kind in ("crash_acceptor", "recover_acceptor"):
                assert 0 <= event.args[1] < system.config.n_acceptors

    def test_exclude_oracle_and_links(self):
        system = build_chaos_system()
        config = ChaosConfig(duration=10.0)
        schedule = generate_for_system(
            system, config, seed=9, include_oracle=False, cut_links=False
        )
        for event in schedule:
            assert event.kind not in ("cut", "heal", "cut_oneway", "heal_oneway")
            if event.kind.startswith(("crash_", "recover_")):
                assert event.args[0] != system.oracle_group


class TestReconfigFaults:
    """The three elastic-reconfiguration fault points resolve their
    applicability at fire time: when nothing is in flight they log and
    do nothing, so dense combs are safe to arm unconditionally."""

    def test_all_three_noop_when_quiescent(self):
        system = build_chaos_system()
        schedule = (
            FaultSchedule()
            .at(0.5, "crash_mid_split", "p0")
            .at(0.6, "crash_oracle_during_reconfig")
            .at(0.7, "lose_cutover_msgs", 0.5, 0.3)
        )
        injector = ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        # Logged even as no-ops — the applied ledger is the replay record.
        assert len(injector.applied) == 3
        for name, group in system.directory.groups.items():
            assert all(not r.crashed for r in group.replicas), name
        assert not system.net._loss_bursts

    def test_crash_oracle_during_reconfig_pairs_with_recover_leader(self):
        system = build_chaos_system()
        system.start()
        for replica in system.oracle_replicas():
            replica.reconfig_inflight = True
        schedule = (
            FaultSchedule()
            .at(0.5, "crash_oracle_during_reconfig")
            .at(1.5, "recover_leader", system.oracle_group)
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        crashed = [r for r in system.oracle_replicas() if r.crashed]
        assert len(crashed) == 1
        system.run(until=2.0)
        assert not crashed[0].crashed

    def test_crash_mid_split_hits_a_replica_with_handoff_state(self):
        system = build_chaos_system()
        system.start()
        victim = system.servers("p0")[0]
        victim.in_transit.add("ghost-node")  # handoff state in flight
        schedule = (
            FaultSchedule()
            .at(0.5, "crash_mid_split", "p0")
            .at(1.5, "recover_leader", "p0")
        )
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        assert victim.crashed
        assert all(
            not r.crashed for r in system.servers("p0") if r is not victim
        )
        system.run(until=2.0)
        assert not victim.crashed

    def test_crash_mid_split_hits_a_replica_whose_only_handoff_state_is_its_outbox(self):
        system = build_chaos_system()
        system.start()
        victim = system.servers("p0")[0]
        peer = system.servers("p1")[0].name
        # An envelope the destination never acked; no timer, so it stays.
        victim.reliable.outbox[(peer, "ghost")] = ReliableMsg("ghost", None)
        schedule = FaultSchedule().at(0.5, "crash_mid_split", "p0")
        ChaosInjector(system, schedule).arm()
        system.run(until=0.49)
        assert not victim.in_transit and not victim.draining
        system.run(until=1.0)
        assert victim.crashed
        assert all(
            not r.crashed for r in system.servers("p0") if r is not victim
        )

    def test_lose_cutover_msgs_bursts_only_in_flight(self):
        system = build_chaos_system()
        system.start()
        system.oracle_replicas()[0].reconfig_inflight = True
        schedule = FaultSchedule().at(0.5, "lose_cutover_msgs", 0.4, 0.3)
        ChaosInjector(system, schedule).arm()
        system.run(until=1.0)
        p, reason = system.net._effective_loss(0.6)
        assert p == 0.3 and reason == "loss_burst"
        p, _ = system.net._effective_loss(1.5)
        assert p == 0.0
