"""Regression: a replica that leads twice wedged its group.

The scenario is the one written down in ``benchmarks/e2e/README.md``: the
Chirper mix under 2 % loss with two leader crashes per group, the
``ChaosConfig`` and seeds quoted there (sub-seed 1 of ``--seed 108``, all
seeds spelled out so the test does not import the benchmark).  At the
parent of the fix every client was still waiting after the drain: a leader
crashed with Accepts in flight kept their uids in ``proposed_uids`` and,
leading again, refused every retransmission.
"""

from repro.core import DynaStarSystem, SystemConfig
from repro.faults import ChaosConfig, ChaosInjector, generate_for_system
from repro.sim import LogNormalLatency
from repro.smr import History
from repro.workloads.social import ChirperApp, ChirperWorkload, generate_social_graph

from tests.core.conftest import assert_clean

WINDOW, DRAIN = 24.0, 6.0


def test_two_leader_crashes_per_group_leave_no_client_waiting():
    graph = generate_social_graph(300, avg_follows=12.0, reciprocity=0.25, seed=1843498269)
    system = DynaStarSystem(
        ChirperApp(graph),
        SystemConfig(
            n_partitions=2,
            n_replicas=2,
            n_acceptors=3,
            seed=1171969727,
            placement="random",
            repartition_enabled=True,
            repartition_threshold=4000,
            hint_period=1.0,
            service_time=0.002,
            latency=LogNormalLatency(median=0.00035, sigma=0.35, floor=0.00008),
            loss_probability=0.02,
            client_timeout=0.25,
            client_timeout_cap=2.0,
            client_max_attempts=100,
        ),
    )
    workload = ChirperWorkload(
        graph, mix="mix", rho=0.95, seed=1812406982,
        post_fraction=0.15, follow_fraction=0.0, rank_by="random",
    )
    for _ in range(8):
        system.add_client(workload, history=History(), stop_at=WINDOW)
    chaos = ChaosConfig(
        duration=18, start_after=0.5, replica_crashes_per_group=2,
        acceptor_crashes_per_group=2, leader_crash_probability=1.0, link_cuts=4,
    )
    injector = ChaosInjector(system, generate_for_system(system, chaos, seed=350498948)).arm()
    system.run(until=WINDOW + DRAIN)

    crashes = [kind for _, kind, _ in injector.applied if kind == "crash_leader"]
    assert len(crashes) == 6  # two reign changes per group, oracle included
    assert all(client.failed == 0 for client in system.clients)
    assert_clean(system)
