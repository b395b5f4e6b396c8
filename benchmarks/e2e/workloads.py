"""The five pinned workloads of the end-to-end benchmark.

Every parameter that shapes a run is written out here, against the public
constructors of ``repro.core`` / ``repro.workloads`` / ``repro.compartment`` /
``repro.faults`` — never through ``repro.experiments`` builders or a
constructor default — so retuning an experiment cannot silently change the
benchmark.  Changing anything in this file invalidates recorded numbers.

Common shape: 2 partitions (+ the oracle group) x 2 replicas x 3 acceptors,
closed-loop clients with one outstanding command each and no think time.
Each workload has a *saturated* point (``sat_clients``) and a *light* point
(``LIGHT_CLIENTS`` = one outstanding command per partition, so latency is
protocol round-trips rather than queueing).  Clients stop issuing at
``window``; the run continues for ``drain`` so in-flight commands resolve.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.compartment import CompartmentConfig
from repro.consensus.paxos import ReplicaConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import Workload
from repro.faults import ChaosInjector, FaultSchedule
from repro.sim import LogNormalLatency
from repro.smr import Command, History, KeyValueApp
from repro.workloads.social import ChirperApp, ChirperWorkload, generate_social_graph
from repro.workloads.tpcc import TPCCApp, TPCCConfig, TPCCWorkload, district_node, warehouse_node

#: Not 1 (its p99 moves +-15 % between seeds on chirper_mix) and not 3 or 4
#: (they wait in line, and the lane pump of tpcc_lanes then diverges: README).
LIGHT_CLIENTS = 2


def derive_seed(seed: int, sub: int, purpose: str) -> int:
    """A stable 31-bit seed for one input of sub-run ``sub`` of ``--seed``."""
    digest = hashlib.sha256(f"e2e:{seed}:{sub}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class BuildParams:
    """Everything a builder may depend on."""

    seed: int          # --seed
    sub: int           # which of the run's independent inputs
    n_clients: int
    window: float      # clients stop issuing at this virtual time
    tracing: bool      # SystemConfig(tracing=...)
    history: History   # every client records its completed operations here


@dataclass
class Deployment:
    """One built, not yet started system with its clients attached."""

    system: DynaStarSystem
    injector: Optional[ChaosInjector] = None
    read_workloads: tuple = ()  # kv_reads: its per-client generators


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    sat_clients: int
    window: float
    drain: float
    build: Callable[[BuildParams], Deployment]
    light_window: float


def _lan_latency():
    # The ~0.35 ms-median LAN model the paper-style experiments use
    # (``repro.sim.latency.lan_default``), spelled out.
    return LogNormalLatency(median=0.00035, sigma=0.35, floor=0.00008)


def _replica_config() -> ReplicaConfig:
    return ReplicaConfig(
        heartbeat_period=0.1,
        leader_timeout=0.5,
        batch_delay=0.0005,
        max_batch=64,
        window=32,
        catchup_period=0.2,
        recovery_retry=0.3,
        recovery_retry_cap=5.0,
        checkpoint_interval=0,
    )


def _system_config(p: BuildParams, **overrides) -> SystemConfig:
    """The shared deployment; each workload names only what it changes."""
    params = dict(
        n_partitions=2,
        n_replicas=2,
        n_acceptors=3,
        seed=derive_seed(p.seed, p.sub, "system"),
        mode="dynastar",
        placement="random",
        repartition_enabled=True,
        repartition_threshold=4000,
        plan_compute_cost=1e-6,
        imbalance=0.20,
        hint_period=1.0,
        service_time=0.002,
        execution_lanes=1,
        latency=_lan_latency(),
        oracle_dispatch=False,
        loss_probability=0.0,
        client_timeout=None,
        client_backoff=2.0,
        client_timeout_cap=None,
        client_max_attempts=100,
        client_retry_jitter=0.1,
        admission_bound=None,
        oracle_admission_bound=None,
        client_rate_limit=None,
        client_retry_budget=None,
        client_breaker_threshold=None,
        client_think_time=None,
        checkpoint_interval=0,
        retransmit_period=0.5,
        target_policy="most_nodes",
        graph_decay=0.5,
        tracing=p.tracing,
        audit=False,
        health_sample_period=None,
        elastic_enabled=False,
        idempotency_keys=False,
        replica=_replica_config(),
        compartment=CompartmentConfig(enabled=False),
    )
    params.update(overrides)
    return SystemConfig(**params)


def _attach_clients(system, p: BuildParams, workload_for) -> None:
    for i in range(p.n_clients):
        system.add_client(workload_for(i), history=p.history, stop_at=p.window)


# -- Chirper ------------------------------------------------------------------


def _chirper(p: BuildParams, post_fraction, follow_fraction, **config_overrides) -> Deployment:
    graph = generate_social_graph(
        300, avg_follows=12.0, reciprocity=0.25, seed=derive_seed(p.seed, p.sub, "graph")
    )
    system = DynaStarSystem(ChirperApp(graph), _system_config(p, **config_overrides))
    workload = ChirperWorkload(
        graph,
        mix="mix",
        rho=0.95,
        seed=derive_seed(p.seed, p.sub, "workload"),
        post_fraction=post_fraction,
        follow_fraction=follow_fraction,
        rank_by="random",
    )
    _attach_clients(system, p, lambda i: workload)
    return Deployment(system)


def build_chirper_mix(p: BuildParams) -> Deployment:
    return _chirper(p, 0.15, 0.0)


def build_chirper_posts(p: BuildParams) -> Deployment:
    return _chirper(p, 0.5, 0.1)


def fault_schedule(rng: random.Random, window: float) -> FaultSchedule:
    """The seeded fault script of ``chirper_faults``: the same faults on
    every seed, at seeded times inside ``[0.5, 0.75 * window]``.

    Per group (p0, p1, oracle): one crash of the current leader and two
    acceptor crashes (one acceptor down at a time, so a quorum stays up).
    Across groups: four link cuts and one one-way cut between replicas of
    *different* groups, one loss burst, one delay spike.  The last quarter of
    the window and the drain run on a healed (still lossy) network.

    Each group changes leader exactly once, and only by the scripted crash:
    no cut separates a group's own replicas and the burst is too mild to
    starve a heartbeat timeout.  A replica that leads twice wedges its group
    (``PaxosReplica.proposed_uids`` keeps values whose Accepts never reached
    a quorum, so the second reign refuses to propose them again) — seen once
    in about a hundred passes under ``repro.faults.generate`` with two leader
    crashes per group.
    """
    groups = ("p0", "p1", "oracle")
    start, end = 0.5, 0.75 * window
    schedule = FaultSchedule()

    def windows(count):
        """One (begin, finish) outage per equal slot of the fault span."""
        slot = (end - start) / count
        out = []
        for i in range(count):
            downtime = min(rng.uniform(0.5, 2.0), 0.8 * slot)
            begin = start + i * slot + rng.uniform(0.0, slot - downtime)
            out.append((begin, begin + downtime))
        return out

    for group, (begin, finish) in zip(rng.sample(groups, 3), windows(3)):
        schedule.at(begin, "crash_leader", group)
        schedule.at(finish, "recover_leader", group)
    for group in groups:
        for begin, finish in windows(2):
            acceptor = rng.randrange(3)
            schedule.at(begin, "crash_acceptor", group, acceptor)
            schedule.at(finish, "recover_acceptor", group, acceptor)
    for kind, undo, count in (("cut", "heal", 4), ("cut_oneway", "heal_oneway", 1)):
        for begin, finish in windows(count):
            a, b = rng.sample(groups, 2)
            ends = (f"{a}/rep{rng.randrange(2)}", f"{b}/rep{rng.randrange(2)}")
            schedule.at(begin, kind, *ends)
            schedule.at(finish, undo, *ends)
    schedule.at(windows(1)[0][0], "loss_burst", 1.0, 0.1)
    schedule.at(windows(1)[0][0], "delay_spike", 1.0, 0.01)
    return schedule


def build_chirper_faults(p: BuildParams) -> Deployment:
    deployment = _chirper(
        p, 0.15, 0.0, loss_probability=0.02, client_timeout=0.25, client_timeout_cap=2.0,
    )
    rng = random.Random(derive_seed(p.seed, p.sub, "faults"))
    schedule = fault_schedule(rng, p.window)
    deployment.injector = ChaosInjector(deployment.system, schedule).arm()
    return deployment


# -- TPC-C --------------------------------------------------------------------


def build_tpcc_lanes(p: BuildParams) -> Deployment:
    tpcc = TPCCConfig(
        n_warehouses=2,
        districts_per_warehouse=10,
        customers_per_district=30,
        n_items=200,
        initial_stock=1000,
        remote_order_line_prob=0.01,
        remote_payment_prob=0.15,
        invalid_item_prob=0.01,
    )
    # Warehouse-aligned: warehouse w and its districts on partition w-1.
    placement = {}
    for w in range(1, tpcc.n_warehouses + 1):
        placement[warehouse_node(w)] = w - 1
        for d in range(1, tpcc.districts_per_warehouse + 1):
            placement[district_node(w, d)] = w - 1
    system = DynaStarSystem(
        TPCCApp(tpcc),
        _system_config(p, placement=placement, service_time=0.004, execution_lanes=4),
    )
    workload = TPCCWorkload(
        tpcc, seed=derive_seed(p.seed, p.sub, "workload"),
        commands_per_client=None, home_warehouse=None,
    )
    _attach_clients(system, p, lambda i: workload)
    return Deployment(system)


# -- Key-value reads ------------------------------------------------------------


class KeyValueReadMix(Workload):
    """One client's seeded stream of single-key reads and writes."""

    def __init__(self, keys, read_fraction: float, seed: int, tag: str):
        self.keys = list(keys)
        self.read_fraction = read_fraction
        self.rng = random.Random(seed)
        self.tag = tag
        self._seq = 0
        self.reads_issued = 0

    def next_command(self, client) -> Command:
        i = self._seq
        self._seq += 1
        key = self.rng.choice(self.keys)
        if self.rng.random() < self.read_fraction:
            self.reads_issued += 1
            return Command(f"{self.tag}:{i}", "read", (key,))
        return Command(f"{self.tag}:{i}", "write", (key, i))


def build_kv_reads(p: BuildParams) -> Deployment:
    keys = [f"k{i:02d}" for i in range(16)]
    system = DynaStarSystem(
        KeyValueApp({key: i for i, key in enumerate(keys)}),
        _system_config(
            p,
            latency=LogNormalLatency(median=0.001, sigma=0.35, floor=0.0002),
            # Keys alternate between the partitions: a random 16-key placement
            # is often 10/6, which would make throughput a property of the seed.
            placement={key: i % 2 for i, key in enumerate(keys)},
            repartition_enabled=False,
            client_timeout=0.25,
            client_timeout_cap=2.0,
            idempotency_keys=True,
            compartment=CompartmentConfig(
                enabled=True,
                n_proxy_leaders=2,
                proxy_batch_delay=0.0005,
                proxy_max_batch=64,
                n_learners=3,
                lease_enabled=True,
                lease_duration=1.0,
                lease_renew_margin=0.3,
                probe_retry=0.02,
                read_deadline=0.5,
                sync_period=1.0,
            ),
        ),
    )
    base = derive_seed(p.seed, p.sub, "workload")
    mixes = tuple(
        KeyValueReadMix(keys, 0.9, seed=base + i, tag=f"c{i}") for i in range(p.n_clients)
    )
    _attach_clients(system, p, mixes.__getitem__)
    return Deployment(system, read_workloads=mixes)


WORKLOADS = (
    WorkloadSpec(
        name="chirper_mix",
        why="the paper's Chirper mix (85% timeline / 15% post, Zipf 0.95) with "
            "repartitioning on the serial pump: the headline, every layer works a little",
        sat_clients=8, window=4.5, drain=3.0, build=build_chirper_mix,
        light_window=5.0,
    ),
    WorkloadSpec(
        name="chirper_posts",
        why="50% posts + 10% follows: ~45% multi-partition commands, so timestamp "
            "agreement, borrow/return, copies and plan moves do most of the work",
        sat_clients=8, window=2.0, drain=3.0, build=build_chirper_posts,
        light_window=3.0,
    ),
    WorkloadSpec(
        name="tpcc_lanes",
        why="TPC-C, warehouse-aligned, 4 execution lanes: Paxos ordering, lane "
            "scheduling and execute dominate; oracle and borrow/return do little",
        sat_clients=24, window=2.0, drain=2.0, build=build_tpcc_lanes,
        light_window=2.5,
    ),
    WorkloadSpec(
        name="kv_reads",
        why="90% reads served by lease-holding read learners: Paxos, multicast and "
            "borrow/return are bypassed; compartment, client and actors carry the run",
        sat_clients=24, window=4.0, drain=3.0, build=build_kv_reads,
        light_window=5.0,
    ),
    WorkloadSpec(
        name="chirper_faults",
        why="chirper_mix under 2% loss, leader/acceptor crashes and link cuts: the "
            "only run on the general send path, retransmission, recovery, leader change",
        sat_clients=8, window=20.0, drain=6.0, build=build_chirper_faults,
        light_window=20.0,
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}
