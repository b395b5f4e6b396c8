"""System builder: wires oracle, partitions, and clients onto a network.

``DynaStarSystem`` is the public entry point of the library::

    from repro.core import DynaStarSystem, SystemConfig
    from repro.smr import KeyValueApp

    app = KeyValueApp({"x": 0, "y": 0})
    system = DynaStarSystem(app, SystemConfig(n_partitions=2, seed=7))
    client = system.add_client(ScriptedWorkload([...]))
    system.run(until=10.0)

The baselines (S-SMR: static partitioning; DS-SMR: naive dynamic
migration) are the subclasses in ``repro.baselines``: each names its
partition-server class and sets ``SystemConfig.mode``, which the oracle
reads.  The initial placement may be ``"random"``, ``"hash"``, or an
explicit node -> partition mapping (e.g. a METIS-optimized one for
S-SMR*).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.compartment import CompartmentConfig, ProxyLeader, ReadLearner
from repro.consensus.group import GroupConfig
from repro.consensus.paxos import ReplicaConfig
from repro.core.client import DynaStarClient, Workload
from repro.core.oracle import OracleReplica
from repro.core.server import PartitionServer
from repro.elastic import ElasticConfig, ElasticityController
from repro.multicast.basecast import GroupDirectory
from repro.obs.audit import NULL_AUDIT, AuditLog
from repro.obs.health import PartitionHealthSampler
from repro.obs.trace import Tracer
from repro.partitioning.graph import Partitioning
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel, lan_default
from repro.sim.monitor import Monitor
from repro.sim.network import Network
from repro.sim.randomness import SeedSequenceFactory, stable_hash
from repro.smr.linearizability import History
from repro.smr.statemachine import AppStateMachine


@dataclass
class SystemConfig:
    """Deployment shape and protocol tuning for one experiment."""

    n_partitions: int = 4
    n_replicas: int = 2
    n_acceptors: int = 3
    seed: int = 1
    mode: str = "dynastar"  # dynastar | ssmr | dssmr
    placement: Union[str, dict, Partitioning] = "random"
    repartition_enabled: bool = True
    repartition_threshold: int = 2000
    plan_compute_cost: float = 1e-6
    imbalance: float = 0.20
    hint_period: float = 1.0
    #: Virtual CPU seconds one command execution occupies its partition
    #: (0 = infinitely fast servers; benchmarks use ~1-2 ms so throughput
    #: saturates with the number of partitions as on real hardware).
    service_time: float = 0.0
    #: Virtual CPUs per partition replica: how many executions may overlap
    #: in ``service_time``.  At every count a command that conflicts with
    #: no unfinished command ahead of it may pass one that waits on the
    #: network (a borrow, a return, a node in transit), which holds no
    #: CPU; 1 means one execution at a time, not strict delivery order.
    execution_lanes: int = 1
    latency: Optional[LatencyModel] = None
    oracle_dispatch: bool = False  # base protocol: oracle forwards commands
    #: Independent per-message drop probability (0 = reliable network).
    #: Nonzero loss requires client timeouts to guarantee progress.
    loss_probability: float = 0.0
    #: Default client request timeout (None = disabled); per-client values
    #: can still be passed to :meth:`DynaStarSystem.add_client`.
    client_timeout: Optional[float] = None
    client_backoff: float = 2.0
    client_timeout_cap: Optional[float] = None
    client_max_attempts: int = 100
    #: Seeded, deterministic jitter fraction applied to client retry
    #: backoff delays (0 disables): after a partition crash, hundreds of
    #: clients time out together; jitter de-synchronizes the retry storm.
    client_retry_jitter: float = 0.1
    #: Server-side admission bound (None disables overload protection):
    #: each partition replica refuses client submissions past this many
    #: admitted-but-unanswered commands, replying ``ServerBusy`` instead
    #: of queueing without limit.
    admission_bound: Optional[int] = None
    #: Oracle-side admission bound (None disables).
    oracle_admission_bound: Optional[int] = None
    #: Client token-bucket rate limit in commands/second (None disables).
    client_rate_limit: Optional[float] = None
    #: Client retry budget: initial balance (None disables).
    client_retry_budget: Optional[float] = None
    #: Client circuit breaker: consecutive busy/timeout signals before
    #: tripping (None disables).
    client_breaker_threshold: Optional[int] = None
    #: Mean think time between a client's commands (None = back-to-back
    #: closed loop).  The ``overload_burst`` fault divides it.
    client_think_time: Optional[float] = None
    #: Convenience alias for ``replica.checkpoint_interval``: checkpoint
    #: every N delivered instances per group (0 disables checkpoints and
    #: snapshot transfer; the Paxos logs are bounded either way).
    checkpoint_interval: int = 0
    #: The servers' reliable channel (transfers, returns, aborts, plan
    #: moves): the longest wait between two sends of one envelope, i.e.
    #: its retransmission back-off cap (``repro.core.reliable``).  0 turns
    #: the channel off — bare sends, no ack — for a network that loses
    #: nothing.
    retransmit_period: float = 0.5
    #: Target-partition selection for multi-partition commands
    #: ("most_nodes" is the paper's rule; others exist for ablations).
    target_policy: str = "most_nodes"
    #: Workload-graph weight decay applied after each plan computation
    #: (1.0 = never forget; smaller adapts faster to workload shifts).
    graph_decay: float = 0.5
    #: Record a causal span tree per command (see ``repro.obs``).  Off by
    #: default: the disabled tracer's early-return keeps the overhead
    #: within noise of an untraced run.
    tracing: bool = False
    #: Record the oracle decision audit log (see ``repro.obs.audit``).
    #: Off by default: the shared NULL_AUDIT's ``enabled`` check keeps
    #: the hooks near-zero-cost.
    audit: bool = False
    #: Period (virtual seconds) of the partition-health sampler
    #: (``repro.obs.health``); None disables it entirely — no tick is
    #: ever scheduled.
    health_sample_period: Optional[float] = None
    #: Elastic partition count: let the oracle split overloaded
    #: partitions and merge idle ones at runtime (``dynastar`` mode
    #: only).  Off by default — the fixed-partition behaviour (and its
    #: seeded traces) is unchanged.
    elastic_enabled: bool = False
    #: The split/merge policy ``elastic_enabled`` switches on.
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    #: Stamp client commands with idempotency keys so give-up-and-resubmit
    #: retries (fresh uid) are still recognised by the servers.
    idempotency_keys: bool = False
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)
    #: Compartmentalized replication: proxy-leader ingress, scale-out
    #: read-only learners, and leader-lease local reads.  Disabled by
    #: default — a disabled system creates no stage actors, installs no
    #: submit router, and leaves every seeded trace byte-identical.
    compartment: CompartmentConfig = field(default_factory=CompartmentConfig)


class DynaStarSystem:
    """A complete simulated deployment of DynaStar (or a baseline)."""

    #: The partition-server class; baselines substitute their own.
    server_class = PartitionServer

    def __init__(
        self,
        app: AppStateMachine,
        config: Optional[SystemConfig] = None,
        monitor: Optional[Monitor] = None,
    ):
        self.app = app
        self.config = config or SystemConfig()
        self.monitor = monitor or Monitor()
        cfg = self.config
        if cfg.mode not in ("dynastar", "ssmr", "dssmr"):
            raise ValueError(f"unknown mode {cfg.mode!r}")
        if cfg.execution_lanes < 1:
            raise ValueError("execution_lanes must be >= 1")
        if cfg.hint_period <= 0:
            raise ValueError(f"hint_period must be positive, got {cfg.hint_period!r}")
        if cfg.compartment.enabled and cfg.elastic_enabled:
            # Mid-run provisioned groups would need their own stage
            # actors; that wiring does not exist yet, so fail loudly
            # rather than route submissions to unregistered proxies.
            raise ValueError(
                "compartment.enabled and elastic_enabled are mutually exclusive"
            )

        self.seeds = SeedSequenceFactory(cfg.seed)
        #: One tracer shared by every actor; spans opened on one actor
        #: are closed by another (cross-actor protocol stages).
        self.tracer = Tracer(enabled=cfg.tracing)
        #: One audit log shared by the oracle and partition servers
        #: (replica 0 of each group records — the metrics convention).
        self.audit = AuditLog() if cfg.audit else NULL_AUDIT
        self.sim = Simulator()
        self.net = Network(
            self.sim,
            default_latency=cfg.latency or lan_default(),
            rng=self.seeds.rng("network"),
            loss_probability=cfg.loss_probability,
            monitor=self.monitor,
        )
        self.directory = GroupDirectory(self.net)
        self.partition_names = [f"p{i}" for i in range(cfg.n_partitions)]
        self.oracle_group = "oracle"
        self.clients: list[DynaStarClient] = []
        self._started = False
        self._client_seq = 0

        if cfg.checkpoint_interval:
            cfg.replica.checkpoint_interval = cfg.checkpoint_interval

        # Group shape and server factory are attributes (not locals) so
        # the elasticity controller can provision new groups mid-run with
        # the exact construction path used here.
        self.group_config = GroupConfig(
            n_replicas=cfg.n_replicas,
            n_acceptors=cfg.n_acceptors,
            replica=cfg.replica,
        )
        self.server_factory = self._server_factory()
        for name in self.partition_names:
            self.directory.create_group(
                name,
                config=self.group_config,
                replica_factory=self.server_factory,
                rng=self.seeds.rng(f"group:{name}"),
            )

        if cfg.compartment.enabled:
            for name in self.partition_names:
                self._attach_compartment_stages(name)
            self.directory.submit_router = self._route_submit

        elastic = cfg.elastic if cfg.elastic_enabled and cfg.mode == "dynastar" else None
        self.elastic: Optional[ElasticityController] = (
            ElasticityController(self) if elastic is not None else None
        )

        def oracle_factory(**kwargs):
            kwargs.pop("on_deliver", None)
            kwargs.pop("on_adeliver", None)
            kwargs.setdefault("tracer", self.tracer)
            kwargs.setdefault("audit", self.audit)
            return OracleReplica(
                app=self.app,
                partition_names=self.partition_names,
                monitor=self.monitor,
                mode=cfg.mode,
                repartition_threshold=cfg.repartition_threshold,
                repartition_enabled=cfg.repartition_enabled,
                plan_compute_cost=cfg.plan_compute_cost,
                imbalance=cfg.imbalance,
                target_policy=cfg.target_policy,
                graph_decay=cfg.graph_decay,
                admission_bound=cfg.oracle_admission_bound,
                elastic=elastic,
                on_provision=(
                    self.elastic.provision if self.elastic is not None else None
                ),
                on_retire=(
                    self.elastic.retire if self.elastic is not None else None
                ),
                **kwargs,
            )

        self.directory.create_group(
            self.oracle_group,
            config=self.group_config,
            replica_factory=oracle_factory,
            rng=self.seeds.rng("group:oracle"),
        )

        self.initial_assignment = self._resolve_placement()
        self._preload()

        #: Partition-health sampler; None unless configured — a disabled
        #: system never schedules a tick (zero overhead).
        self.health: Optional[PartitionHealthSampler] = (
            PartitionHealthSampler(self, period=cfg.health_sample_period)
            if cfg.health_sample_period is not None
            else None
        )

    # -- construction helpers ----------------------------------------------

    def _learner_names_of(self, partition: str) -> tuple:
        """Learner actor names of one partition group (deterministic, so
        servers can be handed the names before the actors exist)."""
        cc = self.config.compartment
        if not cc.enabled:
            return ()
        return tuple(f"{partition}/learner{i}" for i in range(cc.n_learners))

    def _attach_compartment_stages(self, partition: str) -> None:
        cfg = self.config
        cc = cfg.compartment
        group = self.directory.groups[partition]
        replicas = tuple(group.replica_names)
        proxies = [
            self.net.register(
                ProxyLeader(
                    f"{partition}/proxy{i}",
                    partition,
                    replicas,
                    batch_delay=cc.proxy_batch_delay,
                    max_batch=cc.proxy_max_batch,
                    monitor=self.monitor,
                )
            )
            for i in range(cc.n_proxy_leaders)
        ]
        learners = [
            self.net.register(
                ReadLearner(
                    f"{partition}/learner{i}",
                    partition,
                    replicas,
                    app=self.app,
                    config=cc,
                    monitor=self.monitor,
                    tracer=self.tracer,
                    service_time=cfg.service_time,
                )
            )
            for i in range(cc.n_learners)
        ]
        group.attach_stages(proxies, learners)

    def _route_submit(self, group_name: str, message) -> Optional[tuple]:
        """Ingress router installed on the group directory: client-facing
        submissions to a staged group go to one proxy leader (picked by
        stable hash of the message uid, so retries under a fresh attempt
        uid re-roll the choice); everything else — oracle traffic,
        protocol payloads without a ``client`` — takes the default
        every-replica fan-out."""
        group = self.directory.groups.get(group_name)
        if group is None or not group.proxies:
            return None
        if getattr(message.payload, "client", None) is None:
            return None
        proxies = group.proxy_names
        return (proxies[stable_hash(message.uid) % len(proxies)],)

    def _server_factory(self):
        """Builds one replica of ``server_class``; the one construction
        path of DynaStar and the baselines, pre-start and mid-run."""
        cfg = self.config

        def factory(**kwargs):
            kwargs.pop("on_deliver", None)
            kwargs.pop("on_adeliver", None)
            kwargs.setdefault("tracer", self.tracer)
            kwargs.setdefault("audit", self.audit)
            return self.server_class(
                app=self.app,
                monitor=self.monitor,
                oracle_group=self.oracle_group,
                hint_period=cfg.hint_period,
                service_time=cfg.service_time,
                lanes=cfg.execution_lanes,
                retransmit_period=cfg.retransmit_period,
                admission_bound=cfg.admission_bound,
                compartment=cfg.compartment if cfg.compartment.enabled else None,
                learner_names=self._learner_names_of(kwargs["group"]),
                **kwargs,
            )

        return factory

    def _resolve_placement(self) -> dict:
        """node -> partition-name map for the initial state."""
        cfg = self.config
        variables = self.app.initial_variables()
        nodes = sorted({self.app.graph_node_of(v) for v in variables}, key=repr)
        if isinstance(cfg.placement, Partitioning):
            raw = cfg.placement.assignment
        elif isinstance(cfg.placement, dict):
            raw = cfg.placement
        elif cfg.placement == "random":
            rng = self.seeds.rng("placement")
            raw = {n: rng.randrange(cfg.n_partitions) for n in nodes}
        elif cfg.placement == "hash":
            raw = {n: stable_hash(n) % cfg.n_partitions for n in nodes}
        else:
            raise ValueError(f"unknown placement {cfg.placement!r}")
        assignment = {}
        for node in nodes:
            part = raw.get(node, 0)
            if isinstance(part, int):
                part = self.partition_names[part % cfg.n_partitions]
            assignment[node] = part
        return assignment

    def _preload(self) -> None:
        variables = self.app.initial_variables()
        per_partition: dict[str, dict] = {p: {} for p in self.partition_names}
        per_partition_nodes: dict[str, set] = {p: set() for p in self.partition_names}
        for var, value in variables.items():
            node = self.app.graph_node_of(var)
            partition = self.initial_assignment[node]
            per_partition[partition][var] = value
            per_partition_nodes[partition].add(node)
        # Nodes can exist with zero initial variables only via create;
        # ensure every assigned node is owned somewhere.
        for node, partition in self.initial_assignment.items():
            per_partition_nodes[partition].add(node)

        for partition in self.partition_names:
            for replica in self.directory.groups[partition].replicas:
                replica.preload(
                    per_partition[partition],
                    per_partition_nodes[partition],
                    dict(self.initial_assignment),
                )
        for replica in self.directory.groups[self.oracle_group].replicas:
            replica.preload_locations(self.initial_assignment)

    # -- clients -------------------------------------------------------------

    def add_client(
        self,
        workload: Workload,
        name: Optional[str] = None,
        use_cache: bool = True,
        history: Optional[History] = None,
        stop_at: Optional[float] = None,
        request_timeout: Optional[float] = None,
        max_attempts: Optional[int] = None,
    ) -> DynaStarClient:
        cfg = self.config
        if name is None:
            name = f"client{self._client_seq}"
            self._client_seq += 1
        client = DynaStarClient(
            name=name,
            app=self.app,
            directory=self.directory,
            workload=workload,
            oracle_group=self.oracle_group,
            monitor=self.monitor,
            use_cache=use_cache,
            dispatch_via_oracle=cfg.oracle_dispatch,
            history=history,
            stop_at=stop_at,
            target_policy=cfg.target_policy,
            max_attempts=(
                max_attempts if max_attempts is not None else cfg.client_max_attempts
            ),
            request_timeout=(
                request_timeout if request_timeout is not None else cfg.client_timeout
            ),
            backoff_factor=cfg.client_backoff,
            max_timeout=cfg.client_timeout_cap,
            retry_jitter=cfg.client_retry_jitter,
            rate_limit=cfg.client_rate_limit,
            retry_budget=cfg.client_retry_budget,
            breaker_threshold=cfg.client_breaker_threshold,
            think_time=cfg.client_think_time,
            idempotency_keys=cfg.idempotency_keys,
            learners_of=(
                self._learner_names_of
                if cfg.compartment.enabled and cfg.compartment.lease_enabled
                else None
            ),
            rng=self.seeds.rng(f"client:{name}"),
            tracer=self.tracer,
        )
        self.net.register(client)
        self.clients.append(client)
        return client

    # -- running --------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.directory.start()
        if self.health is not None:
            self.health.start()
        for i, client in enumerate(self.clients):
            # Tiny stagger so a thousand clients do not fire in one event.
            self.sim.schedule(1e-6 * i, client.start)

    def run(self, until: float) -> None:
        self.start()
        self.sim.run(until=until)

    @property
    def started(self) -> bool:
        """Whether :meth:`start` ran (mid-run provisioned groups must be
        started explicitly; pre-start ones ride ``directory.start``)."""
        return self._started

    # -- introspection -----------------------------------------------------------

    def partition_group(self, name_or_index):
        if isinstance(name_or_index, int):
            name_or_index = self.partition_names[name_or_index]
        return self.directory.groups[name_or_index]

    def oracle_replicas(self) -> list[OracleReplica]:
        return self.directory.groups[self.oracle_group].replicas

    def servers(self, partition) -> list[PartitionServer]:
        return self.partition_group(partition).replicas

    def all_store_variables(self) -> dict:
        """Union of every partition's variables (read from the first live
        replica of each); raises if a variable is owned by two partitions."""
        merged: dict = {}
        for partition in self.partition_names:
            server = next(
                (s for s in self.servers(partition) if not s.crashed), None
            )
            if server is None:
                continue
            for var, value in server.store.items():
                if var in merged:
                    raise AssertionError(
                        f"variable {var!r} present in two partitions"
                    )
                merged[var] = value
        return merged

    def total_completed(self) -> int:
        return sum(c.completed for c in self.clients)

    def total_failed(self) -> int:
        return sum(c.failed for c in self.clients)
