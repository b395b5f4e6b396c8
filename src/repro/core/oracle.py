"""The DynaStar location oracle.

The oracle is an ordinary replicated partition (§4.1): every request
reaches it through the atomic multicast, so all replicas process the same
sequence of queries, hints, and plans, and their location map, workload
graph and version counters never diverge.

Three responsibilities:

* **Prophecies** — answer "where do the variables of command C live and
  which partition should execute it" (Task 1, Algorithm 2).  The target
  partition is the one holding most of the command's nodes, ties broken
  deterministically.
* **Workload graph** — ingest :class:`ExecutionHint` batches from the
  partitions; vertices accumulate access counts (vertex weight), edges
  accumulate co-access counts (edge weight).
* **Repartitioning** — once enough changes accumulate, run the multilevel
  partitioner (Task 4) and multicast the versioned plan to every
  partition and to itself; its own location map switches when the plan is
  a-delivered (Task 5), which is the §5.2 plan-id ordering trick.

Modes: ``dynastar`` (the full system), ``ssmr`` (static map, never
repartitions), ``dssmr`` (no workload graph; every multi-partition
prophecy permanently migrates the involved nodes to the target — the
naive DS-SMR policy the paper improves upon).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from repro.consensus.messages import Submit
from repro.core.admission import IngressGate
from repro.core.messages import (
    CreateVar,
    DeleteVar,
    DrainComplete,
    ExecCommand,
    ExecutionHint,
    GlobalCommand,
    OracleQuery,
    PartitionPlan,
    PlanTransfer,
    Prophecy,
    ProphecyStatus,
    ReconfigPlan,
)
from repro.elastic.policy import (
    ElasticConfig,
    apply_reconfig,
    decide_reconfig,
    split_assignment,
)
from repro.multicast.basecast import MulticastReplica
from repro.multicast.messages import MulticastMessage, OrderEvent
from repro.obs import audit as audit_mod
from repro.obs.audit import NULL_AUDIT, AuditLog
from repro.partitioning import WorkloadGraph, partition_graph
from repro.partitioning.quality import edge_cut as quality_edge_cut
from repro.partitioning.quality import imbalance_by_label
from repro.sim.monitor import Monitor
from repro.sim.randomness import stable_hash
from repro.smr.command import Command, CommandKind
from repro.smr.statemachine import AppStateMachine


#: ``SystemConfig.target_policy`` values (see :func:`choose_target`).
TARGET_POLICIES = ("most_nodes", "first", "hash", "spread")


def choose_target(policy: str, locations: tuple, uid: str = "", attempt: int = 0) -> str:
    """The partition that executes a multi-partition command — the one
    rule of the oracle's prophecies and of a client dispatching from its
    cache, so the two never name different targets for one command.

    Default (``most_nodes``, the paper's rule): the partition holding
    most of the command's nodes, ties broken by name — minimizing the
    number of relocated variables.  ``spread`` keeps the most-nodes
    rule but breaks ties with a seeded hash of ``(uid, attempt)``, so
    retried and read-heavy queries fan out across the tied partitions
    instead of always landing on the lexicographically first one —
    deterministic (every replica computes the same target for the
    same query) yet balanced across commands.  ``first`` / ``hash``
    are weaker deterministic policies kept for the ablation
    benchmark.
    """
    involved = sorted({p for _, p in locations})
    if policy == "first":
        return involved[0]
    if policy == "hash":
        return involved[stable_hash(tuple(locations)) % len(involved)]
    counts = Counter(p for _, p in locations)
    top = max(counts.values())
    candidates = sorted(p for p, c in counts.items() if c == top)
    if policy == "spread" and len(candidates) > 1:
        return candidates[stable_hash((uid, attempt)) % len(candidates)]
    return candidates[0]


class OracleReplica(MulticastReplica):
    """One replica of the oracle partition."""

    def __init__(
        self,
        *args,
        app: Optional[AppStateMachine] = None,
        partition_names: Optional[list[str]] = None,
        monitor: Optional[Monitor] = None,
        mode: str = "dynastar",
        repartition_threshold: int = 2000,
        repartition_enabled: bool = True,
        plan_compute_cost: float = 1e-6,
        imbalance: float = 0.20,
        target_policy: str = "most_nodes",
        graph_decay: float = 0.5,
        admission_bound: Optional[int] = None,
        admission_headroom: Optional[int] = None,
        admission_retry_after: float = 0.05,
        audit: Optional[AuditLog] = None,
        elastic: Optional[ElasticConfig] = None,
        on_provision=None,
        on_retire=None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if target_policy not in TARGET_POLICIES:
            raise ValueError(f"unknown target policy {target_policy!r}")
        if not 0.0 <= graph_decay <= 1.0:
            raise ValueError("graph_decay must be in [0, 1]")
        self.target_policy = target_policy
        #: Weight multiplier applied to the workload graph after each plan
        #: computation: 1.0 never forgets, smaller values favour recent
        #: access patterns (important for adapting to workload shifts).
        self.graph_decay = graph_decay
        self.app = app
        self.partition_names = sorted(partition_names or [])
        self.monitor = monitor or Monitor()
        self.mode = mode
        self.repartition_threshold = repartition_threshold
        self.repartition_enabled = repartition_enabled and mode == "dynastar"
        self.plan_compute_cost = plan_compute_cost
        self.imbalance = imbalance
        #: Decision audit log (shared across replicas; replica 0 records,
        #: same convention as metrics).  NULL_AUDIT costs one attribute
        #: read per decision when auditing is off.
        self.audit = audit if audit is not None else NULL_AUDIT
        #: Ingress admission for client queries (``admission`` is None
        #: when disabled).  A repartition-storming oracle sheds plain
        #: lookups first; create/delete traffic gets the priority
        #: headroom, and replays answer from the exactly-once cache.
        self.ingress = IngressGate(
            self,
            (OracleQuery,),
            lambda query: query.command.uid in self._done_creates
            or query.command.uid in self._done_deletes,
            lambda query: query.command.kind != CommandKind.ACCESS,
            admission_bound,
            admission_headroom,
            admission_retry_after,
        )
        self.admission = self.ingress.controller

        self.location: dict[Any, str] = {}
        self.graph = WorkloadGraph()
        self.version = 0
        self.changes = 0
        self.plan_inflight = False
        self.plans_issued = 0

        #: Elastic split/merge policy (None disables elasticity) and the
        #: system-side hooks that provision/retire groups.  Every elastic
        #: input below is log-driven, so both replicas decide identically.
        self.elastic = elastic if mode == "dynastar" else None
        self.on_provision = on_provision
        self.on_retire = on_retire
        self.reconfig_epoch = 0
        self.reconfig_inflight = False
        self.reconfigs_done = 0
        #: Accesses observed since the last policy evaluation, and the
        #: per-partition window weights they came from.
        self.elastic_accesses = 0
        self.elastic_window: Counter = Counter()
        #: Accesses still to observe before the next reconfig may fire.
        self.elastic_cooldown_left = 0
        #: Reconfig computed but not yet multicast (publish-timer crash
        #: window) — republished on recovery, mirroring ``_pending_plan``.
        self._pending_reconfig: Optional[ReconfigPlan] = None
        #: The reconfig whose cutover/drain is still in progress:
        #: {"epoch", "kind", "source", "target", "cutover_version",
        #:  "decided_at"} — drives completion matching and audit.
        self._active_reconfig: Optional[dict] = None

        # Exactly-once for create/delete under client retries: remember
        # what each command did (recorded at query-handling time, i.e. at
        # a consistent log position on every replica) so a repeated query
        # replays the outcome instead of answering NOK "exists"/"missing".
        self._done_creates: dict[str, tuple] = {}
        self._done_deletes: dict[str, tuple] = {}
        # Client idempotency keys: a give-up-and-resubmit arrives under a
        # *fresh* command uid, so the uid-keyed caches above miss.  The
        # key -> original-uid maps bridge that gap (same log-position
        # determinism as the caches they index into).
        self._idem_creates: dict[str, str] = {}
        self._idem_deletes: dict[str, str] = {}
        #: Plan computed but whose publish timer had not fired yet —
        #: republished after a crash so repartitioning cannot wedge.
        self._pending_plan: Optional[PartitionPlan] = None

    @property
    def _records_metrics(self) -> bool:
        """Only replica 0 writes shared metrics, or counts double."""
        return self.index == 0

    # -- bootstrap ---------------------------------------------------------

    def preload_locations(self, assignment: dict) -> None:
        """Install the initial node -> partition map (system builder)."""
        self.location.update(assignment)
        for node in assignment:
            self.graph.ensure_vertex(node)

    # -- ingress admission control ----------------------------------------------

    def on_message(self, sender: str, message: Any) -> None:
        if (
            isinstance(message, Submit)
            and isinstance(message.value, OrderEvent)
            and not self.ingress.admit(sender, message.value.message)
        ):
            return
        super().on_message(sender, message)

    # -- a-delivery dispatch ---------------------------------------------------

    def adeliver(self, msg: MulticastMessage) -> None:
        payload = msg.payload
        if isinstance(payload, OracleQuery):
            self._on_query(payload)
        elif isinstance(payload, CreateVar):
            self._on_create(payload)
        elif isinstance(payload, DeleteVar):
            self._on_delete(payload)
        elif isinstance(payload, ExecutionHint):
            self._on_hint(payload)
        elif isinstance(payload, PartitionPlan):
            self._on_plan(payload)
        elif isinstance(payload, ReconfigPlan):
            self._on_reconfig_plan(payload)
        elif isinstance(payload, DrainComplete):
            self._on_drain_complete(payload)

    # -- prophecies --------------------------------------------------------------

    def _on_query(self, query: OracleQuery) -> None:
        if self.admission is not None:
            # Answered at this log position (whatever the outcome); the
            # slot frees for the next query.
            self.admission.release(query.command.uid)
        if self._records_metrics:
            self.monitor.series("oracle_queries").record(self.now)
            self.monitor.counter("oracle_queries_total").inc()
            if self.tracer.enabled:
                self.tracer.event_on(
                    query.command.uid, "oracle-lookup", query.attempt,
                    "oracle-processed", self.now, oracle=self.name,
                )
        command = query.command
        if command.kind == CommandKind.CREATE:
            self._handle_create_query(query)
        elif command.kind == CommandKind.DELETE:
            self._handle_delete_query(query)
        else:
            self._handle_access_query(query)

    def _handle_create_query(self, query: OracleQuery) -> None:
        command = query.command
        done = self._done_creates.get(command.uid)
        if done is None and command.idem_key is not None:
            original = self._idem_creates.get(command.idem_key)
            if original is not None:
                done = self._done_creates.get(original)
        if done is not None:
            # Retried create: replay with an attempt-qualified multicast
            # uid so the CreateVar reaches the partition again (which
            # answers from its client table), instead of NOK "exists".
            var, node, partition = done
            payload = CreateVar(
                command, var, node, partition, query.client, query.attempt, query.seq
            )
            self._amcast_ordered(
                [self.group, partition],
                payload,
                uid=f"create:{command.uid}:a{query.attempt}",
            )
            self._prophesize(
                query,
                ProphecyStatus.OK,
                locations=((node, partition),),
                target=partition,
            )
            return
        # The app names the variable (Chirper's user 7 is ("user", 7)).
        (var,) = self.app.variables_of(command)
        node = self.app.graph_node_of(var)
        if node in self.location:
            self._prophesize(query, ProphecyStatus.NOK, reason="exists")
            return
        partition = self.partition_names[
            stable_hash(node) % len(self.partition_names)
        ]
        self._done_creates[command.uid] = (var, node, partition)
        if command.idem_key is not None:
            self._idem_creates[command.idem_key] = command.uid
        payload = CreateVar(
            command, var, node, partition, query.client, query.attempt, query.seq
        )
        self._amcast_ordered(
            [self.group, partition], payload, uid=f"create:{command.uid}"
        )
        self._prophesize(
            query,
            ProphecyStatus.OK,
            locations=((node, partition),),
            target=partition,
        )

    def _handle_delete_query(self, query: OracleQuery) -> None:
        command = query.command
        done = self._done_deletes.get(command.uid)
        if done is None and command.idem_key is not None:
            original = self._idem_deletes.get(command.idem_key)
            if original is not None:
                done = self._done_deletes.get(original)
        if done is not None:
            var, node, partition = done
            payload = DeleteVar(
                command, var, node, partition, query.client, query.attempt, query.seq
            )
            self._amcast_ordered(
                [self.group, partition],
                payload,
                uid=f"delete:{command.uid}:a{query.attempt}",
            )
            self._prophesize(
                query,
                ProphecyStatus.OK,
                locations=((node, partition),),
                target=partition,
            )
            return
        (var,) = self.app.variables_of(command)
        node = self.app.graph_node_of(var)
        partition = self.location.get(node)
        if partition is None:
            self._prophesize(query, ProphecyStatus.NOK, reason="missing")
            return
        self._done_deletes[command.uid] = (var, node, partition)
        if command.idem_key is not None:
            self._idem_deletes[command.idem_key] = command.uid
        payload = DeleteVar(
            command, var, node, partition, query.client, query.attempt, query.seq
        )
        self._amcast_ordered(
            [self.group, partition], payload, uid=f"delete:{command.uid}"
        )
        self._prophesize(
            query,
            ProphecyStatus.OK,
            locations=((node, partition),),
            target=partition,
        )

    def _handle_access_query(self, query: OracleQuery) -> None:
        command = query.command
        nodes = sorted(self.app.nodes_of(command), key=repr)
        missing = [n for n in nodes if n not in self.location]
        if missing:
            self._prophesize(query, ProphecyStatus.NOK, reason="missing")
            return
        locations = tuple((n, self.location[n]) for n in nodes)
        target = choose_target(
            self.target_policy, locations, command.uid, query.attempt
        )
        if self.mode == "dssmr" and len({p for _, p in locations}) > 1:
            # DS-SMR: the move is permanent; the map changes right away.
            for node, _ in locations:
                self.location[node] = target
            if self._records_metrics:
                self.monitor.counter("dssmr_migrations").inc()
        self._prophesize(
            query, ProphecyStatus.OK, locations=locations, target=target
        )
        if query.dispatch:
            self._dispatch(query, locations, target)

    def _dispatch(self, query: OracleQuery, locations: tuple, target: str) -> None:
        """Base-protocol mode: the oracle forwards the command itself."""
        involved = sorted({p for _, p in locations})
        uid = f"dispatch:{query.command.uid}:a{query.attempt}"
        if len(involved) == 1:
            payload = ExecCommand(
                query.command, query.client, query.attempt, query.seq
            )
        else:
            payload = GlobalCommand(
                query.command, query.client, query.attempt, target, locations,
                query.seq,
            )
        self._amcast_ordered(involved, payload, uid=uid)

    def _prophesize(
        self,
        query: OracleQuery,
        status: ProphecyStatus,
        locations: tuple = (),
        target: Optional[str] = None,
        reason: str = "",
    ) -> None:
        prophecy = Prophecy(
            uid=query.command.uid,
            attempt=query.attempt,
            status=status,
            locations=locations,
            target=target,
            version=self.version,
            reason=reason,
        )
        self.send(query.client, prophecy)

    # -- create / delete application (Task 2) ----------------------------------------

    def _on_create(self, payload: CreateVar) -> None:
        self.location[payload.node] = payload.partition
        self.graph.ensure_vertex(payload.node)

    def _on_delete(self, payload: DeleteVar) -> None:
        self.location.pop(payload.node, None)
        if payload.node in self.graph:
            self.graph.remove_vertex(payload.node)

    # -- workload graph & repartitioning (Tasks 4 and 5) ------------------------------

    def _on_hint(self, hint: ExecutionHint) -> None:
        if self.mode != "dynastar":
            return
        accesses = 0
        for node, weight in hint.vertices:
            if node in self.location:
                self.graph.add_vertex(node, weight)
                accesses += weight
                if self.elastic is not None:
                    self.elastic_window[self.location[node]] += weight
        for u, v, weight in hint.edges:
            if u in self.location and v in self.location:
                self.graph.add_edge(u, v, weight)
        # "changes" counts observed node-accesses, so the threshold reads
        # as "repartition every N accesses".
        self.changes += accesses
        if self.elastic is not None and accesses:
            self.elastic_accesses += accesses
            if self.elastic_cooldown_left > 0:
                self.elastic_cooldown_left = max(
                    0, self.elastic_cooldown_left - accesses
                )
            self._maybe_reconfigure()
        self._maybe_repartition()

    def _maybe_repartition(self) -> None:
        # The trigger must depend only on log-driven state (changes,
        # plan_inflight) — never on local clocks — or the two oracle
        # replicas could compute *different* plans under the same uid.
        if (
            not self.repartition_enabled
            or self.plan_inflight
            or self.reconfig_inflight
            or self.changes < self.repartition_threshold
        ):
            return
        self.request_repartition(trigger="threshold")

    def request_repartition(self, trigger: str = "explicit") -> None:
        """Compute a new plan and multicast it after a virtual delay
        modelling the partitioner's computation time.

        All replicas compute the identical plan (the inputs come from the
        shared log and the partitioner is seeded by the plan version), and
        the multicast uid is derived from the version, so the plan enters
        every log exactly once no matter how many replicas send it.
        """
        if self.plan_inflight or self.reconfig_inflight or not self.partition_names:
            return
        self.plan_inflight = True
        audited = self.audit.enabled and self._records_metrics
        inputs = (
            {
                "trigger_changes": self.changes,
                "threshold": self.repartition_threshold,
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "vertex_weight": self.graph.total_vertex_weight,
                "edge_weight": self.graph.total_edge_weight,
                "decay": self.graph_decay,
            }
            if audited
            else None
        )
        self.changes = 0
        new_version = self.version + 1

        result = partition_graph(
            self.graph,
            len(self.partition_names),
            imbalance=self.imbalance,
            seed=new_version,
            restarts=3,
        )
        # Decay history so the NEXT plan is dominated by accesses observed
        # from now on (runs at the same log position on every replica).
        if self.graph_decay < 1.0:
            self.graph.scale_weights(self.graph_decay)
        assignment = self._align_plan_labels(result.assignment)
        # Nodes known to the map but absent from the graph keep their home.
        for node, partition in self.location.items():
            assignment.setdefault(node, partition)

        # Hysteresis: never publish a plan that does not beat the edge-cut
        # of the assignment the system is already running (the partitioner
        # is randomized; on small graphs a restart can still lose to a
        # converged incumbent).  Skipping is deterministic: every replica
        # evaluates the same graph and maps at the same log position.
        new_cut = quality_edge_cut(self.graph, assignment)
        current_cut = quality_edge_cut(self.graph, self.location)
        suppressed = new_cut >= current_cut * 0.98 and self.version > 0
        if audited:
            self.audit.decision(
                t=self.now,
                version=new_version,
                trigger=trigger,
                published=not suppressed,
                inputs=inputs,
                outputs=self._decision_outputs(assignment, current_cut, new_cut),
            )
        if suppressed:
            self.plan_inflight = False
            return

        plan = PartitionPlan(new_version, tuple(sorted(assignment.items(), key=lambda kv: repr(kv[0]))))
        self._pending_plan = plan
        delay = self.plan_compute_cost * max(1, self.graph.num_vertices)
        self.set_timer(delay, lambda: self._publish_plan(plan))

    def _decision_outputs(
        self, assignment: dict, current_cut: float, new_cut: float
    ) -> dict:
        """Audit-only plan summary: cut/imbalance before vs after, which
        partitions gain/lose nodes, and the heaviest moved vertices.
        Runs only when auditing is enabled (off the default path)."""
        k = len(self.partition_names)
        moved = [
            (node, target)
            for node, target in assignment.items()
            if self.location.get(node) not in (None, target)
        ]
        delta: dict[str, dict] = {
            name: {"gained": 0, "lost": 0} for name in self.partition_names
        }
        for node, target in moved:
            source = self.location[node]
            if source in delta:
                delta[source]["lost"] += 1
            if target in delta:
                delta[target]["gained"] += 1
        moved_top = sorted(
            (
                (node, self.graph.vertex_weight(node) if node in self.graph else 0.0)
                for node, _ in moved
            ),
            key=lambda pair: (-pair[1], repr(pair[0])),
        )[:10]
        return {
            "edge_cut_before": current_cut,
            "edge_cut_after": new_cut,
            "imbalance_before": imbalance_by_label(self.graph, self.location, k),
            "imbalance_after": imbalance_by_label(self.graph, assignment, k),
            "vertices_moved": len(moved),
            "moved_top": moved_top,
            "partition_delta": delta,
        }

    def _align_plan_labels(self, raw: dict) -> dict:
        """Map the partitioner's arbitrary part indices onto partition
        names so that as few nodes as possible change home — the paper's
        "minimizes the number of state relocations".  Greedy maximum-
        overlap matching between new parts and current partitions."""
        overlap: dict[int, Counter] = {}
        for node, idx in raw.items():
            current = self.location.get(node)
            if current is not None:
                overlap.setdefault(idx, Counter())[current] += 1
        candidates = []
        for idx, counts in overlap.items():
            for name, count in counts.items():
                candidates.append((count, idx, name))
        candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
        idx_to_name: dict[int, str] = {}
        used: set[str] = set()
        for count, idx, name in candidates:
            if idx in idx_to_name or name in used:
                continue
            idx_to_name[idx] = name
            used.add(name)
        spare = [n for n in self.partition_names if n not in used]
        for idx in range(len(self.partition_names)):
            if idx not in idx_to_name:
                idx_to_name[idx] = spare.pop(0)
        return {node: idx_to_name[idx] for node, idx in raw.items()}

    def _publish_plan(self, plan: PartitionPlan) -> None:
        if self.audit.enabled and self._records_metrics:
            self.audit.record(
                audit_mod.PUBLISHED, self.now,
                version=plan.version, assignments=len(plan.assignment),
            )
        # Retiring partitions already left partition_names (future plans
        # exclude them) but the cutover itself must still reach them.
        dests = [self.group] + self.partition_names
        dests += [p for p in plan.retiring if p not in dests]
        self._amcast_ordered(dests, plan, f"plan:{plan.version}", numbered=False)

    def _on_plan(self, plan: PartitionPlan) -> None:
        if plan.version <= self.version:
            return
        self.version = plan.version
        self.location.update(plan.as_dict())
        self.plan_inflight = False
        self.plans_issued += 1
        if self._pending_plan is not None and self._pending_plan.version <= plan.version:
            self._pending_plan = None
        if self._records_metrics:
            self.monitor.counter("plans_applied").inc()
            self.monitor.series("plans").record(self.now)
            if self.audit.enabled:
                self.audit.record(
                    audit_mod.APPLIED, self.now,
                    version=plan.version, actor="oracle",
                )
        active = self._active_reconfig
        if active is not None and plan.version == active["cutover_version"]:
            self._on_cutover_applied(active)

    # -- elastic reconfiguration (split / merge) ---------------------------------------

    def _maybe_reconfigure(self) -> None:
        """Log-driven split/merge trigger: evaluated every
        ``eval_interval`` observed accesses over the window weights —
        never on local clocks, for the same reason as the repartition
        trigger."""
        cfg = self.elastic
        if (
            cfg is None
            or self.reconfig_inflight
            or self.plan_inflight
            or self.elastic_cooldown_left > 0
            or self.elastic_accesses < cfg.eval_interval
        ):
            return
        window = dict(self.elastic_window)
        self.elastic_accesses = 0
        self.elastic_window.clear()
        node_counts: Counter = Counter(self.location.values())
        decision = decide_reconfig(
            window, node_counts, self.partition_names, cfg
        )
        if decision is None:
            return
        self._request_reconfig(decision, window)

    def _request_reconfig(self, decision, window: dict) -> None:
        """Phase 1: turn a policy verdict into an epoch-tagged
        :class:`ReconfigPlan` and multicast it through the oracle's own
        log after the modeled compute delay.  Both replicas compute the
        identical plan at the same log position and the uid is derived
        from the epoch, so it enters the log exactly once."""
        epoch = self.reconfig_epoch + 1
        if decision.kind == "split":
            moved = split_assignment(
                self.graph,
                self.location,
                decision.source,
                seed=epoch,
                imbalance=self.imbalance,
            )
            if not moved:
                return
            plan = ReconfigPlan(
                epoch=epoch,
                kind="split",
                source=decision.source,
                target=f"e{epoch}",
                moved=moved,
            )
        else:
            plan = ReconfigPlan(
                epoch=epoch,
                kind="merge",
                source=decision.source,
                target=decision.target,
            )
        self.reconfig_inflight = True
        self.elastic_cooldown_left = self.elastic.cooldown
        if self.audit.enabled and self._records_metrics:
            self.audit.record(
                audit_mod.RECONFIG_DECISION, self.now,
                epoch=epoch, op=plan.kind,
                source=plan.source, target=plan.target,
                moved=len(plan.moved),
                window=dict(sorted(window.items())),
                partitions=len(self.partition_names),
            )
        self._pending_reconfig = plan
        delay = self.plan_compute_cost * max(1, self.graph.num_vertices)
        self.set_timer(delay, lambda: self._publish_reconfig(plan))

    def _publish_reconfig(self, plan: ReconfigPlan) -> None:
        self._amcast_ordered(
            [self.group], plan, f"reconfig:{plan.epoch}", numbered=False
        )

    def _on_reconfig_plan(self, plan: ReconfigPlan) -> None:
        """Phase 1 commit + phase 2 kickoff, at one oracle log position.

        Epoch guard makes redelivery (recovered replica replaying its
        log) a no-op.  The topology change, the provision hook, and the
        cutover-plan publish happen in this single a-delivery so there is
        no observable state between them; crash safety comes from the
        pending-plan republish (cutover) and the retiring servers' drain
        announcements (merge completion)."""
        if plan.epoch <= self.reconfig_epoch:
            return
        self.reconfig_epoch = plan.epoch
        self.reconfig_inflight = True
        if (
            self._pending_reconfig is not None
            and self._pending_reconfig.epoch <= plan.epoch
        ):
            self._pending_reconfig = None

        if plan.kind == "split":
            if plan.target not in self.partition_names:
                self.partition_names.append(plan.target)
                self.partition_names.sort()
            if self.on_provision is not None:
                self.on_provision(plan.target)
            if self.audit.enabled and self._records_metrics:
                self.audit.record(
                    audit_mod.RECONFIG_PROVISION, self.now,
                    epoch=plan.epoch, partition=plan.target,
                    source=plan.source,
                )
        else:
            if plan.source in self.partition_names:
                self.partition_names.remove(plan.source)

        assignment = apply_reconfig(self.location, plan)
        cutover = PartitionPlan(
            self.version + 1,
            tuple(sorted(assignment.items(), key=lambda kv: repr(kv[0]))),
            retiring=(plan.source,) if plan.kind == "merge" else (),
        )
        self._active_reconfig = {
            "epoch": plan.epoch,
            "kind": plan.kind,
            "source": plan.source,
            "target": plan.target,
            "cutover_version": cutover.version,
            "decided_at": self.now,
        }
        self.plan_inflight = True
        self._pending_plan = cutover
        self._publish_plan(cutover)

    def _on_cutover_applied(self, active: dict) -> None:
        """The cutover plan is a-delivered everywhere it matters (it
        shares the totally ordered plan path).  A split completes here;
        a merge stays active until the retiring group drains."""
        if self.audit.enabled and self._records_metrics:
            self.audit.record(
                audit_mod.RECONFIG_CUTOVER, self.now,
                epoch=active["epoch"], op=active["kind"],
                version=active["cutover_version"],
                source=active["source"], target=active["target"],
            )
        if active["kind"] == "split":
            self._complete_reconfig()

    def _on_drain_complete(self, done: DrainComplete) -> None:
        active = self._active_reconfig
        if (
            active is None
            or active["kind"] != "merge"
            or done.partition != active["source"]
        ):
            return  # duplicate or stale announcement
        if self.audit.enabled and self._records_metrics:
            self.audit.record(
                audit_mod.RECONFIG_RETIRED, self.now,
                epoch=active["epoch"], partition=done.partition,
                version=done.version, target=active["target"],
            )
        if self.on_retire is not None:
            self.on_retire(done.partition)
        self._complete_reconfig()

    def _complete_reconfig(self) -> None:
        self._active_reconfig = None
        self.reconfig_inflight = False
        self.reconfigs_done += 1
        if self._records_metrics:
            self.monitor.counter("reconfigs_applied").inc()

    def on_recover(self) -> None:
        super().on_recover()
        # A plan computed before the crash whose publish timer never fired
        # would leave plan_inflight stuck forever; republish it (the
        # version-derived multicast uid deduplicates against any copy the
        # other replica already published).
        pending = self._pending_plan
        if pending is not None and pending.version > self.version:
            self.set_timer(
                self.plan_compute_cost, lambda: self._publish_plan(pending)
            )
        self._republish_pending_reconfig()

    def _republish_pending_reconfig(self) -> None:
        """Liveness guard mirroring the pending-plan republish: a
        reconfig decided before a crash whose publish timer never fired
        would leave ``reconfig_inflight`` wedged.  The epoch-derived uid
        deduplicates against any copy already in the log."""
        pending = self._pending_reconfig
        if pending is not None and pending.epoch > self.reconfig_epoch:
            self.set_timer(
                self.plan_compute_cost,
                lambda: self._publish_reconfig(pending),
            )

    # -- checkpointing ---------------------------------------------------------------------

    def capture_app_state(self) -> dict:
        state = super().capture_app_state()
        state["oracle.location"] = dict(self.location)
        state["oracle.state"] = {
            "graph": self.graph.copy(),
            "version": self.version,
            "changes": self.changes,
            "plan_inflight": self.plan_inflight,
            "plans_issued": self.plans_issued,
            "done_creates": sorted(self._done_creates.items()),
            "done_deletes": sorted(self._done_deletes.items()),
            "idem_creates": sorted(self._idem_creates.items()),
            "idem_deletes": sorted(self._idem_deletes.items()),
            "pending_plan": self._pending_plan,
            "partition_names": list(self.partition_names),
            "reconfig_epoch": self.reconfig_epoch,
            "reconfig_inflight": self.reconfig_inflight,
            "reconfigs_done": self.reconfigs_done,
            "elastic_accesses": self.elastic_accesses,
            "elastic_window": sorted(self.elastic_window.items()),
            "elastic_cooldown_left": self.elastic_cooldown_left,
            "pending_reconfig": self._pending_reconfig,
            "active_reconfig": (
                dict(self._active_reconfig)
                if self._active_reconfig is not None
                else None
            ),
        }
        return state

    def install_app_state(self, sections: dict) -> None:
        super().install_app_state(sections)
        self.location = dict(sections.get("oracle.location", {}))
        state = sections.get("oracle.state", {})
        graph = state.get("graph")
        self.graph = graph.copy() if graph is not None else WorkloadGraph()
        self.version = state.get("version", 0)
        self.changes = state.get("changes", 0)
        self.plan_inflight = state.get("plan_inflight", False)
        self.plans_issued = state.get("plans_issued", 0)
        self._done_creates = dict(state.get("done_creates", ()))
        self._done_deletes = dict(state.get("done_deletes", ()))
        self._idem_creates = dict(state.get("idem_creates", ()))
        self._idem_deletes = dict(state.get("idem_deletes", ()))
        self._pending_plan = state.get("pending_plan")
        self.partition_names = list(
            state.get("partition_names", self.partition_names)
        )
        self.reconfig_epoch = state.get("reconfig_epoch", 0)
        self.reconfig_inflight = state.get("reconfig_inflight", False)
        self.reconfigs_done = state.get("reconfigs_done", 0)
        self.elastic_accesses = state.get("elastic_accesses", 0)
        self.elastic_window = Counter(dict(state.get("elastic_window", ())))
        self.elastic_cooldown_left = state.get("elastic_cooldown_left", 0)
        self._pending_reconfig = state.get("pending_reconfig")
        active = state.get("active_reconfig")
        self._active_reconfig = dict(active) if active is not None else None
        # A checkpoint can describe partitions this (lagging) replica has
        # never seen provisioned; the hook is idempotent system-wide.
        if self.on_provision is not None:
            for name in self.partition_names:
                self.on_provision(name)
        # Same liveness guard as on_recover: a plan computed before the
        # provider's checkpoint whose publish timer never fired here must
        # be (re)published or plan_inflight wedges forever.
        pending = self._pending_plan
        if pending is not None and pending.version > self.version:
            self.set_timer(
                self.plan_compute_cost, lambda: self._publish_plan(pending)
            )
        self._republish_pending_reconfig()

    # -- helpers -------------------------------------------------------------------------

    def _amcast_ordered(self, dests, payload, uid: str, numbered=True) -> None:
        """a-mcast with a deterministic uid so that every oracle replica
        can issue the same multicast and it is delivered once.  What is
        sent at a log position (per command) is ``numbered``, the
        replicas counting alike; a plan leaves from a timer, in an order
        of its own at each replica, and goes by its uid."""
        command = getattr(payload, "command", None)
        attempt = getattr(payload, "attempt", None)
        if command is not None and attempt is not None and self.tracer.enabled:
            # The oracle forwards the command itself (dispatch mode and
            # create/delete): the ordering stage starts here rather than
            # at the client.  Get-or-create: both replicas multicast, one
            # span results.
            self.tracer.begin(
                command.uid, "multicast-order", self.now, disc=attempt,
                via_oracle=True, attempt=attempt,
            )
        dests = tuple(sorted(set(dests)))
        sender, n = (self.group, self.next_number(dests)) if numbered else ("", None)
        message = self._directory.make_message(dests, payload, uid, sender, n)
        self._directory.amcast_local(self, message)
