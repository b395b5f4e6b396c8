"""Elasticity policy: when to split or merge, and what moves where.

Everything here is a pure function of log-driven oracle state (the
workload graph, the location map, windowed per-partition access weights)
— never of local clocks or per-replica observations — so both oracle
replicas evaluating at the same log position reach the identical
decision.  The same functions back the hypothesis property tests that
the directory map stays a total, non-overlapping assignment across any
sequence of split/merge plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.partitioning import WorkloadGraph, partition_graph

#: Never split a partition holding fewer graph nodes than this.
MIN_SPLIT_NODES = 4


@dataclass(frozen=True)
class ElasticConfig:
    """Shape of the split/merge policy (all thresholds log-driven).

    Intervals and cooldowns are measured in *observed accesses* (the
    same unit as the repartition threshold), not virtual seconds: an
    idle system never reconfigures, and both oracle replicas count the
    identical accesses from the shared log.
    """

    #: A partition whose windowed access share exceeds ``split_factor``
    #: times the fair share (total / k) is split in two.
    split_factor: float = 1.6
    #: A partition whose windowed access share falls below
    #: ``merge_factor`` times the fair share is merged away into the
    #: next-lightest partition.  Keep well below ``split_factor`` /
    #: post-split shares or the topology oscillates.
    merge_factor: float = 0.25
    #: Evaluate the policy every this-many observed accesses.
    eval_interval: int = 400
    #: Observed accesses to wait after a reconfiguration before the next
    #: one may fire (lets the windowed weights re-form post-cutover).
    cooldown: int = 1200
    #: Topology bounds.
    max_partitions: int = 8
    min_partitions: int = 1

    def __post_init__(self):
        if self.split_factor <= 1.0:
            raise ValueError("split_factor must exceed 1.0")
        if not 0.0 < self.merge_factor < 1.0:
            raise ValueError("merge_factor must be in (0, 1)")
        if self.merge_factor >= self.split_factor:
            raise ValueError("merge_factor must be below split_factor")
        if self.eval_interval < 1 or self.cooldown < 0:
            raise ValueError("eval_interval must be >= 1, cooldown >= 0")
        if self.min_partitions < 1 or self.max_partitions < self.min_partitions:
            raise ValueError("need 1 <= min_partitions <= max_partitions")


@dataclass(frozen=True)
class ElasticDecision:
    """One policy verdict: split ``source`` or merge it into ``target``."""

    kind: str  # "split" | "merge"
    source: str
    target: Optional[str] = None  # merge only; splits name their target later


def decide_reconfig(
    window_weights: Mapping[str, float],
    node_counts: Mapping[str, int],
    partition_names: list[str],
    config: ElasticConfig,
) -> Optional[ElasticDecision]:
    """Evaluate the policy over one access window.

    ``window_weights`` are per-partition access weights accumulated
    since the last evaluation; ``node_counts`` the current number of
    graph nodes homed at each partition.  Ties everywhere break by
    partition name, so the verdict is deterministic.
    """
    k = len(partition_names)
    weights = {p: float(window_weights.get(p, 0.0)) for p in partition_names}
    total = sum(weights.values())
    if k == 0 or total <= 0.0:
        return None
    fair = total / k

    # Split the heaviest overloaded partition first: shedding a hotspot
    # matters more than tidying an idle one.
    if k < config.max_partitions:
        name, weight = max(
            weights.items(), key=lambda kv: (kv[1], kv[0])
        )
        if (
            weight > config.split_factor * fair
            and node_counts.get(name, 0) >= MIN_SPLIT_NODES
        ):
            return ElasticDecision("split", source=name)

    if k > config.min_partitions and k >= 2:
        ordered = sorted(weights.items(), key=lambda kv: (kv[1], kv[0]))
        (light, light_w), (absorber, _) = ordered[0], ordered[1]
        if light_w < config.merge_factor * fair:
            return ElasticDecision("merge", source=light, target=absorber)
    return None


def split_assignment(
    graph: WorkloadGraph,
    location: Mapping[Any, str],
    source: str,
    seed: int,
    imbalance: float = 0.20,
) -> tuple:
    """The nodes that leave ``source`` in a split: bisect the induced
    subgraph of ``source``'s nodes with the multilevel partitioner and
    move the lighter side (ties broken by smallest node repr, so the
    heavier — usually hotter — half keeps its home and nothing it owns
    relocates).  Returns a sorted node tuple; empty when no sensible
    bisection exists."""
    nodes = sorted((n for n, p in location.items() if p == source), key=repr)
    if len(nodes) < 2:
        return ()
    sub = WorkloadGraph()
    member = set(nodes)
    for node in nodes:
        sub.ensure_vertex(
            node, graph.vertex_weight(node) if node in graph else 1.0
        )
    for u, v, w in graph.edges():
        if u in member and v in member:
            sub.add_edge(u, v, w)
    result = partition_graph(sub, 2, imbalance=imbalance, seed=seed, restarts=3)
    sides: dict[int, list] = {0: [], 1: []}
    for node in nodes:
        sides.setdefault(result.assignment.get(node, 0), []).append(node)
    side_a, side_b = sides.get(0, []), sides.get(1, [])
    if not side_a or not side_b:
        # Degenerate bisection; move half the nodes by weight rank so the
        # split still relieves the hotspot.
        ranked = sorted(
            nodes,
            key=lambda n: (-(graph.vertex_weight(n) if n in graph else 0.0), repr(n)),
        )
        side_a, side_b = ranked[0::2], ranked[1::2]

    def side_key(side):
        weight = sum(
            graph.vertex_weight(n) if n in graph else 0.0 for n in side
        )
        return (weight, repr(sorted(side, key=repr)[0]))

    moving = min(side_a, side_b, key=side_key)
    return tuple(sorted(moving, key=repr))


def apply_reconfig(location: Mapping[Any, str], plan) -> dict:
    """The cutover assignment a :class:`~repro.core.messages.ReconfigPlan`
    produces over ``location``.  Pure so the oracle replicas and the
    property tests share one implementation:

    * split — the surviving subset of ``plan.moved`` still homed at
      ``plan.source`` moves to ``plan.target`` (deleted nodes are
      skipped, relocated ones are left with their current owner);
    * merge — every node currently homed at ``plan.source`` (including
      creates that landed after the plan was computed) moves to
      ``plan.target``, leaving the source empty.
    """
    assignment = dict(location)
    if plan.kind == "split":
        for node in plan.moved:
            if assignment.get(node) == plan.source:
                assignment[node] = plan.target
    else:
        for node, part in assignment.items():
            if part == plan.source:
                assignment[node] = plan.target
    return assignment
