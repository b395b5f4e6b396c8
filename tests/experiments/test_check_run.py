"""``check_run`` — one verdict per finished run — on one small drained
key-value deployment: untouched it is clean, and each way of breaking an
invariant is reported as exactly that problem and nothing else."""

import pytest

from repro.compartment import CompartmentConfig
from repro.compartment.messages import LeaseGrant
from repro.core import DynaStarSystem, SystemConfig
from repro.core.client import ScriptedWorkload
from repro.core.messages import ReliableMsg
from repro.core.server import _Attempt
from repro.experiments.harness import check_run
from repro.sim import ConstantLatency
from repro.smr import Command, History, KeyValueApp
from repro.smr.command import ReplyStatus
from repro.smr.linearizability import Operation

N_KEYS = 8


def drained(**config):
    """Two partitions with read learners and admission control, one
    client's short mixed script, run well past its last reply."""
    config.setdefault(
        "compartment", CompartmentConfig(enabled=True, n_learners=2)
    )
    system = DynaStarSystem(
        KeyValueApp({f"k{i}": i for i in range(N_KEYS)}),
        SystemConfig(
            n_partitions=2,
            seed=3,
            latency=ConstantLatency(0.001),
            repartition_enabled=False,
            admission_bound=8,
            oracle_admission_bound=8,
            **config,
        ),
    )
    commands = [Command(f"c:{i}", "write", (f"k{i}", 10 + i)) for i in range(N_KEYS)]
    commands += [
        Command("c:t", "transfer", ("k0", "k1", 1)),
        Command("c:s", "sum", tuple(f"k{i}" for i in range(N_KEYS))),
        Command("c:r", "read", ("k0",)),
    ]
    history = History()
    system.add_client(ScriptedWorkload(commands), history=history)
    system.run(until=10.0)
    return system, history


def holders(system, partition):
    """Everything that holds the partition's state: replicas and mirrors."""
    group = system.directory.groups[partition]
    return [*group.replicas, *group.learners]


def home_of(system, var):
    return next(p for p in system.partition_names if var in system.servers(p)[0].store)


def test_untouched_deployment_is_clean():
    system, history = drained()
    assert system.clients[0].completed == N_KEYS + 3
    assert check_run(system, history) == []
    assert check_run(system) == []


def overwrite_one_replica(system, history):
    store = system.servers("p0")[1].store
    store.put(store.variables()[0], -1)


def own_a_node_at_one_replica(system, history):
    system.servers("p0")[1].owned_nodes.add("stray")


def lose_a_variable(system, history):
    for holder in holders(system, home_of(system, "k3")):
        holder.store.discard("k3")


def hold_a_variable_twice(system, history):
    home = home_of(system, "k3")
    other = next(p for p in system.partition_names if p != home)
    for holder in holders(system, other):
        holder.store.put("k3", 13)


def leave_a_client_waiting(system, history):
    system.clients[0].done = False


def miscount_results(system, history):
    system.clients[0].completed += 1


def answer_a_command_twice(system, history):
    """The client takes a second OK for its last command, a read, and
    books it as it booked the first."""
    client = system.clients[0]
    last = history.operations[-1]
    assert last.command.uid == "c:r"
    client.results.record(last.command.uid, ReplyStatus.OK, last.result)
    history.record(last)
    client.completed += 1


def leave_an_attempt(system, history):
    system.servers("p1")[0]._attempts[("c:t", 0)] = _Attempt()


def leave_an_outbox_entry(system, history):
    server = system.servers("p1")[0]
    server.reliable.outbox[("p0/rep0", "vt:c:t:0:p1")] = ReliableMsg("vt:c:t:0:p1", None)


def leave_a_node_in_transit(system, history):
    system.servers("p1")[0].in_transit.add("k3")


def leave_a_queued_command(system, history):
    system.servers("p0")[0].queue.append(object())


def leave_an_early_plan_transfer(system, history):
    system.servers("p1")[1]._early_plan_transfers["k3"] = ((), ())


def leave_a_message_unordered(system, history):
    system.servers("p0")[0].pending_msgs["x:c:9:a0"] = object()


def leave_a_paxos_proposal(system, history):
    system.oracle_replicas()[0].proposals[10**6] = (0, None)


def leave_a_paxos_submission(system, history):
    system.servers("p0")[0].pending["c:lost"] = object()


def leave_an_admission_slot(system, history):
    system.oracle_replicas()[0].admission.offer("c:lost", system.sim.now)


def corrupt_a_learner_mirror(system, history):
    learner = system.directory.groups["p0"].learners[1]
    learner.store.put(learner.store.variables()[0], -1)


def read_a_value_never_written(system, history):
    now = system.sim.now
    history.record(
        Operation("ghost", Command("g:0", "read", ("k5",)), now, now, 999)
    )


def set_the_clock_past_a_pending_event(system, history):
    system.sim._now += 60.0  # heartbeats are due long before that


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (overwrite_one_replica, "replica state divergence in p0"),
        (own_a_node_at_one_replica, "replica ownership divergence in p0"),
        (lose_a_variable, "initial variables owned by no partition: ['k3']"),
        (hold_a_variable_twice, "variable 'k3' present in two partitions"),
        (leave_a_client_waiting, "client0 stuck"),
        (miscount_results, "client0 holds 11 results for 12 completed + 0 failed"),
        (answer_a_command_twice, "client0 holds 11 results for 12 completed + 0 failed"),
        (leave_an_attempt, "p1/rep0 still holds per-attempt state: _attempts 1"),
        (leave_an_outbox_entry, "p1/rep0 still holds per-attempt state: outbox 1"),
        (leave_a_node_in_transit, "p1/rep0 still holds per-attempt state: in_transit 1"),
        (leave_a_queued_command, "p0/rep0 still holds per-attempt state: queue 1"),
        (
            leave_an_early_plan_transfer,
            "p1/rep1 still holds per-attempt state: _early_plan_transfers 1",
        ),
        (
            leave_a_message_unordered,
            "p0/rep0 still holds per-attempt state: pending_msgs 1",
        ),
        (
            leave_a_paxos_proposal,
            "oracle/rep0 still holds per-attempt state: paxos proposals 1",
        ),
        (
            leave_a_paxos_submission,
            "p0/rep0 still holds per-attempt state: paxos pending 1",
        ),
        (
            leave_an_admission_slot,
            "oracle/rep0 still holds per-attempt state: admission slots 1",
        ),
        (corrupt_a_learner_mirror, "learner p0/learner1 diverged from p0 state"),
        (read_a_value_never_written, "history of 12 operations is not linearizable"),
        (set_the_clock_past_a_pending_event, "virtual clock moved backwards"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_each_broken_invariant_is_the_one_problem_reported(mutate, problem):
    system, history = drained()
    mutate(system, history)
    problems = check_run(system, history)
    assert len(problems) == 1, problems
    assert problem in problems[0]


def test_lease_renewal_in_the_paxos_pipeline_is_not_a_leftover():
    """Periodic, like a heartbeat: a drained run with leases on is
    caught with one in flight whenever its end lands on a renewal."""
    system, history = drained()
    leader = system.servers("p0")[0]
    grant = LeaseGrant("lease:p0/rep0:9:10.0", leader.name, 10.0, 11.0)
    leader.pending[grant.uid] = grant
    assert check_run(system, history) == []


def test_crashed_replica_is_not_compared():
    """Live replicas only: a scenario that ends with one down asserts
    on that replica itself."""
    system, history = drained()
    down = system.servers("p0")[1]
    down.crash()
    overwrite_one_replica(system, history)
    down.queue.append(object())
    assert check_run(system, history) == []


def test_retired_partition_must_hold_nothing():
    system, history = drained(
        compartment=CompartmentConfig(), elastic_enabled=True
    )
    system.elastic.provision("p2")
    system.elastic.retire("p2")
    system.run(until=12.0)
    assert check_run(system, history) == []
    system.directory.groups["p2"].replicas[0].store.put("k3", 13)
    assert check_run(system, history) == ["retired partition p2 still owns state"]
