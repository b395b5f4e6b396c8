"""Snapshot-based state transfer under chaos.

The scenarios this file pins down are the acceptance criteria of the
checkpointing PR: a replica that crashes and stays down long enough for
its group to checkpoint and truncate the Paxos log *past* its position
can no longer catch up from acceptors — it must fetch a snapshot from a
live peer, install it, and replay only the log suffix.  We verify that
path end to end (trace spans + metrics prove the snapshot actually
transferred), that it survives a requester crash mid-transfer and a
provider crash mid-transfer, and that compaction keeps per-replica and
per-acceptor memory bounded by the checkpoint interval.
"""

import io

from repro.consensus.paxos import ReplicaConfig
from repro.core.client import ScriptedWorkload
from repro.faults import ChaosInjector, FaultSchedule
from repro.smr import Command, History

from tests.core.conftest import (
    assert_clean,
    ok_results,
)
from tests.faults.conftest import build_chaos_system


def write_burst(n, key="k0"):
    """n writes to one key (keeps the traffic on a single partition)."""
    return [Command(f"c:{i}", "write", (key, i)) for i in range(n)]


def snapshot_spans(system):
    """Every span of every ``snapshot:*`` trace, in trace order."""
    return [
        span
        for trace_id, spans in system.tracer.traces().items()
        if trace_id.startswith("snapshot:")
        for span in spans
    ]


class TestSnapshotRecovery:
    def test_replica_behind_truncation_recovers_via_snapshot(self):
        """The headline scenario: rep1 crashes at t=0.05, the group
        checkpoints every 4 instances and truncates while it is down, and
        the recovery at t=4 can only succeed through a snapshot fetch."""
        system = build_chaos_system(
            n_keys=8, n_partitions=2, seed=3, checkpoint_interval=4, tracing=True
        )
        part = system.initial_assignment["k0"]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 1)
            .at(4.0, "recover_replica", part, 1)
        )
        ChaosInjector(system, schedule).arm()

        history = History()
        cmds = write_burst(40)
        cmds.append(Command("c:final", "read", ("k0",)))
        client = system.add_client(ScriptedWorkload(cmds), history=history)
        system.run(until=60.0)

        assert client.completed == 41
        assert ok_results(client)["c:final"] == 39

        # The group checkpointed and truncated while rep1 was down ...
        live = system.servers(part)[0]
        assert live.checkpoint_watermark > 0
        assert live.log_floor > 0
        counters = system.monitor.labeled_counters("checkpoint")
        assert counters.get(part, 0) > 0
        assert system.monitor.labeled_counters("log_truncated").get(part, 0) > 0

        # ... so rep1's recovery went through the snapshot path, proven
        # by the metrics and the finished snapshot-transfer span.
        assert system.monitor.labeled_counters("snapshot_fetches").get(part) == 1
        assert system.monitor.labeled_counters("snapshot_recoveries").get(part) == 1
        spans = snapshot_spans(system)
        installed = [s for s in spans if s.tags.get("status") == "installed"]
        assert len(installed) == 1
        assert installed[0].tags["replica"] == f"{part}/rep1"
        assert installed[0].tags["watermark"] > 0
        assert installed[0].tags["chunks"] >= 1

        # Correctness: the recovered replica converged, no key was lost
        # or duplicated, and the client-observed history linearizes.
        recovered = system.servers(part)[1]
        assert not recovered.crashed
        assert len(system.all_store_variables()) == 8
        assert_clean(system, history)

    def test_requester_crash_mid_transfer_then_clean_retry(self):
        """The downloading replica dies mid-transfer and recovers again:
        the half-fetched snapshot is discarded with the crash and the
        second recovery restarts the fetch from scratch.  One item per
        chunk stretches the transfer window so the fault lands inside it."""
        replica_cfg = ReplicaConfig(
            checkpoint_interval=4, snapshot_chunk_init=1, snapshot_chunk_max=1
        )
        system = build_chaos_system(
            n_keys=8, n_partitions=2, seed=3, tracing=True, replica=replica_cfg
        )
        part = system.initial_assignment["k0"]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 1)
            .at(4.0, "recover_replica", part, 1)
            # Recovery query + discovery take a few RTTs (~1 ms links);
            # with 1-item chunks the transfer runs for tens of ms.
            .at(4.02, "crash_mid_transfer", part)
            .at(6.0, "recover_replica", part, 1)
        )
        injector = ChaosInjector(system, schedule).arm()

        history = History()
        client = system.add_client(ScriptedWorkload(write_burst(40)), history=history)
        system.run(until=60.0)

        assert client.completed == 40
        kinds = [kind for _, kind, _ in injector.applied]
        assert kinds.count("crash_mid_transfer") == 1

        # Two separate fetch attempts (epoch 1 died with the crash,
        # epoch 2 installed), and exactly one completed recovery.
        assert system.monitor.labeled_counters("snapshot_fetches").get(part) == 2
        assert system.monitor.labeled_counters("snapshot_recoveries").get(part) == 1
        installed = [
            s for s in snapshot_spans(system) if s.tags.get("status") == "installed"
        ]
        assert len(installed) == 1

        recovered = system.servers(part)[1]
        assert not recovered.crashed
        assert len(system.all_store_variables()) == 8
        assert_clean(system, history)

    def test_provider_crash_forces_rediscovery_from_another_peer(self):
        """With three replicas, the peer serving the snapshot crashes
        mid-transfer; the requester times out, abandons the provider, and
        completes the download from the remaining live replica."""
        replica_cfg = ReplicaConfig(
            checkpoint_interval=4,
            snapshot_chunk_init=1,
            snapshot_chunk_max=1,
            snapshot_retry=0.1,
            snapshot_giveup=2,
        )
        system = build_chaos_system(
            n_keys=8,
            n_partitions=2,
            seed=3,
            n_replicas=3,
            tracing=True,
            replica=replica_cfg,
        )
        part = system.initial_assignment["k0"]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 2)
            .at(4.0, "recover_replica", part, 2)
            .at(4.02, "crash_snapshot_provider", part)
        )
        injector = ChaosInjector(system, schedule).arm()

        history = History()
        client = system.add_client(ScriptedWorkload(write_burst(40)), history=history)
        system.run(until=60.0)

        assert client.completed == 40
        kinds = [kind for _, kind, _ in injector.applied]
        assert kinds.count("crash_snapshot_provider") == 1

        # The requester gave up on the dead provider and restarted the
        # fetch against a live one — and still recovered exactly once.
        assert system.monitor.labeled_counters("snapshot_restarts").get(part, 0) >= 1
        assert system.monitor.labeled_counters("snapshot_recoveries").get(part) == 1
        spans = snapshot_spans(system)
        assert any(s.tags.get("status") == "restarted" for s in spans)
        installed = [s for s in spans if s.tags.get("status") == "installed"]
        assert len(installed) == 1
        assert installed[0].tags["replica"] == f"{part}/rep2"

        recovered = system.servers(part)[2]
        assert not recovered.crashed
        assert dict(recovered.store.items()) == dict(
            system.servers(part)[0].store.items()
        )
        assert len(system.all_store_variables()) == 8
        assert_clean(system, history)


class TestLogCompactionBounds:
    def test_replica_and_acceptor_memory_bounded_by_interval(self):
        """Long fault-free run: with checkpointing every 8 instances the
        decided map on every replica and the accepted map on every
        acceptor stay O(interval), instead of growing with the run."""
        interval = 8
        system = build_chaos_system(
            n_keys=8, n_partitions=2, seed=3, checkpoint_interval=interval
        )
        n = 200
        cmds = [Command(f"c:{i}", "write", (f"k{i % 8}", i)) for i in range(n)]
        client = system.add_client(ScriptedWorkload(cmds))
        system.run(until=120.0)
        assert client.completed == n

        saw_truncation = False
        for name in [*system.partition_names, system.oracle_group]:
            group = system.directory.groups[name]
            for replica in group.replicas:
                if replica.next_deliver <= interval:
                    continue  # group saw too little traffic to checkpoint
                # Retained decided instances: at most the suffix since the
                # last checkpoint plus one in-flight interval.
                assert replica.log_floor > 0
                retained = replica.next_deliver - replica.log_floor
                assert retained <= 2 * interval, (
                    f"{replica.name} retains {retained} decided instances"
                )
                assert len(replica.decided) <= 2 * interval
                saw_truncation = True
            for acceptor in group.acceptors:
                if acceptor.truncated_below == 0:
                    continue
                live = [i for i in acceptor.accepted if i >= acceptor.truncated_below]
                assert len(acceptor.accepted) == len(live)
                assert len(live) <= 3 * interval, (
                    f"{acceptor.name} holds {len(live)} accepted instances"
                )
        assert saw_truncation, "no group ever truncated its log"
        assert_clean(system)


class TestCheckpointDeterminism:
    @staticmethod
    def _traced_run():
        system = build_chaos_system(
            n_keys=8, n_partitions=2, seed=11, checkpoint_interval=4, tracing=True
        )
        part = system.initial_assignment["k0"]
        schedule = (
            FaultSchedule()
            .at(0.05, "crash_replica", part, 1)
            .at(4.0, "recover_replica", part, 1)
        )
        ChaosInjector(system, schedule).arm()
        client = system.add_client(ScriptedWorkload(write_burst(40)))
        system.run(until=60.0)
        assert client.completed == 40
        assert system.monitor.labeled_counters("snapshot_recoveries").get(part) == 1
        buf = io.StringIO()
        system.tracer.export_jsonl(buf)
        return buf.getvalue()

    def test_snapshot_recovery_replays_byte_identical(self):
        """Checkpoints, truncation, and a full snapshot recovery are all
        on the deterministic path: identical seeds give byte-identical
        trace logs."""
        a = self._traced_run()
        b = self._traced_run()
        assert "snapshot-transfer" in a
        assert "checkpoint" in a
        assert a == b
