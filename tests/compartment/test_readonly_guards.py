"""Regression tests for the lease-read fast path's eligibility guards.

Three independent fences keep a command off a single learner mirror
unless it is a single-partition, read-only command:

1. the client only routes cached, single-partition, read-only first
   attempts to a learner (``_try_local_read``);
2. the learner bounces any mutating command straight back with RETRY;
3. the leaseholding replica rejects probes for mutating commands and
   for commands touching nodes it does not own (stale client cache —
   the command actually spans another partition).
"""

from repro.compartment.lease import held_by
from repro.compartment.messages import LocalRead, ProbeReject, SeqAck, SeqProbe
from repro.core.client import ScriptedWorkload
from repro.smr import Command
from repro.smr.command import Reply, ReplyStatus

from tests.compartment.test_local_reads import (
    build_compartment_system,
    run_scripts,
)
from tests.core.conftest import assert_clean

N_KEYS = 8


def local_dispatches(system):
    counters = system.monitor.snapshot()["counters"]
    return sum(
        v
        for k, v in counters.items()
        if k.startswith("reads{") and "event=local_dispatch" in k
    )


class TestClientEligibility:
    def test_cross_partition_read_never_goes_to_a_learner(self):
        """A multi-key ``sum`` spanning both partitions must take the
        ordered path: one learner's mirror cannot see both partitions'
        variables consistently."""
        system = build_compartment_system()
        # Pair every key with its diagonal counterpart: with random
        # placement over 2 partitions some pair lands cross-partition in
        # every seeded run; single-partition pairs are legal learner
        # traffic, so count only the cross-partition ones.
        scripts = [
            [
                Command(f"c:{i}", "sum", (f"k{i}", f"k{(i + N_KEYS // 2) % N_KEYS}"))
                for i in range(N_KEYS)
            ]
        ]
        history, clients = run_scripts(system, scripts)
        assert_clean(system)
        assert clients[0].failed == 0

        placement = {
            var: partition
            for partition in system.partition_names
            for var in system.servers(partition)[0].store.variables()
        }
        cross = [
            cmd
            for cmd in scripts[0]
            if len({placement[k] for k in cmd.args}) > 1
        ]
        assert cross, "placement put every pair on one partition"
        # every local dispatch must have been a single-partition pair
        single = len(scripts[0]) - len(cross)
        assert local_dispatches(system) <= single

    def test_single_partition_multikey_read_is_learner_eligible(self):
        """The guard is partition count, not key count (non-vacuity for
        the test above)."""
        system = build_compartment_system()
        # the first read warms the location cache via the oracle; the
        # second is cache-hit + single-partition -> learner-eligible
        probe = [Command(f"p:{i}", "read", ("k0",)) for i in range(2)]
        history, clients = run_scripts(system, [probe], until=20.0)
        assert clients[0].failed == 0
        assert local_dispatches(system) >= 1


class _SendCapture:
    def __init__(self, actor):
        self.sent = []
        actor.send = lambda dest, msg: self.sent.append((dest, msg))

    def messages(self, kind):
        return [m for _, m in self.sent if isinstance(m, kind)]


class TestLearnerGuard:
    def test_learner_bounces_mutating_command(self):
        system = build_compartment_system()
        system.run(until=2.0)  # leases granted, mirrors warm
        learner = system.directory.groups[system.partition_names[0]].learners[0]
        capture = _SendCapture(learner)
        write = Command("m:0", "write", ("k0", 99))
        learner.on_message("client0", LocalRead(write, "client0", 0))

        replies = capture.messages(Reply)
        assert len(replies) == 1
        assert replies[0].status == ReplyStatus.RETRY
        assert not capture.messages(SeqProbe), (
            "learner probed the replicas for a mutating command"
        )


class TestProbeGuard:
    @staticmethod
    def _leaseholder(system, partition):
        for server in system.servers(partition):
            if server.is_leader and held_by(
                server.reads.lease, server.name, server.now
            ):
                return server
        raise AssertionError(f"no valid leaseholder in {partition}")

    def test_leaseholder_rejects_mutating_probe(self):
        system = build_compartment_system()
        system.run(until=2.0)
        partition = system.partition_names[0]
        server = self._leaseholder(system, partition)
        capture = _SendCapture(server)
        write = Command("m:1", "write", ("k0", 99))
        server.reads.on_message(SeqProbe("m:1", write, "learner-x"))

        rejects = capture.messages(ProbeReject)
        assert [r.reason for r in rejects] == ["not-readonly"]
        assert not capture.messages(SeqAck)

    def test_leaseholder_rejects_probe_for_foreign_node(self):
        """Stale client cache: the probed command reads a key this
        partition does not own — the reject bounces the client back to
        the oracle instead of serving a mirror miss as a real value."""
        system = build_compartment_system()
        system.run(until=2.0)
        partition = system.partition_names[0]
        server = self._leaseholder(system, partition)
        foreign = next(
            var
            for var in system.servers(system.partition_names[1])[0]
            .store.variables()
            if var not in server.owned_nodes
        )
        capture = _SendCapture(server)
        read = Command("m:2", "read", (foreign,))
        server.reads.on_message(SeqProbe("m:2", read, "learner-x"))

        rejects = capture.messages(ProbeReject)
        assert [r.reason for r in rejects] == ["not-owner"]
        assert not capture.messages(SeqAck)

    def test_expire_lease_fault_silences_the_holder(self):
        """The ``expire_lease`` fault reaches the lease through the read
        path's public ``abandon_lease``: the holder, still inside its
        lease, stops answering probes (silence, not a reject — the
        learner re-probes until its deadline)."""
        from repro.faults import ChaosInjector, FaultSchedule

        system = build_compartment_system()
        system.run(until=2.0)
        partition = system.partition_names[0]
        server = self._leaseholder(system, partition)
        read = Command("m:3", "read", (sorted(server.owned_nodes)[0],))
        capture = _SendCapture(server)
        server.reads.on_message(SeqProbe("m:3", read, "learner-x"))
        assert len(capture.messages(SeqAck)) == 1

        ChaosInjector(
            system, FaultSchedule().at(system.sim.now, "expire_lease", partition)
        ).arm()
        system.run(until=system.sim.now + 1e-6)
        assert held_by(server.reads.lease, server.name, server.now)
        server.reads.on_message(SeqProbe("m:4", read, "learner-x"))
        assert len(capture.messages(SeqAck)) == 1 and not capture.messages(ProbeReject)
