"""Consensus-level tests for log truncation at the group-stable prefix,
checkpointing, and the snapshot-recovery wiring inside the bare Paxos
group (no multicast or DynaStar layers on top).

The truncation rule does not depend on checkpoints: every replica reports
its delivery frontier once per heartbeat period, the minimum is the floor,
replicas drop ``decided`` below it and acceptors ``accepted`` below the
floor the leader's next Accept (or, idle, its heartbeat) carries.
``checkpoint_interval`` only decides whether a replica that was silent
past ``WATERMARK_TTL`` may be cut off and sent to a snapshot.
"""

import random
from dataclasses import dataclass

from repro.consensus import GroupConfig, PaxosGroup, paxos
from repro.consensus.messages import (
    Accept,
    LogTruncated,
    NoOp,
    Promise,
    SnapshotRequest,
)
from repro.consensus.paxos import Batch, ReplicaConfig
from repro.sim import ConstantLatency, Network, Simulator


@dataclass(frozen=True)
class Cmd:
    uid: str
    payload: int = 0


def make_group(seed=1, n_replicas=2, n_acceptors=3, replica_config=None, name="g0"):
    sim = Simulator()
    net = Network(
        sim,
        default_latency=ConstantLatency(0.001),
        rng=random.Random(seed),
    )
    config = GroupConfig(
        n_replicas=n_replicas,
        n_acceptors=n_acceptors,
        replica=replica_config or ReplicaConfig(),
    )
    group = PaxosGroup(name, net, config=config, rng=random.Random(seed))
    group.start()
    return sim, net, group


def submit_all(group, cmds):
    for cmd in cmds:
        for replica in group.replicas:
            replica.submit(cmd)


def feed(sim, group, tag, start, stop, every=0.001):
    """Submit one command per ``every`` seconds to all live replicas."""
    for i in range(round((stop - start) / every)):
        cmd = Cmd(f"{tag}{i}")
        for replica in group.replicas:
            sim.schedule_at(
                start + i * every,
                lambda r=replica, c=cmd: None if r.crashed else r.submit(c),
            )


def sent_messages(net):
    """Record every message handed to the network from now on."""
    seen = []
    send = net.send

    def spy(src, dst, message, size=1):
        seen.append((src, dst, message))
        send(src, dst, message, size)

    net.send = spy
    return seen


class TestCheckpointAndTruncate:
    def test_checkpoint_advances_watermark_and_floors_the_log(self):
        cfg = ReplicaConfig(checkpoint_interval=5, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        submit_all(group, [Cmd(f"c{i}") for i in range(23)])
        sim.run(until=5.0)
        for replica in group.replicas:
            assert replica.next_deliver >= 23
            assert replica.checkpoint_watermark >= 20
            assert replica.checkpoint_watermark % 5 == 0
            assert replica.log_floor > 0
            # everything below the floor is compacted away
            assert all(i >= replica.log_floor for i in replica.decided)

    def test_acceptors_drop_instances_below_truncation_point(self):
        """Idle after a burst, no Accept carries the floor: the leader's
        next heartbeat tells the acceptors."""
        cfg = ReplicaConfig(checkpoint_interval=5, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        submit_all(group, [Cmd(f"c{i}") for i in range(23)])
        sim.run(until=5.0)
        floor = min(r.log_floor for r in group.replicas)
        assert floor == 23
        for acceptor in group.acceptors:
            assert acceptor.truncated_below >= floor
            assert all(i >= acceptor.truncated_below for i in acceptor.accepted)

    def test_group_floor_is_min_of_member_watermarks(self):
        """Truncation never outruns the slowest replica: the floor is the
        smallest delivery frontier — while the decisions crawl towards
        one replica, where that one stands, checkpoints or not."""
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, net, group = make_group(replica_config=cfg, n_replicas=3)
        slow = group.replicas[2]
        submit_all(group, [Cmd(f"a{i}") for i in range(5)])
        sim.run(until=0.5)
        for peer in group.replicas[:2]:
            net.set_pair_latency(peer.name, slow.name, ConstantLatency(0.4))
        submit_all(group, [Cmd(f"b{i}") for i in range(12)])
        sim.run(until=0.8)
        assert slow.next_deliver == 5
        for replica in group.replicas[:2]:
            assert replica.next_deliver == 17
            assert replica.checkpoint_watermark == 16
            assert replica.log_floor == 5
        sim.run(until=5.0)
        for replica in group.replicas:
            assert replica.log_floor == replica.next_deliver == 17
        # The step widens one heartbeat gap at the slow replica to 0.499 s,
        # under ``leader_timeout``: slow is not read as a crash (DESIGN.md
        # §5, leader suspicion; a 0.45 s step is, and changes the ballot).
        assert [replica.ballot for replica in group.replicas] == [0, 0, 0]

    def test_no_checkpointing_when_interval_is_zero(self):
        """Interval 0: no checkpoint is taken and no snapshot is ever
        served or asked for — and the logs are bounded all the same."""
        sim, net, group = make_group(replica_config=ReplicaConfig(max_batch=1))
        seen = sent_messages(net)
        submit_all(group, [Cmd(f"c{i}") for i in range(12)])
        sim.run(until=5.0)
        for replica in group.replicas:
            assert replica.checkpoint_watermark == 0
            assert replica.last_checkpoint is None
            assert replica.next_deliver == replica.log_floor == 12
            assert not replica.decided
        for acceptor in group.acceptors:
            assert acceptor.truncated_below == 12 and not acceptor.accepted
        assert not any(
            isinstance(m, (SnapshotRequest, LogTruncated)) for _, _, m in seen
        )

    def test_delivery_resumes_cleanly_after_truncation(self):
        cfg = ReplicaConfig(checkpoint_interval=3, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        submit_all(group, [Cmd(f"a{i}") for i in range(9)])
        sim.run(until=2.0)
        submit_all(group, [Cmd(f"b{i}") for i in range(9)])
        sim.run(until=4.0)
        logs = [group.delivered_log(i) for i in range(2)]
        assert logs[0] == logs[1]
        for replica in group.replicas:
            assert replica.next_deliver >= 18


    def test_delivered_log_outlives_truncation(self):
        """``PaxosGroup.delivered_log`` records deliveries, not the log:
        the whole history is there after ``decided`` was dropped."""
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        cmds = [Cmd(f"c{i}") for i in range(20)]
        for cmd in cmds:
            group.replicas[0].submit(cmd)
        sim.run(until=2.0)
        for i, replica in enumerate(group.replicas):
            assert replica.log_floor == 20 and not replica.decided
            assert group.delivered_log(i) == cmds


class TestSnapshotRecoveryBare:
    def test_replica_behind_truncation_installs_snapshot(self):
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        victim = group.replicas[1]
        sim.schedule_at(0.05, victim.crash)
        sim.schedule_at(3.0, victim.recover)
        submit_all(group, [Cmd(f"c{i}") for i in range(20)])
        survivor = group.replicas[0]
        sim.run(until=1.0)
        # Silent, but not yet for WATERMARK_TTL: the victim holds the floor.
        assert survivor.next_deliver == 20 and survivor.log_floor == 0
        sim.run(until=2.5)
        # Past the TTL the group truncated to its checkpoint, beyond the
        # victim's position; the idle leader's heartbeat told the acceptors.
        assert survivor.log_floor == survivor.checkpoint_watermark == 20
        assert all(a.truncated_below == 20 for a in group.acceptors)
        sim.run(until=10.0)
        assert not victim.crashed
        assert victim.next_deliver >= survivor.checkpoint_watermark
        assert victim.checkpoint_watermark == survivor.checkpoint_watermark or (
            victim.checkpoint_watermark > 0
        )
        # Base-layer app state transferred: delivered-uid dedup survives.
        assert all(f"c{i}" in victim.delivered_uids for i in range(20))

    def test_snapshot_keeps_dedup_set_consistent(self):
        """After a snapshot install, re-submitting an old uid must not
        deliver it twice on the recovered replica."""
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        victim = group.replicas[1]
        sim.schedule_at(0.05, victim.crash)
        sim.schedule_at(3.0, victim.recover)
        submit_all(group, [Cmd(f"c{i}") for i in range(16)])
        sim.run(until=6.0)
        assert victim.checkpoint_watermark > 0  # came back through a snapshot
        delivered = [len(group.delivered_log(i)) for i in range(2)]
        submit_all(group, [Cmd("c3"), Cmd("fresh")])  # c3: an old command
        sim.run(until=8.0)
        for i in range(2):
            assert group.delivered_log(i)[delivered[i]:] == [Cmd("fresh")]


class TestRecoveryBackoff:
    def test_retry_delay_grows_exponentially_to_cap(self):
        """Re-sync retries back off 2x per attempt and saturate at
        ``recovery_retry_cap`` — observed on the actual timer arming."""
        cfg = ReplicaConfig(recovery_retry=0.2, recovery_retry_cap=1.0)
        sim, _, group = make_group(replica_config=cfg)
        replica = group.replicas[0]
        armed = []
        original = replica.set_timer

        def spy(delay, callback, *args, **kwargs):
            if callback == replica._recovery_retry_tick:
                armed.append(round(delay, 6))
            return original(delay, callback, *args, **kwargs)

        replica.set_timer = spy
        for attempt in range(6):
            replica._recovery_attempts = attempt
            replica._request_recovery()
        assert armed == [0.2, 0.4, 0.8, 1.0, 1.0, 1.0]

    def test_successful_recovery_resets_attempt_counter(self):
        cfg = ReplicaConfig(checkpoint_interval=0, max_batch=1)
        sim, _, group = make_group(replica_config=cfg)
        victim = group.replicas[1]
        sim.schedule_at(0.05, victim.crash)
        sim.schedule_at(1.0, victim.recover)
        submit_all(group, [Cmd(f"c{i}") for i in range(8)])
        sim.run(until=10.0)
        assert not victim._recovering
        assert victim._recovery_attempts == 0


class TestBoundedWithoutCheckpoints:
    """``checkpoint_interval=0``, the default: the logs hold what is in
    flight plus what the last heartbeat periods decided, not the run."""

    def test_chirper_logs_do_not_grow_with_the_run(self):
        """(a) The fault-free Chirper deployment of the memory gauge."""
        from tests.core.test_memory_budget import build_chirper

        system = build_chirper()
        assert system.config.replica.checkpoint_interval == 0
        groups = list(system.directory.groups.values())

        def sizes():
            return (
                [len(r.decided) for g in groups for r in g.replicas],
                [len(a.accepted) for g in groups for a in g.acceptors],
                [max(r.next_deliver for r in g.replicas) for g in groups],
            )

        system.run(until=2.5)
        decided_mid, accepted_mid, delivered_mid = sizes()
        system.run(until=5.0)
        decided_end, accepted_end, delivered_end = sizes()
        cfg = system.config.replica
        periods = 2.5 / cfg.heartbeat_period
        busiest = max(b - a for a, b in zip(delivered_mid, delivered_end))
        assert busiest > 1000, "deployment too idle to tell"
        bound = cfg.window + 2 * busiest / periods
        assert max(decided_end) <= bound and max(accepted_end) <= bound
        assert max(decided_end) <= 1.5 * max(decided_mid)
        assert max(accepted_end) <= 1.5 * max(accepted_mid)

    def test_crashed_follower_pins_the_log_and_catches_up_without_snapshot(self):
        """(b) While a follower is down, peers and acceptors keep
        everything from its frontier on; it catches up from them alone,
        and the floors follow within two heartbeat periods."""
        sim, net, group = make_group(replica_config=ReplicaConfig(max_batch=1))
        leader, victim = group.replicas
        seen = sent_messages(net)
        feed(sim, group, "c", start=0.0, stop=3.5)
        sim.schedule_at(1.0, victim.crash)
        sim.schedule_at(3.0, victim.recover)
        sim.run(until=2.99)
        stood = victim.next_deliver
        assert leader.next_deliver - stood >= 1000
        assert leader.log_floor <= stood
        assert all(i in leader.decided for i in range(stood, leader.next_deliver))
        for acceptor in group.acceptors:
            assert acceptor.truncated_below <= stood
            assert all(i in acceptor.accepted for i in range(stood, leader.next_deliver))
        sim.run(until=3.0 + 0.05)
        assert victim.next_deliver >= leader.next_deliver - 5  # caught up
        sim.run(until=3.0 + 0.05 + 2 * victim.config.heartbeat_period)
        assert leader.log_floor > stood + 1000
        assert all(a.truncated_below > stood + 1000 for a in group.acceptors)
        sim.run(until=5.0)
        assert victim._snapshot_epoch == 0 and victim.checkpoint_watermark == 0
        assert not any(
            isinstance(m, (SnapshotRequest, LogTruncated)) for _, _, m in seen
        )
        assert group.delivered_log(0) == group.delivered_log(1)
        for replica in group.replicas:
            assert replica.log_floor == replica.next_deliver and not replica.decided

    def test_new_leader_after_truncation_fills_no_gap_below_its_frontier(self):
        """(c) Leader crash after truncation: phase 1 learns nothing below
        the floor and must not invent no-ops there."""
        sim, net, group = make_group(
            replica_config=ReplicaConfig(max_batch=1), n_replicas=3
        )
        feed(sim, group, "a", start=0.0, stop=0.5)
        sim.run(until=1.0)
        old = group.leader
        floor = old.log_floor
        assert all(r.log_floor == r.next_deliver == 500 for r in group.replicas)
        assert all(a.truncated_below == floor for a in group.acceptors)
        seen = sent_messages(net)
        old.crash()
        sim.run(until=2.5)
        assert group.leader is not None
        promises = [m for _, _, m in seen if isinstance(m, Promise)]
        assert promises and all(
            m.truncated_below == floor and not m.accepted for m in promises
        )
        accepts = [m for _, _, m in seen if isinstance(m, Accept)]
        assert all(m.instance >= floor for m in accepts)
        assert not any(
            isinstance(v, NoOp) for m in accepts
            for v in (m.value.values if isinstance(m.value, Batch) else (m.value,))
        )
        submit_all(group, [Cmd(f"b{i}") for i in range(10)])
        sim.run(until=4.0)
        assert group.delivered_log(1) == group.delivered_log(2)
        assert len(group.delivered_log(1)) == 510


class TestSilentPeerWithCheckpoints:
    """(d) ``checkpoint_interval > 0``: slow is not silent."""

    def test_slow_but_reporting_peer_is_never_cut_off(self, monkeypatch):
        monkeypatch.setattr(paxos, "WATERMARK_TTL", 0.2)
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, net, group = make_group(replica_config=cfg)
        leader, slow = group.replicas
        seen = sent_messages(net)
        # A delay spike between the two, longer than the TTL: the slow
        # replica is far behind for seconds, yet its frontier reports —
        # old as they are — keep arriving.
        net.set_pair_latency(leader.name, slow.name, ConstantLatency(0.3))
        feed(sim, group, "c", start=0.0, stop=2.0, every=0.004)
        sim.run(until=1.9)
        assert leader.is_leader
        assert leader.next_deliver - slow.next_deliver > 50
        assert leader.checkpoint_watermark > slow.next_deliver
        assert leader.log_floor <= slow.next_deliver
        net.set_pair_latency(leader.name, slow.name, ConstantLatency(0.001))
        sim.run(until=6.0)
        assert slow._snapshot_epoch == 0
        assert not any(isinstance(m, LogTruncated) for _, _, m in seen)
        assert group.delivered_log(0) == group.delivered_log(1)

    def test_silent_peer_is_cut_off_after_the_ttl_and_returns_by_snapshot(
        self, monkeypatch
    ):
        monkeypatch.setattr(paxos, "WATERMARK_TTL", 0.5)
        cfg = ReplicaConfig(checkpoint_interval=4, max_batch=1)
        sim, net, group = make_group(replica_config=cfg)
        leader, victim = group.replicas
        sim.schedule_at(0.25, victim.crash)
        sim.schedule_at(3.0, victim.recover)
        feed(sim, group, "c", start=0.0, stop=2.0, every=0.01)
        sim.run(until=0.6)
        stood = victim.next_deliver
        assert leader.log_floor <= stood  # silent for less than the TTL
        sim.run(until=2.5)
        assert leader.log_floor == leader.checkpoint_watermark > stood
        sim.run(until=6.0)
        assert victim._snapshot_epoch >= 1
        assert victim.next_deliver == leader.next_deliver

