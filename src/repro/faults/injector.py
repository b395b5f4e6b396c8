"""The chaos injector: applies a :class:`FaultSchedule` to a live system.

The injector schedules every fault on the system's event heap at arm
time, so the faults interleave deterministically with protocol traffic
on the virtual clock.  Each applied fault is appended to
:attr:`ChaosInjector.applied`, counted under the labeled ``fault``
monitor counter (``kind=<kind>``), and — when the system traces —
recorded as a global tracer event so chaos runs are explainable.  The
applied log is the ground truth for replay determinism tests (same
seed, same schedule ⇒ identical logs).

``crash_leader`` is resolved at fire time (whichever replica leads the
group then); the matching ``recover_leader`` recovers exactly the
replicas its group's earlier ``crash_leader`` events took down.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.trace import NULL_TRACER
from repro.sim.monitor import Monitor


class ChaosInjector:
    """Arms a fault schedule against a :class:`DynaStarSystem`.

    Works with any object exposing ``sim``, ``net``, ``monitor`` and
    ``directory.groups`` the way :class:`~repro.core.system.DynaStarSystem`
    does.
    """

    def __init__(self, system, schedule: FaultSchedule, monitor: Optional[Monitor] = None):
        self.system = system
        self.schedule = schedule
        self.monitor = monitor or getattr(system, "monitor", None) or Monitor()
        self.tracer = getattr(system, "tracer", None) or NULL_TRACER
        #: (virtual_time, kind, args) triples in application order.
        self.applied: list[tuple] = []
        self._crashed_leaders: dict[str, list] = {}
        self._armed = False

    def arm(self) -> "ChaosInjector":
        """Schedule every fault on the system's event heap (idempotent
        guard: arming twice would double-apply every fault)."""
        if self._armed:
            raise RuntimeError("chaos injector is already armed")
        self._armed = True
        for event in self.schedule:
            self.system.sim.schedule_at(event.at, self._make_apply(event))
        return self

    def _make_apply(self, event: FaultEvent):
        def apply() -> None:
            handler = getattr(self, f"_do_{event.kind}")
            handler(*event.args)
            self.applied.append((self.system.sim.now, event.kind, event.args))
            self.monitor.counter("fault", kind=event.kind).inc()
            self.tracer.record(
                "fault", self.system.sim.now,
                kind=event.kind, args=list(event.args),
            )

        return apply

    # -- group helpers ------------------------------------------------------

    def _group(self, name: str):
        try:
            return self.system.directory.groups[name]
        except KeyError:
            known = ", ".join(sorted(self.system.directory.groups))
            raise KeyError(
                f"unknown group {name!r} in fault schedule (groups: {known})"
            ) from None

    # -- crash / recover ----------------------------------------------------

    def _do_crash_replica(self, group: str, index: int) -> None:
        self._group(group).replicas[index].crash()

    def _do_recover_replica(self, group: str, index: int) -> None:
        self._group(group).replicas[index].recover()

    def _do_crash_acceptor(self, group: str, index: int) -> None:
        self._group(group).acceptors[index].crash()

    def _do_recover_acceptor(self, group: str, index: int) -> None:
        self._group(group).acceptors[index].recover()

    def _do_crash_leader(self, group: str) -> None:
        g = self._group(group)
        victim = g.leader
        if victim is None:
            # No settled leader right now; hit the first live replica so
            # the schedule still injects a fault.
            alive = g.alive_replicas
            victim = alive[0] if alive else None
        if victim is not None:
            victim.crash()
            self._crashed_leaders.setdefault(group, []).append(victim)

    def _do_recover_leader(self, group: str) -> None:
        for replica in self._crashed_leaders.pop(group, []):
            replica.recover()

    # -- snapshot-transfer fault points --------------------------------------

    def _do_crash_mid_transfer(self, group: str) -> None:
        """Crash the replica of ``group`` currently downloading a
        snapshot — the requester-dies-mid-transfer fault point.  No-op
        (still logged) when no transfer is in flight at fire time."""
        for replica in self._group(group).replicas:
            if not replica.crashed and replica._fetching is not None:
                replica.crash()
                return

    def _do_crash_snapshot_provider(self, group: str) -> None:
        """Crash the replica of ``group`` currently *serving* a snapshot
        download (resolved via the requester's fetch state).  Falls back
        to any live replica holding a checkpoint, so a schedule that
        fires a beat early still kills the would-be provider."""
        g = self._group(group)
        by_name = {replica.name: replica for replica in g.replicas}
        for replica in g.replicas:
            fetch = replica._fetching
            if fetch is None or fetch.provider is None:
                continue
            provider = by_name.get(fetch.provider)
            if provider is not None and not provider.crashed:
                provider.crash()
                return
        for replica in g.replicas:
            if not replica.crashed and replica.last_checkpoint is not None:
                replica.crash()
                return

    # -- elastic reconfiguration fault points ---------------------------------

    def _reconfig_in_flight(self) -> bool:
        """Whether any oracle replica has a reconfiguration pending,
        decided, or awaiting drain at fire time."""
        oracle_group = getattr(self.system, "oracle_group", "oracle")
        group = self.system.directory.groups.get(oracle_group)
        if group is None:
            return False
        return any(
            getattr(r, "reconfig_inflight", False)
            or getattr(r, "_pending_reconfig", None) is not None
            for r in group.replicas
        )

    def _do_crash_mid_split(self, group: str) -> None:
        """Crash a replica of ``group`` while it holds reconfiguration
        handoff state — nodes still in transit, an unacked handoff
        outbox, or an unfinished drain.  Resolved at fire time; no-op
        (still logged) when the group is quiescent.  The victim joins the
        ``crash_leader`` ledger so a paired ``recover_leader`` event
        brings it back."""
        for replica in self._group(group).replicas:
            if replica.crashed:
                continue
            mid_handoff = (
                getattr(replica, "in_transit", None)
                or len(getattr(replica, "reliable", ()))
                or (
                    getattr(replica, "draining", False)
                    and not getattr(replica, "retired", False)
                )
            )
            if mid_handoff:
                replica.crash()
                self._crashed_leaders.setdefault(group, []).append(replica)
                return

    def _do_crash_oracle_during_reconfig(self) -> None:
        """Crash one live oracle replica iff a reconfiguration is in
        flight (pending plan, cutover, or drain wait) — the oracle-side
        crash window of the protocol.  No-op when quiescent."""
        if not self._reconfig_in_flight():
            return
        oracle_group = getattr(self.system, "oracle_group", "oracle")
        group = self._group(oracle_group)
        for replica in group.replicas:
            if not replica.crashed:
                replica.crash()
                self._crashed_leaders.setdefault(oracle_group, []).append(
                    replica
                )
                return

    def _do_lose_cutover_msgs(self, duration: float, probability: float) -> None:
        """Loss burst aimed at the reconfiguration window: fires only when
        a reconfiguration is actually in flight, so a schedule can riddle
        cutover multicasts and drain announcements with loss without
        degrading the rest of the run."""
        if not self._reconfig_in_flight():
            return
        self.system.net.schedule_loss_burst(
            self.system.sim.now, duration, probability
        )

    # -- compartmentalized-stage fault points ---------------------------------

    def _do_crash_proxy_leader(self, group: str) -> None:
        """Crash an alive proxy leader of ``group``, preferring one with
        buffered (not yet forwarded) submissions so the fault lands on
        in-flight traffic when possible.  The victim joins the
        ``crash_leader`` ledger so a paired ``recover_leader`` brings it
        back.  No-op (still logged) when the group has no alive proxies."""
        proxies = [
            p for p in getattr(self._group(group), "proxies", ()) if not p.crashed
        ]
        if not proxies:
            return
        victim = max(proxies, key=lambda p: p.buffered)
        victim.crash()
        self._crashed_leaders.setdefault(group, []).append(victim)

    def _do_expire_lease(self, group: str) -> None:
        """Forcibly abandon ``group``'s leader lease at its current
        holder, as if the lease had expired: the holder stops answering
        read probes until it re-acquires a lease through the log, so
        in-flight local reads bounce to the ordered path.  No-op (still
        logged) when no replica holds a currently-valid lease."""
        from repro.compartment.lease import held_by

        for replica in self._group(group).replicas:
            if replica.crashed:
                continue
            reads = getattr(replica, "reads", None)
            if reads is not None and held_by(reads.lease, replica.name, replica.now):
                reads.abandon_lease()
                return

    # -- links --------------------------------------------------------------

    def _do_cut(self, a: str, b: str) -> None:
        self.system.net.cut(a, b)

    def _do_heal(self, a: str, b: str) -> None:
        self.system.net.heal(a, b)

    def _do_cut_oneway(self, src: str, dst: str) -> None:
        self.system.net.cut_oneway(src, dst)

    def _do_heal_oneway(self, src: str, dst: str) -> None:
        self.system.net.heal_oneway(src, dst)

    def _do_partition_groups(self, side_a, side_b) -> None:
        self.system.net.partition_groups(list(side_a), list(side_b))

    def _do_heal_groups(self, side_a, side_b) -> None:
        self.system.net.heal_groups(list(side_a), list(side_b))

    def _do_heal_all(self) -> None:
        self.system.net.heal_all()

    # -- traffic windows ----------------------------------------------------

    def _do_loss_burst(self, duration: float, probability: float) -> None:
        self.system.net.schedule_loss_burst(
            self.system.sim.now, duration, probability
        )

    def _do_delay_spike(self, duration: float, extra: float) -> None:
        self.system.net.schedule_delay_spike(
            self.system.sim.now, duration, extra
        )

    def _do_overload_burst(self, duration: float, factor: float) -> None:
        """Flash crowd: multiply every client's arrival rate for a
        window, then restore.  Multiplicative (not assignment) so
        overlapping bursts compose and unwind cleanly; only clients with
        a think time react — back-to-back closed-loop clients are already
        issuing as fast as replies allow."""
        clients = list(getattr(self.system, "clients", ()))
        for client in clients:
            client.load_factor *= factor

        def restore() -> None:
            for client in clients:
                client.load_factor /= factor

        self.system.sim.schedule(duration, restore)
