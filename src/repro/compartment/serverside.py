"""The read path, core-replica side: what a
:class:`~repro.core.server.PartitionServer` does for the read learners,
in one component the server builds only when ``CompartmentConfig.enabled``
(``server.reads is None`` otherwise: no store observer, no timer, no
message).

* **learner feed** — a logical version per variable, bumped by the store
  observer on every mutation, shipped to the group's learners as one
  delta per execution and as a full snapshot on request;
* **leader lease** — granted and renewed through the consensus log
  (:mod:`repro.compartment.lease`), abandoned by a holder that can no
  longer trust its own execution state;
* **probe answering** — the valid leaseholder tells a learner which feed
  versions a read must wait for, or why it cannot be served here.

Beyond the actor plumbing (clock, timers, ``send``, ``submit``,
``is_leader``, monitor) it reads the server's ``store``, ``node_vars``
and ``draining`` / ``retired``, and asks two questions about its queue:
``holds(nodes)`` and ``may_still_touch(nodes)``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.compartment.config import CompartmentConfig
from repro.compartment.lease import Lease, apply_grant, held_by
from repro.compartment.messages import (
    ApplyUpdate,
    FeedRequest,
    FeedSnapshot,
    LeaseGrant,
    ProbeReject,
    REMOVED,
    SeqAck,
    SeqProbe,
)


class ReadPath:
    """Learner feed, leader lease and read probes of one core replica."""

    def __init__(self, server, config: CompartmentConfig, learner_names: tuple):
        self.server = server
        self.config = config
        self.learner_names = tuple(learner_names)
        #: Per-variable logical mutation index — the learner-feed version.
        #: Deterministic across replicas for the same executed prefix, and
        #: kept complete (removed variables keep their last version) so
        #: snapshots can carry tombstones.
        self.versions: dict = {}
        self._dirty: set = set()
        self._flush_timer = None
        #: Replicated lease state (applied through the log) plus local
        #: holder-side bookkeeping.
        self.lease: Optional[Lease] = None
        self._lease_seq = 0
        #: A recovered (or fault-injected) holder abandons its own lease:
        #: it stops answering probes and renewing until this time passes,
        #: then re-acquires through the log — which forces it to first
        #: catch up on everything ordered while it was down.
        self._abandoned_until = 0.0
        self._expiry_noted = 0.0
        self._observe_store()

    def _observe_store(self) -> None:
        if self.learner_names:
            self.server.store.set_observer(self._on_mutation)

    def start(self) -> None:
        if self.config.lease_enabled:
            self.server.set_periodic_timer(
                self.config.lease_renew_margin / 2, self._tick
            )

    def on_recover(self) -> None:
        self._flush_timer = None
        self._distrust_own_lease()

    def on_message(self, message: Any) -> None:
        if isinstance(message, SeqProbe):
            self._on_probe(message)
        elif isinstance(message, FeedRequest):
            self.server.send(
                message.learner, FeedSnapshot(self._entries(self.versions))
            )

    def _count(self, event: str) -> None:
        server = self.server
        if server._records_metrics:
            server.monitor.counter(
                "lease", partition=server.partition, event=event
            ).inc()

    # -- learner feed -------------------------------------------------------

    def _on_mutation(self, var: Any, removed: bool) -> None:
        """Store observer (every mutation path funnels through it): bump
        the variable's logical version, remember the dirty entry, and arm
        a zero-delay flush so one execution's writes ship as one delta."""
        self.versions[var] = self.versions.get(var, 0) + 1
        self._dirty.add(var)
        if self._flush_timer is None or not self._flush_timer.active:
            self._flush_timer = self.server.set_timer(0.0, self._flush)

    def _entries(self, variables) -> tuple:
        """``(var, version, value-or-REMOVED)`` of ``variables``, sorted;
        the values are the stored objects, which nothing mutates."""
        values = self.server.store.snapshot(variables)
        return tuple(
            (var, self.versions.get(var, 0), values.get(var, REMOVED))
            for var in sorted(variables, key=repr)
        )

    def _flush(self) -> None:
        if not self._dirty:
            return
        # Learners apply idempotently per key, so every replica feeding
        # every learner is redundancy, not risk.
        delta = ApplyUpdate(self._entries(self._dirty))
        self._dirty.clear()
        self.server.send_all(self.learner_names, delta)

    # -- leader lease -------------------------------------------------------

    def abandon_lease(self) -> None:
        """Stop acting on the current lease, whoever holds it, until it
        has expired (also the ``expire_lease`` fault)."""
        if self.lease is not None:
            self._abandoned_until = max(
                self._abandoned_until, self.lease.expires_at
            )

    def _distrust_own_lease(self) -> None:
        """A recovered holder, or one whose state was just installed from
        a snapshot, cannot vouch for reads against its execution state:
        abandon the lease and re-acquire it through the log after the old
        expiry."""
        if self.lease is not None and self.lease.holder == self.server.name:
            self.abandon_lease()

    def _tick(self) -> None:
        server, lease = self.server, self.lease
        now = server.now
        if (
            lease is not None
            and now >= lease.expires_at
            and self._expiry_noted < lease.expires_at
        ):
            self._expiry_noted = lease.expires_at
            self._count("expired")
        if server.retired or server.draining or not server.is_leader:
            return
        if now < self._abandoned_until:
            return
        if lease is not None:
            if lease.holder == server.name:
                if (
                    now < lease.expires_at
                    and lease.expires_at - now > self.config.lease_renew_margin
                ):
                    return  # still fresh, no renewal needed yet
            elif now < lease.expires_at:
                # Conservative hand-over: never propose over a live lease;
                # the grant would be rejected at apply time anyway.
                return
        self._lease_seq += 1
        server.submit(
            LeaseGrant(
                uid=f"lease:{server.name}:{self._lease_seq}:{now:.6f}",
                holder=server.name,
                granted_at=now,
                expires_at=now + self.config.lease_duration,
            )
        )

    def apply_grant(self, grant: LeaseGrant) -> None:
        """Log-ordered, deterministic: every replica applies the same
        grants in the same order against the same lease state."""
        previous = self.lease
        self.lease, accepted = apply_grant(previous, grant)
        if not accepted:
            self._count("rejected")
        elif previous is not None and previous.holder == grant.holder:
            self._count("renewed")
        else:
            self._count("granted")

    # -- lease-checked read probes ------------------------------------------

    def _on_probe(self, probe: SeqProbe) -> None:
        """Answer a learner's read probe — only as the valid leaseholder.

        Silence (no valid lease, abandoned lease, deferred answer) makes
        the learner re-probe until its deadline; rejection bounces the
        client to the ordered path via RETRY."""
        server = self.server
        if not self.config.lease_enabled:
            return
        if (
            not held_by(self.lease, server.name, server.now)
            or server.now < self._abandoned_until
            or not server.is_leader
        ):
            return
        if server.retired or server.draining:
            server.send(probe.learner, ProbeReject(probe.uid, "retiring"))
            return
        app = server.app
        if not app.is_readonly(probe.command):
            # A mutating command must never be served off a learner
            # mirror — bounce it to the ordered path.
            server.send(probe.learner, ProbeReject(probe.uid, "not-readonly"))
            return
        nodes = app.nodes_of(probe.command)
        if not server.holds(nodes):
            self._count("probe_rejected")
            server.send(probe.learner, ProbeReject(probe.uid, "not-owner"))
            return
        if server.may_still_touch(nodes):
            self._count("probe_deferred")
            return
        versions = []
        for node in sorted(nodes, key=repr):
            for var in sorted(server.node_vars.get(node, ()), key=repr):
                versions.append((var, self.versions.get(var, 0)))
        for var in sorted(app.concrete_variables_of(probe.command), key=repr):
            entry = (var, self.versions.get(var, 0))
            if entry not in versions:
                versions.append(entry)
        self._count("probe_answered")
        server.send(probe.learner, SeqAck(probe.uid, tuple(versions), server.name))

    # -- checkpointing ------------------------------------------------------

    def capture(self) -> dict:
        """The ``compartment.state`` checkpoint section."""
        lease = self.lease
        return {
            "feed_versions": sorted(self.versions.items(), key=repr),
            "lease": (
                None
                if lease is None
                else (lease.holder, lease.granted_at, lease.expires_at)
            ),
            "lease_seq": self._lease_seq,
            "lease_abandoned_until": self._abandoned_until,
        }

    def install(self, state: dict) -> None:
        """Inverse of :meth:`capture`, called once the server's fresh store
        holds the snapshot's variables: the observer is attached to it
        only here, so the install itself bumps no version."""
        self.versions = dict(state.get("feed_versions", ()))
        self._dirty = set()
        self._flush_timer = None
        lease = state.get("lease")
        self.lease = None if lease is None else Lease(*lease)
        self._lease_seq = state.get("lease_seq", 0)
        self._abandoned_until = state.get("lease_abandoned_until", 0.0)
        self._observe_store()
        # Installed state may be ahead of the pre-crash store.
        self._distrust_own_lease()
