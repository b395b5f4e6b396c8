"""Replica-group construction helpers.

A :class:`PaxosGroup` wires together the acceptors and replicas of one
group (one partition, or the oracle) on a network, mirroring the paper's
deployment of 2 replicas + 3 acceptors per partition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.network import Network
from repro.sim.randomness import stable_hash
from repro.consensus.messages import Submit
from repro.consensus.paxos import Acceptor, PaxosReplica, ReplicaConfig


@dataclass
class GroupConfig:
    """Shape and tuning of a replica group."""

    n_replicas: int = 2
    n_acceptors: int = 3
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)


ReplicaFactory = Callable[..., PaxosReplica]


class PaxosGroup:
    """One replicated group: its acceptors, replicas, and submission API.

    ``replica_factory`` lets higher layers (the atomic multicast, DynaStar
    servers) substitute a :class:`PaxosReplica` subclass; it receives the
    same keyword arguments as the base constructor.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        config: Optional[GroupConfig] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        on_deliver: Optional[Callable[[Any], None]] = None,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self.network = network
        self.config = config or GroupConfig()
        rng = rng or random.Random(stable_hash(name) & 0xFFFF)

        self.acceptor_names = [
            f"{name}/acc{i}" for i in range(self.config.n_acceptors)
        ]
        self.replica_names = [
            f"{name}/rep{i}" for i in range(self.config.n_replicas)
        ]

        self.acceptors = [
            network.register(Acceptor(acc_name)) for acc_name in self.acceptor_names
        ]

        factory = replica_factory or PaxosReplica
        #: What each replica delivered, in order — recorded for bare
        #: groups only: a ``replica_factory`` builds replicas that consume
        #: their deliveries themselves, and a record would grow with the run.
        self._delivered: list[list] = []
        self.replicas = []
        for i, rep_name in enumerate(self.replica_names):
            replica = factory(
                name=rep_name,
                group=name,
                index=i,
                replicas=self.replica_names,
                acceptors=self.acceptor_names,
                config=self.config.replica,
                on_deliver=(
                    on_deliver if replica_factory else self._recorder(on_deliver)
                ),
                rng=random.Random(rng.getrandbits(64)),
            )
            network.register(replica)
            self.replicas.append(replica)

        # Optional compartmentalized stages (attached by the system
        # builder): ingress proxy leaders and read-only learners.  Empty
        # in the default, non-compartmentalized deployment.
        self.proxies: list = []
        self.learners: list = []

    def attach_stages(self, proxies, learners) -> None:
        """Attach the group's compartmentalized stage actors (already
        registered with the network); :meth:`start` arms their timers."""
        self.proxies = list(proxies)
        self.learners = list(learners)

    @property
    def proxy_names(self) -> list[str]:
        return [proxy.name for proxy in self.proxies]

    @property
    def learner_names(self) -> list[str]:
        return [learner.name for learner in self.learners]

    def start(self) -> None:
        """Arm all replica timers; call once the simulation is wired up."""
        for replica in self.replicas:
            replica.start()
        for stage in (*self.proxies, *self.learners):
            stage.start()

    def submit(self, value: Any) -> None:
        """Inject ``value`` for ordering (test convenience; production code
        paths send :class:`Submit` messages through the network instead)."""
        alive = self.alive_replicas
        if alive:
            alive[0].submit(value)

    def submit_via(self, sender, value: Any) -> None:
        """Have actor ``sender`` submit ``value`` by messaging every replica
        (uid-deduplication makes this safe and leader-crash tolerant)."""
        sender.send_all(self.replica_names, Submit(value))

    # -- introspection ----------------------------------------------------

    @property
    def alive_replicas(self) -> list[PaxosReplica]:
        """Replicas that are currently not crashed."""
        return [replica for replica in self.replicas if not replica.crashed]

    @property
    def leader(self) -> Optional[PaxosReplica]:
        for replica in self.replicas:
            if replica.is_leader and not replica.crashed:
                return replica
        return None

    def _recorder(self, on_deliver):
        """A delivery callback that appends to a fresh per-replica record
        before handing the value to ``on_deliver``."""
        log: list = []
        self._delivered.append(log)
        if on_deliver is None:
            return log.append

        def record(value):
            log.append(value)
            on_deliver(value)

        return record

    def delivered_log(self, replica_index: int = 0) -> list:
        """Ordered values a replica has delivered so far (test helper for
        bare groups).  It records deliveries, not the log: ``decided`` is
        truncated at the group-stable prefix, and a prefix adopted from a
        snapshot was never delivered here."""
        return list(self._delivered[replica_index])
