"""Configuration for the compartmentalized pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass


def _positive_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def _positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass
class CompartmentConfig:
    """Knobs for proxy leaders, read learners and leader leases.

    ``enabled=False`` (the default) is a hard off switch: the system
    builder creates no stage actors and the core protocol is untouched,
    so seeded traces are byte-identical to a non-compartmentalized
    build.
    """

    enabled: bool = False

    #: Proxy-leader stage: how many ingress proxies per partition group,
    #: the longest a submission waits behind the proxy's previous forward
    #: (a quiet proxy forwards at once), and the largest batch.
    n_proxy_leaders: int = 2
    proxy_batch_delay: float = 0.0005
    proxy_max_batch: int = 64

    #: Read-learner stage: how many read-only learners per partition
    #: group.  Each local read executes on exactly one learner, so read
    #: throughput scales with this count.
    n_learners: int = 2

    #: Leader leases.  ``lease_enabled=False`` keeps the stage actors
    #: (proxies still batch writes) but routes every read through the
    #: ordered path — the ablation arm of the read experiments.
    lease_enabled: bool = True
    lease_duration: float = 1.0
    lease_renew_margin: float = 0.3

    #: Learner read protocol: re-probe cadence while the leaseholder
    #: defers, and the deadline after which the learner gives up and
    #: bounces the client to the ordered path with RETRY.
    probe_retry: float = 0.02
    read_deadline: float = 0.5

    #: Slow background full-store resync (learner pulls a snapshot from
    #: a core replica), bounding staleness after lost feed deltas.
    sync_period: float = 1.0

    def __post_init__(self) -> None:
        _positive_int("n_proxy_leaders", self.n_proxy_leaders)
        _positive_int("n_learners", self.n_learners)
        _positive_int("proxy_max_batch", self.proxy_max_batch)
        _positive("proxy_batch_delay", self.proxy_batch_delay)
        _positive("lease_duration", self.lease_duration)
        _positive("lease_renew_margin", self.lease_renew_margin)
        _positive("probe_retry", self.probe_retry)
        _positive("read_deadline", self.read_deadline)
        _positive("sync_period", self.sync_period)
        if self.lease_renew_margin >= self.lease_duration:
            raise ValueError(
                "lease_renew_margin must be smaller than lease_duration, got "
                f"{self.lease_renew_margin!r} >= {self.lease_duration!r}"
            )
