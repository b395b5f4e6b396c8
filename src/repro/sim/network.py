"""Simulated message-passing network.

Connects actors by name.  Each ``send`` samples a one-way delay from the
applicable latency model and schedules delivery on the event heap.  The
network supports:

* per-destination-pair latency overrides (e.g. cross-datacenter links),
* probabilistic message loss, plus scheduled *loss bursts* (windows of
  elevated loss) and *delay spikes* (windows of added latency) for
  chaos testing,
* network partitions (a set of unordered name pairs that cannot talk),
  including one-way cuts for asymmetric faults,
* message counters for experiment accounting, with per-reason drop
  accounting surfaced through an optional :class:`~repro.sim.monitor.Monitor`.

Reliable channels between correct processes (the system-model assumption
in §2.1 of the paper) are obtained by leaving ``loss_probability`` at 0;
loss is available for stress tests of the retransmission layers.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Optional

from repro.sim.actors import Actor
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.monitor import Monitor


class NetworkPartitionError(RuntimeError):
    """Raised when manipulating partitions with unknown actor names."""


class Network:
    """Name-addressed network with pluggable latency.

    Parameters
    ----------
    sim:
        The event heap messages are scheduled on.
    default_latency:
        Model used for every pair without an override.
    rng:
        RNG used for latency samples and loss draws; pass a seeded stream.
    loss_probability:
        Independent probability that any one message is silently dropped.
        Must be in ``[0, 1)``: probability 1.0 (certain loss) is rejected
        everywhere — model a fully dead link with :meth:`cut` instead.
        The same domain applies to :meth:`schedule_loss_burst` and the
        fault-schedule validator.
    monitor:
        Optional metrics registry; when given, drops are also counted
        per reason under the labeled ``net_drop`` counter
        (``reason=<reason>``).
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        loss_probability: float = 0.0,
        monitor: Optional[Monitor] = None,
    ):
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self.sim = sim
        self.default_latency = default_latency or ConstantLatency(0.0005)
        self.rng = rng or random.Random(0)
        self._loss_probability = loss_probability
        self.monitor = monitor
        self._actors: dict[str, Actor] = {}
        self._pair_latency: dict[tuple[str, str], LatencyModel] = {}
        #: Memoized (src, dst) -> model resolution; cleared whenever an
        #: override is (re)installed.
        self._latency_cache: dict[tuple[str, str], LatencyModel] = {}
        self._cut_links: set[frozenset[str]] = set()
        self._directed_cuts: set[tuple[str, str]] = set()
        self._loss_bursts: list[tuple[float, float, float]] = []
        self._delay_spikes: list[tuple[float, float, float]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.drops_by_reason: dict[str, int] = {}
        #: Memoized labeled drop counters (Monitor.counter re-resolves the
        #: labeled key on every call otherwise).
        self._drop_counters: dict[str, Any] = {}
        self._refresh_fast_path()

    def _refresh_fast_path(self) -> None:
        """(Re)decide whether ``send`` may skip the chaos checks.

        The fast path is valid only while nothing can drop or delay a
        message beyond its latency sample: no base loss, no scheduled
        bursts or spikes, no cuts.  It draws exactly the RNG values the
        general path would (the loss draw is skipped either way when the
        effective probability is 0), so toggling it never perturbs a
        seeded run.
        """
        self._fast_path = (
            self._loss_probability == 0.0
            and not self._loss_bursts
            and not self._delay_spikes
            and not self._cut_links
            and not self._directed_cuts
        )

    @property
    def loss_probability(self) -> float:
        """Independent per-message drop probability, in ``[0, 1)``."""
        return self._loss_probability

    @loss_probability.setter
    def loss_probability(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self._loss_probability = value
        self._refresh_fast_path()

    # -- membership ---------------------------------------------------------

    def register(self, actor: Actor) -> Actor:
        """Attach ``actor``; names must be unique."""
        if actor.name in self._actors:
            raise ValueError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor
        actor.network = self
        return actor

    def actor(self, name: str) -> Actor:
        return self._actors[name]

    @property
    def actor_names(self) -> list[str]:
        return list(self._actors)

    # -- latency configuration ----------------------------------------------

    def set_pair_latency(self, a: str, b: str, model: LatencyModel) -> None:
        """Override latency for both directions between ``a`` and ``b``."""
        self._pair_latency[(a, b)] = model
        self._pair_latency[(b, a)] = model
        self._latency_cache.clear()

    def _latency_for(self, src: str, dst: str) -> LatencyModel:
        return self._pair_latency.get((src, dst), self.default_latency)

    # -- partitions -----------------------------------------------------------

    def cut(self, a: str, b: str) -> None:
        """Sever the bidirectional link between ``a`` and ``b``."""
        for name in (a, b):
            if name not in self._actors:
                raise NetworkPartitionError(f"unknown actor {name!r}")
        self._cut_links.add(frozenset((a, b)))
        self._fast_path = False

    def heal(self, a: str, b: str) -> None:
        """Restore the link between ``a`` and ``b``."""
        for name in (a, b):
            if name not in self._actors:
                raise NetworkPartitionError(f"unknown actor {name!r}")
        self._cut_links.discard(frozenset((a, b)))
        self._refresh_fast_path()

    def partition_groups(self, side_a: list[str], side_b: list[str]) -> None:
        """Cut every link crossing the two sides."""
        for a, b in itertools.product(side_a, side_b):
            self.cut(a, b)

    def heal_groups(self, side_a: list[str], side_b: list[str]) -> None:
        """Restore every link crossing the two sides (the counterpart to
        :meth:`partition_groups`)."""
        for a, b in itertools.product(side_a, side_b):
            self.heal(a, b)

    def cut_oneway(self, src: str, dst: str) -> None:
        """Sever only the ``src -> dst`` direction (asymmetric faults)."""
        for name in (src, dst):
            if name not in self._actors:
                raise NetworkPartitionError(f"unknown actor {name!r}")
        self._directed_cuts.add((src, dst))
        self._fast_path = False

    def heal_oneway(self, src: str, dst: str) -> None:
        for name in (src, dst):
            if name not in self._actors:
                raise NetworkPartitionError(f"unknown actor {name!r}")
        self._directed_cuts.discard((src, dst))
        self._refresh_fast_path()

    def heal_all(self) -> None:
        self._cut_links.clear()
        self._directed_cuts.clear()
        self._refresh_fast_path()

    def link_up(self, a: str, b: str) -> bool:
        return (
            frozenset((a, b)) not in self._cut_links
            and (a, b) not in self._directed_cuts
        )

    # -- chaos windows --------------------------------------------------------

    def schedule_loss_burst(
        self, start: float, duration: float, probability: float
    ) -> None:
        """Raise the loss probability to ``probability`` during the virtual
        time window ``[start, start + duration)``.

        Overlapping bursts do not stack; the maximum of the base
        probability and every active burst applies.
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError("burst probability must be in [0, 1)")
        if duration <= 0:
            raise ValueError("burst duration must be positive")
        self._loss_bursts.append((start, start + duration, probability))
        self._fast_path = False

    def schedule_delay_spike(self, start: float, duration: float, extra: float) -> None:
        """Add ``extra`` seconds of one-way latency to every message sent
        during ``[start, start + duration)``.  Overlapping spikes do not
        stack; the maximum active ``extra`` applies."""
        if extra < 0:
            raise ValueError("delay spike extra must be non-negative")
        if duration <= 0:
            raise ValueError("spike duration must be positive")
        self._delay_spikes.append((start, start + duration, extra))
        self._fast_path = False

    def _effective_loss(self, now: float) -> tuple[float, str]:
        """Return the loss probability in force at ``now`` and the drop
        reason to record if a message loses the draw."""
        p, reason = self.loss_probability, "loss"
        for start, end, prob in self._loss_bursts:
            if start <= now < end and prob > p:
                p, reason = prob, "loss_burst"
        return p, reason

    def _extra_delay(self, now: float) -> float:
        extra = 0.0
        for start, end, amount in self._delay_spikes:
            if start <= now < end and amount > extra:
                extra = amount
        return extra

    # -- transmission ---------------------------------------------------------

    def _drop(self, reason: str) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        if self.monitor is not None:
            counter = self._drop_counters.get(reason)
            if counter is None:
                counter = self.monitor.counter("net_drop", reason=reason)
                self._drop_counters[reason] = counter
            counter.inc()

    def send(self, src: str, dst: str, message: Any, size: int = 1) -> None:
        """Queue ``message`` for delivery from ``src`` to ``dst``.

        Messages to unknown destinations are dropped (the sender cannot
        distinguish this from loss, matching an asynchronous system).
        ``size`` is an abstract payload size used only for accounting.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        if dst not in self._actors:
            self._drop("unknown_destination")
            return
        pair = (src, dst)
        if self._fast_path:
            # Nothing configured can drop or delay this message beyond
            # its latency sample; skip the cut/burst/spike scans.  The
            # general path below draws no extra RNG values in this state,
            # so both paths consume the seeded stream identically.
            model = self._latency_cache.get(pair)
            if model is None:
                model = self._pair_latency.get(pair, self.default_latency)
                self._latency_cache[pair] = model
            self.sim.schedule(model.sample(self.rng), self._deliver, src, dst, message)
            return
        if not self.link_up(src, dst):
            self._drop("link_cut")
            return
        p, loss_reason = self._effective_loss(self.sim.now)
        if p > 0 and self.rng.random() < p:
            self._drop(loss_reason)
            return
        model = self._latency_cache.get(pair)
        if model is None:
            model = self._pair_latency.get(pair, self.default_latency)
            self._latency_cache[pair] = model
        delay = model.sample(self.rng)
        delay += self._extra_delay(self.sim.now)
        self.sim.schedule(delay, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        actor = self._actors.get(dst)
        if actor is None or actor.crashed:
            self._drop("crashed")
            return
        self.messages_delivered += 1
        actor.deliver(src, message)

    # -- stats ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "bytes": self.bytes_sent,
            "drop_reasons": dict(self.drops_by_reason),
        }
