"""Actor model on top of the event heap.

An :class:`Actor` is a named node in the simulated system.  It receives
messages through :meth:`Actor.on_message` (scheduled by the network with a
sampled latency) and can set virtual-time timers.  Actors are single
threaded by construction: at most one handler runs at a time, which makes
protocol state machines easy to reason about and test.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.events import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network


class Timer:
    """A cancellable, optionally periodic virtual-time timer of one actor.

    The timer is a handle on at most one pending :class:`Event`.  It is
    *armed* while that event sits in the heap, and the owning actor tracks
    it in ``Actor._timers`` exactly that long: once a one-shot timer fires
    or any timer is cancelled, neither the actor nor the simulator refers
    to it (see DESIGN.md §7, "Timer lifecycle").
    """

    __slots__ = ("_actor", "_delay", "_callback", "_periodic", "_event", "__weakref__")

    def __init__(
        self,
        actor: "Actor",
        delay: float,
        callback: Callable[[], Any],
        *,
        periodic: bool = False,
    ):
        self._actor = actor
        self._delay = delay
        self._callback = callback
        self._periodic = periodic
        self._event: Optional[Event] = None
        self._arm()

    def _arm(self) -> None:
        actor = self._actor
        self._event = actor.sim.schedule(self._delay, self._fire)
        actor._timers[self] = None

    def _fire(self) -> None:
        actor = self._actor
        if self._periodic:
            self._arm()
        else:
            self._event = None
            del actor._timers[self]
        # A timer armed on an already crashed actor is not in the set
        # ``crash`` cancelled; it stays silent until the actor recovers.
        if not actor.crashed:
            self._callback()

    def cancel(self) -> None:
        event = self._event
        if event is not None:
            self._event = None
            del self._actor._timers[self]
            event.cancel()

    @property
    def active(self) -> bool:
        """True while the timer still has a future firing pending."""
        return self._event is not None

    def reset(self) -> None:
        """Cancel the pending firing, if any, and re-arm from now."""
        self.cancel()
        self._arm()

    def __repr__(self) -> str:
        callback = getattr(self._callback, "__qualname__", repr(self._callback))
        return f"<Timer {self._actor.name} {callback}>"


class Actor:
    """A named process in the simulated distributed system.

    Subclasses override :meth:`on_message`.  Actors send messages through
    the network they are registered with; a crashed actor silently drops
    everything it receives and all of its timers stop firing.
    """

    def __init__(self, name: str):
        self.name = name
        self.network: Optional["Network"] = None
        self.crashed = False
        #: Armed timers only, in arming order (a dict used as an ordered set).
        self._timers: dict[Timer, None] = {}

    # -- wiring -----------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        if self.network is None:
            raise RuntimeError(f"actor {self.name!r} is not attached to a network")
        return self.network.sim

    @property
    def now(self) -> float:
        return self.sim.now

    # -- messaging --------------------------------------------------------

    def send(self, dest: str, message: Any) -> None:
        """Send ``message`` to actor named ``dest`` (one-way, may be lost
        if the destination crashed or the network drops it)."""
        if self.network is None:
            raise RuntimeError(f"actor {self.name!r} is not attached to a network")
        if self.crashed:
            return
        self.network.send(self.name, dest, message)

    def send_all(self, dests, message: Any) -> None:
        """Send ``message`` to every actor in ``dests``."""
        for dest in dests:
            self.send(dest, message)

    def on_message(self, sender: str, message: Any) -> None:
        """Handle a delivered message; subclasses override."""
        raise NotImplementedError

    def deliver(self, sender: str, message: Any) -> None:
        """Entry point used by the network; drops if crashed."""
        if self.crashed:
            return
        self.on_message(sender, message)

    # -- timers -----------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], Any]) -> Timer:
        """Run ``callback`` once after ``delay`` virtual seconds."""
        return Timer(self, delay, callback)

    def set_periodic_timer(self, period: float, callback: Callable[[], Any]) -> Timer:
        """Run ``callback`` every ``period`` virtual seconds."""
        return Timer(self, period, callback, periodic=True)

    # -- fault injection ----------------------------------------------------

    def crash(self) -> None:
        """Crash-stop this actor: drop all future messages and timers."""
        self.crashed = True
        for timer in list(self._timers):
            timer.cancel()

    def recover(self) -> None:
        """Clear the crashed flag and invoke :meth:`on_recover`.

        The crash-recovery model (§2.1): state the subclass treats as
        *stable storage* survives in the Python object; everything
        volatile (timers, in-flight bookkeeping) was lost at
        :meth:`crash` and must be rebuilt in :meth:`on_recover`.
        Recovering a live actor is a no-op.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()

    def on_recover(self) -> None:
        """Hook for subclasses: rebuild volatile state and re-arm timers
        after a crash.  The base actor has nothing to rebuild."""

    def __repr__(self) -> str:
        state = " CRASHED" if self.crashed else ""
        return f"<{type(self).__name__} {self.name}{state}>"
