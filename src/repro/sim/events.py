"""Event heap and virtual clock.

The simulator is a priority queue of timestamped callbacks.  Ties on the
timestamp are broken by a monotonically increasing sequence number so the
execution order of simultaneous events is deterministic and insertion
ordered.

Hot-path layout: the heap stores ``(time, seq, event)`` tuples so
ordering uses C-level tuple comparison instead of a Python ``__lt__``
call per sift step.  Cancelled events are skipped when popped and
lazily compacted in bulk once they outnumber live events — ordering of
live events is untouched by compaction, so seeded runs replay
byte-identically (see DESIGN.md §7, "Virtual-time semantics").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Compact the heap only past this size — tiny heaps are not worth it.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` and can be
    cancelled with :meth:`Simulator.cancel` (or :meth:`Event.cancel`).
    Cancelled events stay in the heap but are skipped when popped (and
    reclaimed in bulk by lazy compaction); they drop their callback and
    arguments at once, so what those captured is not kept until then.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Owning simulator while the event sits in its heap; cleared on
        #: pop so a late ``cancel()`` of an already-fired event does not
        #: corrupt the live-event accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Mark this event so it will not fire."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq} fn={self.fn!r}{state}>"


def _describe(event: Event) -> str:
    """``Owner.method(arguments)`` of a callback: names as they are,
    everything else by type, so a delivery reads ``Network._deliver('p0/rep0',
    'client3', Reply)``; plus the bound object when it describes itself (a
    timer names its actor and what it fires)."""
    fn = event.fn
    args = ", ".join(
        repr(arg) if isinstance(arg, str) else type(arg).__name__
        for arg in event.args
    )
    text = f"{getattr(fn, '__qualname__', repr(fn))}({args})"
    owner = getattr(fn, "__self__", None)
    if owner is not None and type(owner).__repr__ is not object.__repr__:
        text += f" of {owner!r}"
    return text


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.0, print, "one virtual second elapsed")
        sim.run(until=10.0)

    The clock unit is the *simulated second*; all latency models and
    experiment durations in this repository are expressed in seconds.
    """

    def __init__(self) -> None:
        #: Heap of (time, seq, Event) entries (tuple comparison never
        #: reaches the Event: seq is unique).
        self._heap: list[tuple] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Cancelled events still sitting in the heap.
        self._cancelled = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled before it fires.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now + delay, seq, fn, args, self)
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        ``time`` values derived arithmetically from ``now`` can carry a
        microscopic negative float residue (e.g. ``(now + d) - d`` a few
        ulps below ``now``); deltas in ``[-1e-12, 0]`` are clamped to
        zero instead of raising :class:`SimulationError`.
        """
        delay = time - self._now
        if -1e-12 <= delay < 0.0:
            delay = 0.0
        return self.schedule(delay, fn, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel` for events
        still in the heap; triggers lazy compaction once cancelled
        entries outnumber live ones."""
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and self._cancelled * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.  Live events keep
        their (time, seq) keys, so pop order — and therefore any seeded
        run — is unaffected."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def peek_time(self) -> Optional[float]:
        """Return the virtual time of the next pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed
        by this call.

        When ``until`` is given the clock is advanced to exactly ``until``
        if (and only if) the heap is genuinely drained past it, so
        repeated ``run(until=...)`` calls tile time contiguously.  When
        the loop exits early — via ``max_events`` or :meth:`stop` — with
        live events still queued at or before ``until``, the clock stays
        at the last fired event so virtual time never moves backwards on
        the next call (see DESIGN.md, "Virtual-time semantics").

        The clock is updated *before* each callback runs, and the
        processed counters before control transfers to it, so an
        exception escaping a callback leaves the simulator consistent:
        ``now`` equals the failing event's time, the event counts include
        it, and ``run`` may be called again to continue with the
        remaining events.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        event = None
        try:
            # self._heap is re-read every iteration on purpose: a
            # callback may cancel events and trigger compaction, which
            # replaces the list object.
            while self._heap and not self._stopped:
                time_, _seq, event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time_ > until:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heapq.heappop(self._heap)
                event._sim = None
                self._now = time_
                processed += 1
                self.events_processed += 1
                event.fn(*event.args)
            if until is not None and not self._stopped and self._now < until:
                next_live = self.peek_time()
                if next_live is None or next_live > until:
                    self._now = until
            return processed
        except BaseException as exc:
            # Fail with context: here, outside the loop, the note costs a
            # run that does not fail nothing.  The same exception object
            # is re-raised.
            if event is not None and event.fn is not None:
                exc.add_note(
                    f"while the simulator ran {_describe(event)} at virtual time "
                    f"{self._now:.6f} (event {self.events_processed})"
                )
            raise
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1):
        maintained from the heap size and the cancelled-entry count."""
        return len(self._heap) - self._cancelled
