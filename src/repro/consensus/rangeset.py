"""The set a replica keeps of the uids it has delivered.

Most uids are one of a *stream*: a sender numbers what it sends to one
destination set 0, 1, 2, ... and the uid is the pair ``(stream, n)``.
Those are stored as sorted disjoint ranges per stream: a stream
delivered without gaps costs two integers however long it runs, an
``n`` that never arrives one more range.  It is the same set, losslessly
compressed — nothing is pruned, no clock decides membership.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Hashable


class RangeSet:
    """A grow-only set of uids.  A ``tuple`` uid is a ``(stream, n)``
    pair (``stream`` hashable, ``n`` an int); any other is kept as it is."""

    __slots__ = ("_bounds", "_rest")

    def __init__(self) -> None:
        #: stream -> [lo0, hi0, lo1, hi1, ...]: half-open ranges, sorted,
        #: disjoint and never adjacent.
        self._bounds: dict[Hashable, list[int]] = {}
        self._rest: set = set()

    def add(self, uid: Hashable) -> bool:
        """Add ``uid``; whether it was new."""
        if type(uid) is not tuple:
            new = uid not in self._rest
            self._rest.add(uid)
            return new
        stream, n = uid
        bounds = self._bounds.get(stream)
        if bounds is None:
            bounds = self._bounds[stream] = []
        at = bisect_right(bounds, n)
        if at % 2:
            return False  # inside a range
        # In the gap before the range that starts at ``bounds[at]``.
        joins_left = at > 0 and bounds[at - 1] == n
        joins_right = at < len(bounds) and bounds[at] == n + 1
        if joins_left and joins_right:
            del bounds[at - 1 : at + 1]
        elif joins_left:
            bounds[at - 1] = n + 1
        elif joins_right:
            bounds[at] = n
        else:
            bounds[at:at] = (n, n + 1)
        return True

    def __contains__(self, uid: Hashable) -> bool:
        if type(uid) is not tuple:
            return uid in self._rest
        bounds = self._bounds.get(uid[0])
        return bounds is not None and bisect_right(bounds, uid[1]) % 2 == 1

    def __len__(self) -> int:
        return len(self._rest) + sum(
            sum(bounds[1::2]) - sum(bounds[::2]) for bounds in self._bounds.values()
        )

    def stored(self) -> int:
        """Entries held, a range or a plain uid each: what must not grow
        with the length of a run (``len`` counts members)."""
        return len(self._rest) + sum(len(b) // 2 for b in self._bounds.values())

    def capture(self) -> dict:
        """Canonical checkpoint form (sorted, sharing nothing mutable)."""
        ranges = ((stream, tuple(b)) for stream, b in self._bounds.items())
        return {
            "ranges": sorted(ranges, key=repr),
            "rest": sorted(self._rest, key=repr),
        }

    def install(self, state: dict) -> None:
        """Inverse of :meth:`capture` (``{}`` installs the empty set)."""
        self._bounds = {s: list(b) for s, b in state.get("ranges", ())}
        self._rest = set(state.get("rest", ()))
