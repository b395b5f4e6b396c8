"""Snapshot-transfer helpers: adaptive chunk sizing and fetch state.

Chunk sizing follows the idea of Chiba et al. ("A State Transfer Method
That Adapts to Network Bandwidth Variations in Geographic SMR"): rather
than a fixed chunk size, the requester measures the round-trip delay of
every chunk and steers the next chunk's size toward a target per-chunk
delay — fast links carry large chunks (few round trips), slow or
congested links fall back to small chunks (fast retransmission, little
wasted work per loss).  The adjustment is multiplicative with a
smoothing clamp (at most doubling or halving per step) so one outlier
RTT cannot whipsaw the transfer.

The simulated network delays a message by its link's latency alone
(``Network.send``'s ``size`` is only counted), so here a chunk's round
trip does not depend on its size: on a LAN every round trip is under
``target_rtt`` and doubles the chunk, up to ``SNAPSHOT_CHUNK_MAX``, and
only a timeout (:meth:`AdaptiveChunker.shrink`) halves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: A recovering replica's snapshot fetch: per-request retransmission
#: timeout (virtual seconds), consecutive timeouts before the provider
#: is presumed dead, and the first and largest chunk (in items).
SNAPSHOT_RETRY = 0.3
SNAPSHOT_GIVEUP = 4
SNAPSHOT_CHUNK_INIT = 8
SNAPSHOT_CHUNK_MAX = 128


class AdaptiveChunker:
    """Chooses how many snapshot items to request per chunk.

    ``observe(rtt)`` feeds back the measured request->chunk delay; the
    next :attr:`count` is scaled by ``target_rtt / rtt``, clamped to
    [0.5x, 2x] per observation and to [min_count, max_count] overall.
    Deterministic: the same RTT sequence always yields the same sizes.
    """

    def __init__(
        self,
        initial: int = SNAPSHOT_CHUNK_INIT,
        min_count: int = 1,
        max_count: int = SNAPSHOT_CHUNK_MAX,
        target_rtt: float = 0.05,
    ):
        if not min_count <= initial <= max_count:
            raise ValueError("initial chunk size outside [min, max]")
        if target_rtt <= 0:
            raise ValueError("target_rtt must be positive")
        self.count = initial
        self.min_count = min_count
        self.max_count = max_count
        self.target_rtt = target_rtt

    def observe(self, rtt: float) -> int:
        """Record one chunk's RTT; returns the next chunk size."""
        if rtt <= 0:
            factor = 2.0
        else:
            factor = min(2.0, max(0.5, self.target_rtt / rtt))
        scaled = int(self.count * factor)
        self.count = max(self.min_count, min(self.max_count, max(1, scaled)))
        return self.count

    def shrink(self) -> int:
        """Halve the chunk size (after a timeout/retransmission)."""
        self.count = max(self.min_count, self.count // 2)
        return self.count


@dataclass
class SnapshotFetch:
    """Volatile state of one in-progress snapshot download.

    Lives on the recovering replica from the first ``SnapshotRequest``
    broadcast until the snapshot is installed (or the fetch is abandoned
    and restarted against another provider under a new epoch).
    """

    epoch: int
    chunker: AdaptiveChunker = field(
        default_factory=lambda: AdaptiveChunker(
            SNAPSHOT_CHUNK_INIT, max_count=SNAPSHOT_CHUNK_MAX
        )
    )
    provider: Optional[str] = None
    snapshot_id: str = ""
    watermark: int = -1
    total_items: int = 0
    offset: int = 0
    items: list = field(default_factory=list)
    requested_at: float = 0.0
    timeouts: int = 0
    chunks: int = 0

    @property
    def discovering(self) -> bool:
        """True while no provider has answered with a SnapshotMeta yet."""
        return self.provider is None

    @property
    def complete(self) -> bool:
        return self.provider is not None and self.offset >= self.total_items
