"""Seeded randomness utilities.

Determinism rules for this repository:

* Every experiment takes a single integer ``seed``.
* Components never construct their own unseeded RNGs; they request a
  named stream from a :class:`SeedSequenceFactory`, which derives a child
  seed from (root seed, stream name).  Adding a new component therefore
  never perturbs the random numbers drawn by existing ones.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from typing import Any, Sequence


def stable_hash(value: Any) -> int:
    """A 64-bit hash of ``repr(value)`` that is the same in every
    process: builtin ``hash`` of a str or tuple is salted by
    ``PYTHONHASHSEED``, so a seeded run may never branch on it."""
    return int.from_bytes(
        hashlib.sha256(repr(value).encode()).digest()[:8], "big"
    )


class SeedSequenceFactory:
    """Derives independent named RNG streams from a root seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def child_seed(self, name: str) -> int:
        """A stable 64-bit seed for the stream called ``name``."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def rng(self, name: str) -> random.Random:
        """A :class:`random.Random` dedicated to the stream ``name``."""
        return random.Random(self.child_seed(name))


def zipf_cdf(n: int, rho: float) -> list[float]:
    """Cumulative distribution of a Zipf law over ranks ``1..n``.

    ``rho`` is the skew exponent (the paper uses 0.95 for the social
    network workload).  Returned list has length ``n`` with final entry 1.0.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    weights = [1.0 / math.pow(rank, rho) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


class ZipfGenerator:
    """Draws ranks from a Zipf(rho) distribution over ``1..n``.

    Uses an O(log n) inverse-CDF lookup; the CDF is precomputed once,
    making repeated draws cheap enough for hot workload loops.
    """

    def __init__(self, n: int, rho: float, rng: random.Random):
        self._cdf = zipf_cdf(n, rho)
        self._rng = rng
        self.n = n
        self.rho = rho

    def draw(self) -> int:
        """A rank in ``1..n`` (rank 1 is the most popular)."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u) + 1

    def draw_index(self) -> int:
        """A zero-based index in ``0..n-1``."""
        return self.draw() - 1


def weighted_choice(rng: random.Random, items: Sequence, weights: Sequence[float]):
    """Pick one of ``items`` proportionally to ``weights``."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if u <= acc:
            return item
    return items[-1]
