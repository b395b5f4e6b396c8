"""Synthetic social-graph generation (Higgs Twitter dataset substitute).

The experiments depend on two structural properties of the Higgs graph:

* **power-law in-degree** — a few celebrities have enormous follower
  counts, so their posts are multi-partition commands touching many
  nodes;
* **community structure / reciprocity** — most edges connect users who
  are close in the graph, so a good partitioner can co-locate most
  follower relationships.

Preferential attachment with reciprocal follow-backs reproduces both.
``load_snap_edge_list`` ingests the real dataset when available
(``higgs-social_network.edgelist`` format: one ``follower followee``
pair per line).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional


class SocialGraph:
    """Directed follower graph: ``following[u]`` = users u follows,
    ``followers[u]`` = users following u."""

    def __init__(self) -> None:
        self.following: dict[int, set[int]] = {}
        self.followers: dict[int, set[int]] = {}
        #: user -> its followers as a sorted tuple, built when first asked
        #: for and dropped when they change: every post of the user shares
        #: the one tuple (and every command and history entry holding it).
        self._follower_tuples: dict[int, tuple] = {}

    def add_user(self, user: int) -> None:
        self.following.setdefault(user, set())
        self.followers.setdefault(user, set())

    def add_follow(self, follower: int, followee: int) -> None:
        if follower == followee:
            return
        self.add_user(follower)
        self.add_user(followee)
        self.following[follower].add(followee)
        self.followers[followee].add(follower)
        self._follower_tuples.pop(followee, None)

    def remove_follow(self, follower: int, followee: int) -> None:
        self.following.get(follower, set()).discard(followee)
        self.followers.get(followee, set()).discard(follower)
        self._follower_tuples.pop(followee, None)

    def follower_tuple(self, user: int) -> tuple:
        """The followers of ``user``, sorted, as a shared tuple."""
        followers = self._follower_tuples.get(user)
        if followers is None:
            followers = tuple(sorted(self.followers.get(user, ())))
            self._follower_tuples[user] = followers
        return followers

    @property
    def num_users(self) -> int:
        return len(self.following)

    @property
    def num_edges(self) -> int:
        return sum(len(f) for f in self.following.values())

    def users(self) -> list[int]:
        return list(self.following)

    def in_degree(self, user: int) -> int:
        return len(self.followers[user])

    def max_in_degree(self) -> int:
        return max((len(f) for f in self.followers.values()), default=0)

    def users_by_popularity(self) -> list[int]:
        """Users sorted most-followed first (rank 1 = top celebrity)."""
        return sorted(self.followers, key=lambda u: -len(self.followers[u]))


def generate_social_graph(
    n_users: int,
    avg_follows: float = 20.0,
    reciprocity: float = 0.25,
    seed: int = 0,
) -> SocialGraph:
    """Preferential-attachment follower graph.

    Each new user follows ``~avg_follows`` existing users chosen
    proportionally to their current popularity (in-degree + 1); each
    follow is reciprocated with probability ``reciprocity``.  The result
    has a power-law in-degree tail like the Higgs network (whose mean
    degree is ~32; we default lower so small simulations stay fast —
    pass ``avg_follows=32`` for Higgs-like density).
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    rng = random.Random(seed)
    graph = SocialGraph()
    graph.add_user(0)
    # Repeated-nodes list: sampling uniformly from it approximates
    # degree-proportional selection (standard BA trick, O(1) per draw).
    attachment: list[int] = [0]

    for user in range(1, n_users):
        graph.add_user(user)
        n_follows = max(1, min(user, int(rng.expovariate(1.0 / avg_follows)) + 1))
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < n_follows and attempts < n_follows * 4:
            attempts += 1
            target = attachment[rng.randrange(len(attachment))]
            if target != user:
                chosen.add(target)
        for target in chosen:
            graph.add_follow(user, target)
            attachment.append(target)
            attachment.append(user)
            if rng.random() < reciprocity:
                graph.add_follow(target, user)
                attachment.append(user)
    return graph


def load_snap_edge_list(path: str, max_users: Optional[int] = None) -> SocialGraph:
    """Load a SNAP-format directed edge list (``follower followee`` per
    line, ``#`` comments ignored) — e.g. the real Higgs social network."""
    graph = SocialGraph()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            follower, followee = int(parts[0]), int(parts[1])
            if max_users is not None and (
                follower >= max_users or followee >= max_users
            ):
                continue
            graph.add_follow(follower, followee)
    return graph
