"""Chirper client workloads (§6.4).

Clients pick an *active user* per command with a Zipfian distribution
(ρ = 0.95, as in the paper), mapped onto the popularity ranking so the
most-followed users are also the most active — which is what makes posts
touch many partitions and the load skew across partitions (Table 1).

Two mixes from the paper: ``"timeline"`` (reads only) and ``"mix"``
(85 % timeline / 15 % post).  A :class:`CelebrityEvent` reproduces the
Fig 6 dynamic workload: at a given virtual time a new celebrity appears,
users start following them, and the celebrity posts frequently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.client import Workload
from repro.sim.randomness import ZipfGenerator
from repro.smr.command import Command, CommandKind
from repro.workloads.social.generator import SocialGraph


@dataclass
class CelebrityEvent:
    """The Fig 6 scenario: a celebrity joins at ``time``."""

    time: float
    celebrity: int
    follow_prob: float = 0.4
    celebrity_post_prob: float = 0.25


class ChirperWorkload(Workload):
    """Shared by all clients of one experiment (each client's commands are
    numbered independently; the social-graph view is common)."""

    def __init__(
        self,
        graph: SocialGraph,
        mix: str = "mix",
        rho: float = 0.95,
        seed: int = 0,
        post_fraction: float = 0.15,
        follow_fraction: float = 0.0,
        commands_per_client: Optional[int] = None,
        event: Optional[CelebrityEvent] = None,
        rank_by: str = "random",
    ):
        if mix not in ("timeline", "mix"):
            raise ValueError("mix must be 'timeline' or 'mix'")
        if rank_by not in ("random", "popularity"):
            raise ValueError("rank_by must be 'random' or 'popularity'")
        if post_fraction + follow_fraction > 1.0:
            raise ValueError("post + follow fractions exceed 1")
        self.graph = graph
        self.mix = mix
        self.post_fraction = post_fraction if mix == "mix" else 0.0
        #: Fraction of commands that follow/unfollow a random pair —
        #: two-node commands that can move objects (§5.4).
        self.follow_fraction = follow_fraction if mix == "mix" else 0.0
        self.commands_per_client = commands_per_client
        self.event = event
        self.rng = random.Random(seed)
        # The paper selects "a random node as the active user" Zipfian:
        # activity skew is decorrelated from follower count by default.
        # rank_by="popularity" makes celebrities the most active instead
        # (a much harsher workload: every hot post fans out widely).
        if rank_by == "popularity":
            self._ranked = graph.users_by_popularity()
        else:
            self._ranked = sorted(graph.users())
            self.rng.shuffle(self._ranked)
        self._zipf = ZipfGenerator(len(self._ranked), rho, self.rng)
        #: user -> the ``(user,)`` arguments of its timeline reads, shared.
        self._timeline_args: dict[int, tuple] = {}
        self._issued: dict[str, int] = {}
        self._event_started = False
        self._celebrity_created = False

        self.stats = {"timeline": 0, "post": 0, "follow": 0, "create": 0}

    # -- helpers -----------------------------------------------------------

    def _pick_user(self) -> int:
        return self._ranked[self._zipf.draw_index()]

    def _uid(self, client) -> str:
        seq = self._issued.get(client.name, 0)
        self._issued[client.name] = seq + 1
        return f"{client.name}:{seq}"

    def _post_command(self, uid: str, user: int) -> Command:
        followers = self.graph.follower_tuple(user)
        text = f"chirp #{uid[:40]}"
        self.stats["post"] += 1
        return Command(uid, "post", (user, text, followers))

    # -- the generator ---------------------------------------------------------

    def next_command(self, client) -> Optional[Command]:
        issued = self._issued.get(client.name, 0)
        if (
            self.commands_per_client is not None
            and issued >= self.commands_per_client
        ):
            return None
        uid = self._uid(client)

        event = self.event
        if event is not None and client.now >= event.time:
            if not self._event_started:
                self._event_started = True
            if not self._celebrity_created:
                self._celebrity_created = True
                self.graph.add_user(event.celebrity)
                self.stats["create"] += 1
                return Command(
                    uid, "create", (event.celebrity,), kind=CommandKind.CREATE
                )
            roll = self.rng.random()
            if roll < event.follow_prob:
                follower = self._pick_user()
                if event.celebrity not in self.graph.following.get(follower, ()):
                    self.graph.add_follow(follower, event.celebrity)
                    self.stats["follow"] += 1
                    return Command(uid, "follow", (follower, event.celebrity))
            elif roll < event.follow_prob + event.celebrity_post_prob:
                return self._post_command(uid, event.celebrity)

        roll = self.rng.random()
        if roll < self.post_fraction:
            return self._post_command(uid, self._pick_user())
        if roll < self.post_fraction + self.follow_fraction:
            return self._follow_command(uid)
        user = self._pick_user()
        self.stats["timeline"] += 1
        args = self._timeline_args.get(user)
        if args is None:
            args = self._timeline_args[user] = (user,)
        return Command(uid, "timeline", args)

    def _follow_command(self, uid: str) -> Command:
        """Follow (or, half the time, unfollow an existing edge) between
        the active user and a random other user."""
        follower = self._pick_user()
        following = self.graph.following.get(follower, set())
        if following and self.rng.random() < 0.5:
            followee = self.rng.choice(sorted(following))
            self.graph.remove_follow(follower, followee)
            self.stats["follow"] += 1
            return Command(uid, "unfollow", (follower, followee))
        followee = self._pick_user()
        while followee == follower:
            followee = self._pick_user()
        self.graph.add_follow(follower, followee)
        self.stats["follow"] += 1
        return Command(uid, "follow", (follower, followee))
