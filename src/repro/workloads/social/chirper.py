"""The Chirper application state machine (§5.4).

Each user is one state variable (and one workload-graph node) holding
their profile: follower/following frozensets and a bounded timeline
tuple, newest entry first — immutable once stored, so every change
builds a new profile (the :meth:`AppStateMachine.execute` contract), and
a timeline read returns the stored tuple itself.  Posting
writes the message to the timeline of every follower — a potentially
multi-partition command; reading the timeline touches only the user's
own node; follow/unfollow touch two nodes.

Posts are capped at 140 characters, like the paper's service.

Operations (the follower list for a post is frozen into the command by
the workload generator, so ``vars(C)`` is static):

* ``("post", user, text, followers_tuple)``
* ``("timeline", user)`` -> the stored tuple of (author, text), newest
  first
* ``("follow", follower, followee)``
* ``("unfollow", follower, followee)``
"""

from __future__ import annotations

from typing import Hashable

from repro.smr.command import Command
from repro.smr.statemachine import AppStateMachine, VariableStore
from repro.workloads.social.generator import SocialGraph

#: Timeline entries kept per user (bounds memory in long runs).
TIMELINE_LIMIT = 50

#: Paper constraint: 140-character messages.
POST_LIMIT = 140


#: user -> its variable id, one tuple per user for the life of the process
#: (client caches, client tables and graphs all hold these by the thousand).
_USER_VARS: dict[int, tuple] = {}


def user_var(user: int) -> tuple:
    """The state-variable id for a user."""
    var = _USER_VARS.get(user)
    if var is None:
        var = _USER_VARS[user] = ("user", user)
    return var


def _new_profile() -> dict:
    return {
        "followers": frozenset(),
        "following": frozenset(),
        "timeline": (),
        "posts": 0,
    }


class ChirperApp(AppStateMachine):
    """Chirper on DynaStar: one variable == one user == one graph node."""

    def __init__(self, graph: SocialGraph | None = None):
        self._graph = graph or SocialGraph()

    # -- bootstrap -------------------------------------------------------

    def initial_variables(self) -> dict:
        variables = {}
        for user in self._graph.users():
            variables[user_var(user)] = {
                **_new_profile(),
                "followers": frozenset(self._graph.followers[user]),
                "following": frozenset(self._graph.following[user]),
            }
        return variables

    def initial_value_of(self, var: Hashable) -> dict:
        return _new_profile()

    # -- routing ------------------------------------------------------------

    def variables_of(self, command: Command) -> frozenset:
        op = command.op
        if op == "post":
            user, _text, followers = command.args
            return frozenset({user_var(user)} | {user_var(f) for f in followers})
        if op == "timeline":
            return frozenset({user_var(command.args[0])})
        if op in ("follow", "unfollow"):
            a, b = command.args
            return frozenset({user_var(a), user_var(b)})
        if op in ("create", "delete"):
            return frozenset({user_var(command.args[0])})
        raise ValueError(f"unknown chirper op {op!r}")

    def is_readonly(self, command: Command) -> bool:
        return command.op == "timeline"

    def read_variables_of(self, command: Command) -> frozenset:
        # Only timelines are pure reads; post mutates the author (post
        # count) and every follower timeline, follow/unfollow mutate
        # both profiles — all writes.
        if command.op == "timeline":
            return self.variables_of(command)
        return frozenset()

    # -- execution -----------------------------------------------------------

    def execute(self, command: Command, store: VariableStore):
        op = command.op
        if op == "post":
            return self._post(command, store)
        if op == "timeline":
            # Deterministic miss: a timeline read racing the user's
            # delete returns None instead of crashing the replica.
            profile = store.get_or_none(user_var(command.args[0]))
            if profile is None:
                return None
            return profile["timeline"]  # immutable: the stored tuple itself
        if op == "follow":
            return self._follow(command, store, add=True)
        if op == "unfollow":
            return self._follow(command, store, add=False)
        if op == "create":
            store.put(user_var(command.args[0]), _new_profile())
            return True
        if op == "delete":
            store.discard(user_var(command.args[0]))
            return True
        raise ValueError(f"unknown chirper op {op!r}")

    def _post(self, command: Command, store: VariableStore):
        user, text, followers = command.args
        if len(text) > POST_LIMIT:
            raise ValueError(f"post exceeds {POST_LIMIT} characters")
        if user_var(user) not in store:
            # Author deleted since the command was issued: a clean NOK
            # before any follower timeline is touched.
            raise KeyError(user_var(user))
        author = store.get(user_var(user))
        store.put(user_var(user), {**author, "posts": author["posts"] + 1})
        entry = (user, text)
        delivered = 0
        for follower in followers:
            var = user_var(follower)
            if var not in store:
                continue  # follower deleted since the command was issued
            profile = store.get(var)
            timeline = ((entry,) + profile["timeline"])[:TIMELINE_LIMIT]
            store.put(var, {**profile, "timeline": timeline})
            delivered += 1
        return delivered

    def _follow(self, command: Command, store: VariableStore, add: bool):
        follower, followee = command.args
        fv, ev = user_var(follower), user_var(followee)
        # Validate both profiles before mutating either (no half-applied
        # follow edge when one side was deleted).
        if fv not in store:
            raise KeyError(fv)
        if ev not in store:
            raise KeyError(ev)
        # One read-and-put per side, in turn: a self-follow names one
        # profile twice and the second edit must see the first.
        edits = ((fv, "following", followee), (ev, "followers", follower))
        for var, field, other in edits:
            profile = store.get(var)
            members = profile[field]
            store.put(var, {
                **profile,
                field: members | {other} if add else members - {other},
            })
        return True
