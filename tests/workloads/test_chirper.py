"""Tests for the Chirper state machine and workload, standalone and
end-to-end on DynaStar."""

import pytest

from repro.core import DynaStarSystem, SystemConfig
from repro.sim import ConstantLatency
from repro.smr import Command
from repro.smr.statemachine import VariableStore
from repro.workloads.social import (
    CelebrityEvent,
    ChirperApp,
    ChirperWorkload,
    SocialGraph,
    generate_social_graph,
    user_var,
)


def small_graph():
    g = SocialGraph()
    g.add_follow(1, 0)  # 1 and 2 follow 0
    g.add_follow(2, 0)
    g.add_follow(0, 1)  # 0 follows 1
    g.add_user(3)
    return g


def fresh_store(app):
    store = VariableStore()
    for var, value in app.initial_variables().items():
        store.put(var, value)
    return store


class TestChirperSemantics:
    def setup_method(self):
        self.app = ChirperApp(small_graph())
        self.store = fresh_store(self.app)

    def test_initial_profiles_reflect_graph(self):
        profile = self.store.get(user_var(0))
        assert profile["followers"] == {1, 2}
        assert profile["following"] == {1}

    def test_post_writes_followers_timelines(self):
        cmd = Command("c:0", "post", (0, "hello", (1, 2)))
        delivered = self.app.execute(cmd, self.store)
        assert delivered == 2
        assert self.store.get(user_var(1))["timeline"] == ((0, "hello"),)
        assert self.store.get(user_var(2))["timeline"] == ((0, "hello"),)

    def test_post_does_not_write_own_timeline(self):
        self.app.execute(Command("c:0", "post", (0, "hi", (1,))), self.store)
        assert self.store.get(user_var(0))["timeline"] == ()

    def test_timeline_newest_first(self):
        self.app.execute(Command("c:0", "post", (0, "first", (1,))), self.store)
        self.app.execute(Command("c:1", "post", (0, "second", (1,))), self.store)
        result = self.app.execute(Command("c:2", "timeline", (1,)), self.store)
        assert result == ((0, "second"), (0, "first"))

    def test_timeline_bounded(self):
        from repro.workloads.social.chirper import TIMELINE_LIMIT

        for i in range(TIMELINE_LIMIT + 10):
            self.app.execute(
                Command(f"c:{i}", "post", (0, f"m{i}", (1,))), self.store
            )
        timeline = self.store.get(user_var(1))["timeline"]
        assert len(timeline) == TIMELINE_LIMIT
        assert timeline[0] == (0, f"m{TIMELINE_LIMIT + 9}")  # the newest kept

    def test_140_char_limit(self):
        with pytest.raises(ValueError):
            self.app.execute(
                Command("c:0", "post", (0, "x" * 141, (1,))), self.store
            )

    def test_follow_updates_both_profiles(self):
        self.app.execute(Command("c:0", "follow", (3, 0)), self.store)
        assert 0 in self.store.get(user_var(3))["following"]
        assert 3 in self.store.get(user_var(0))["followers"]

    def test_unfollow(self):
        self.app.execute(Command("c:0", "unfollow", (1, 0)), self.store)
        assert 0 not in self.store.get(user_var(1))["following"]
        assert 1 not in self.store.get(user_var(0))["followers"]

    def test_post_skips_deleted_followers(self):
        self.store.discard(user_var(2))
        delivered = self.app.execute(
            Command("c:0", "post", (0, "hey", (1, 2))), self.store
        )
        assert delivered == 1

    def test_vars_of_post_includes_followers(self):
        cmd = Command("c:0", "post", (0, "hey", (1, 2)))
        assert self.app.variables_of(cmd) == {
            user_var(0),
            user_var(1),
            user_var(2),
        }

    def test_vars_of_timeline_is_single(self):
        assert self.app.variables_of(Command("c:0", "timeline", (5,))) == {
            user_var(5)
        }


class TestChirperWorkload:
    def test_rank_by_random_decorrelates_activity_from_popularity(self):
        g = generate_social_graph(500, avg_follows=10, seed=3)
        wl = ChirperWorkload(g, mix="timeline", seed=4, rank_by="random")
        top = set(g.users_by_popularity()[:50])

        class FakeClient:
            name = "c0"
            now = 0.0

        hits = sum(
            1
            for _ in range(1000)
            if wl.next_command(FakeClient()).args[0] in top
        )
        # decorrelated: popular users get roughly their share, not 30%+
        assert hits < 300

    def test_invalid_rank_by(self):
        g = generate_social_graph(10, seed=1)
        import pytest as _pytest

        with _pytest.raises(ValueError):
            ChirperWorkload(g, rank_by="bogus")

    def test_mix_fractions(self):
        g = generate_social_graph(200, seed=1)
        wl = ChirperWorkload(g, mix="mix", seed=2, post_fraction=0.15)

        class FakeClient:
            name = "c0"
            now = 0.0

        kinds = [wl.next_command(FakeClient()).op for _ in range(2000)]
        posts = kinds.count("post") / len(kinds)
        assert 0.10 < posts < 0.20
        assert kinds.count("timeline") + kinds.count("post") == len(kinds)

    def test_timeline_only_mix(self):
        g = generate_social_graph(100, seed=1)
        wl = ChirperWorkload(g, mix="timeline", seed=2)

        class FakeClient:
            name = "c0"
            now = 0.0

        assert all(
            wl.next_command(FakeClient()).op == "timeline" for _ in range(200)
        )

    def test_zipf_prefers_popular_users_when_ranked_by_popularity(self):
        g = generate_social_graph(500, avg_follows=10, seed=3)
        wl = ChirperWorkload(g, mix="timeline", seed=4, rank_by="popularity")
        top = set(g.users_by_popularity()[:50])

        class FakeClient:
            name = "c0"
            now = 0.0

        hits = sum(
            1
            for _ in range(1000)
            if wl.next_command(FakeClient()).args[0] in top
        )
        assert hits > 300  # 10% of users get >30% of accesses

    def test_commands_per_client_limit(self):
        g = generate_social_graph(50, seed=1)
        wl = ChirperWorkload(g, seed=1, commands_per_client=5)

        class FakeClient:
            name = "c0"
            now = 0.0

        cmds = [wl.next_command(FakeClient()) for _ in range(7)]
        assert sum(c is not None for c in cmds) == 5

    def test_celebrity_event_creates_then_follows(self):
        g = generate_social_graph(100, seed=1)
        event = CelebrityEvent(time=10.0, celebrity=9999, follow_prob=1.0)
        wl = ChirperWorkload(g, seed=2, event=event)

        class FakeClient:
            name = "c0"
            now = 20.0

        first = wl.next_command(FakeClient())
        assert first.op == "create" and first.args == (9999,)
        second = wl.next_command(FakeClient())
        assert second.op == "follow"
        assert second.args[1] == 9999


class TestChirperEndToEnd:
    def test_mixed_workload_runs_clean(self):
        g = generate_social_graph(150, avg_follows=6, seed=5)
        app = ChirperApp(g)
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=4,
                seed=2,
                latency=ConstantLatency(0.0005),
                repartition_enabled=True,
                repartition_threshold=1500,
            ),
        )
        wl = ChirperWorkload(g, mix="mix", seed=3, commands_per_client=100)
        for _ in range(6):
            system.add_client(wl)
        system.run(until=120.0)
        assert system.total_completed() == 600
        assert system.total_failed() == 0

    def test_post_visible_in_follower_timeline_e2e(self):
        g = small_graph()
        app = ChirperApp(g)
        system = DynaStarSystem(
            app,
            SystemConfig(
                n_partitions=2, seed=1, latency=ConstantLatency(0.0005)
            ),
        )
        from repro.core.client import ScriptedWorkload

        client = system.add_client(
            ScriptedWorkload(
                [
                    Command("c:0", "post", (0, "hello world", (1, 2))),
                    Command("c:1", "timeline", (1,)),
                    Command("c:2", "timeline", (3,)),
                ]
            )
        )
        system.run(until=20.0)
        assert client.completed == 3
        assert client.results["c:1"][1] == ((0, "hello world"),)
        assert client.results["c:2"][1] == ()

    def test_celebrity_really_joins_and_is_followed_e2e(self):
        """The oracle names a created variable through the app
        (``variables_of``), not by the command's raw argument: Chirper's
        user 9999 is ``("user", 9999)``.  Before, the create settled
        under ``9999``, the user never existed, and every follow and
        celebrity post came back ``NOK missing`` — Fig. 6 without its
        event; ``check_run`` says so (the graph has a user no store
        holds)."""
        from repro.experiments.harness import check_run

        g = generate_social_graph(100, avg_follows=6, seed=1)
        system = DynaStarSystem(
            ChirperApp(g),
            SystemConfig(n_partitions=2, seed=2, latency=ConstantLatency(0.0005)),
        )
        event = CelebrityEvent(time=0.5, celebrity=9999, follow_prob=0.6)
        wl = ChirperWorkload(g, mix="mix", seed=3, event=event)
        for _ in range(3):
            system.add_client(wl, stop_at=1.5)
        system.run(until=6.5)
        assert wl.stats["create"] == 1
        # only the commands that raced the create itself may miss her
        assert system.total_failed() < 10 < wl.stats["follow"]
        celebrity = system.all_store_variables()[user_var(9999)]
        assert len(celebrity["followers"]) > 10 and celebrity["posts"] > 0
        assert check_run(system) == []
