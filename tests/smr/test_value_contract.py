"""The stored-value contract: a value is immutable once it is in a
:class:`VariableStore`.

Stores, transfers, returns, plan moves, checkpoints and learner mirrors
share values by reference, so an ``execute`` that mutates what
``store.get`` returned would apply its write to every holder at once —
and ``check_run`` could not see it, because the stores stay
equal.  Two searches for such a mutation:

* the **alias guard** keeps a deep copy of every value at ``put`` time
  and, after each command of a real seeded generator, compares every
  object the store held before the command with its copy;
* the **sharing property** runs one command stream on two replicas that
  share every initial value and on two that were given deep copies, and
  requires identical results and final states.

:func:`repro.smr.fastcopy.copy_value` is the oracle of both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.overload import MixedOpenWorkload
from repro.smr import Command, KeyValueApp
from repro.smr.command import CommandKind
from repro.smr.fastcopy import copy_value
from repro.smr.statemachine import VariableStore
from repro.workloads.social import ChirperApp, ChirperWorkload, generate_social_graph
from repro.workloads.tpcc import TPCCApp, TPCCConfig, TPCCWorkload

from tests.core.test_server_unit import WildcardApp
# The module, not its test class: pytest would collect the class again here.
from tests.smr import test_tracking_and_fastcopy as toy

COMMANDS = 300


class AliasGuardStore(VariableStore):
    """A store that remembers, for every variable it holds, the object
    and a deep copy of it taken when it was ``put``."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: dict = {}

    def put(self, var, value) -> None:
        super().put(var, value)
        self.kept[var] = (value, copy_value(value))


class FakeClient:
    name = "c0"
    now = 0.0


def run_guarded(app, commands):
    """Execute ``commands`` on a guarded store, checking after each."""
    store = AliasGuardStore()
    for var, value in app.initial_variables().items():
        store.put(var, value)
    for command in commands:
        before = dict(store.kept)
        try:
            app.execute(command, store)
        except (KeyError, ValueError):
            pass  # a NOK must leave the old objects alone too
        mutated = [var for var, (value, copy) in before.items() if value != copy]
        assert not mutated, (
            f"{type(app).__name__}.execute({command.op!r}) mutated the stored "
            f"value of {mutated[0]!r} in place (command {command.uid})"
        )


def generated(workload, n=COMMANDS):
    client = FakeClient()
    return [workload.next_command(client) for _ in range(n)]


def chirper_case(seed):
    graph = generate_social_graph(40, avg_follows=6, seed=seed)
    app = ChirperApp(graph)  # snapshots the graph before the workload edits it
    workload = ChirperWorkload(
        graph, mix="mix", seed=seed, post_fraction=0.4, follow_fraction=0.2
    )
    return app, generated(workload)


def tpcc_case(seed):
    config = TPCCConfig(
        n_warehouses=2, districts_per_warehouse=3, customers_per_district=5, n_items=20
    )
    return TPCCApp(config), generated(TPCCWorkload(config, seed=seed))


def kv_case(seed):
    app = KeyValueApp({f"k{i}": i for i in range(12)})
    commands = generated(MixedOpenWorkload(12, seed, "c0"))
    # create / delete are not in any generator's mix: add them by hand.
    commands += [
        Command("c0:new", "create", ("fresh",), kind=CommandKind.CREATE),
        Command("c0:del", "delete", ("k3",), kind=CommandKind.DELETE),
        Command("c0:miss", "transfer", ("k3", "k4", 1)),
    ]
    return app, commands


def toy_cases():
    yield WildcardApp(), [
        Command("c:0", "scan", ("left",)),
        Command("c:1", "scan_both", ()),
        Command("c:2", "peek", (("right", 1),)),
    ]
    yield toy.TestNodeWildcardHelpers.App(), [Command("c:0", "op")]


class TestAliasGuard:
    @pytest.mark.parametrize("case", [chirper_case, tpcc_case, kv_case])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_execute_never_mutates_a_stored_value(self, case, seed):
        app, commands = case(seed)
        assert len(commands) >= COMMANDS
        assert len({command.op for command in commands}) >= 3  # a real mix
        run_guarded(app, commands)

    def test_toy_apps_follow_the_contract_too(self):
        for app, commands in toy_cases():
            run_guarded(app, commands)

    def test_guard_names_an_in_place_mutation(self):
        """The guard is not vacuous: an ``execute`` that goes back to
        appending to the stored timeline fails it, and the failure names
        the app, the op and the variable."""

        class InPlaceChirper(ChirperApp):
            def _post(self, command, store):
                user, text, followers = command.args
                for follower in followers:
                    profile = store.get(("user", follower))
                    profile["timeline"] = profile["timeline"] + ((user, text),)
                    store.put(("user", follower), profile)
                return len(followers)

        graph = generate_social_graph(10, avg_follows=3, seed=1)
        author = next(u for u in graph.users() if graph.followers[u])
        follower = min(graph.followers[author])
        post = Command("c0:0", "post", (author, "hi", (follower,)))
        with pytest.raises(AssertionError) as failure:
            run_guarded(InPlaceChirper(graph), [post])
        message = str(failure.value)
        assert "InPlaceChirper" in message and "'post'" in message
        assert repr(("user", follower)) in message

    def test_nested_collections_refuse_in_place_edits(self):
        """Timelines, follower sets and the undelivered queue are tuples
        and frozensets, so an accidental ``.append`` / ``.add`` raises
        instead of corrupting every holder of the value."""
        profile = ChirperApp().initial_value_of(("user", 1))
        for field in ("followers", "following", "timeline"):
            assert isinstance(profile[field], (tuple, frozenset))
        district = TPCCApp(TPCCConfig(n_warehouses=1)).initial_variables()[("D", 1, 1)]
        assert isinstance(district["undelivered"], tuple)


# -- sharing property -----------------------------------------------------------

_USERS = st.integers(min_value=0, max_value=5)
_chirper_ops = st.one_of(
    st.tuples(
        st.just("post"), _USERS, st.text(max_size=6),
        st.lists(_USERS, max_size=4, unique=True).map(tuple),
    ),
    st.tuples(st.just("timeline"), _USERS),
    st.tuples(st.just("follow"), _USERS, _USERS),
    st.tuples(st.just("unfollow"), _USERS, _USERS),
    st.tuples(st.just("create"), _USERS),
    st.tuples(st.just("delete"), _USERS),
)
_KEYS = st.sampled_from(["a", "b", "c", "d"])
_kv_ops = st.one_of(
    st.tuples(st.just("read"), _KEYS),
    st.tuples(st.just("write"), _KEYS, st.integers(-5, 5)),
    st.tuples(st.just("sum"), _KEYS, _KEYS),
    st.tuples(st.just("transfer"), _KEYS, _KEYS, st.integers(0, 3)),
    st.tuples(st.just("create"), _KEYS),
    st.tuples(st.just("delete"), _KEYS),
)


def run_replicated(app, commands, populate):
    """Two replicas executing every command in turn, their stores filled
    from one ``initial_variables()`` dict through ``populate``."""
    initial = app.initial_variables()
    replicas = [VariableStore(), VariableStore()]
    for store in replicas:
        for var, value in initial.items():
            store.put(var, populate(value))
    results = []
    for command in commands:
        for store in replicas:
            try:
                results.append(app.execute(command, store))
            except (KeyError, ValueError) as exc:
                results.append(repr(exc))
    return results, [dict(store.items()) for store in replicas]


def assert_sharing_changes_nothing(app, commands):
    shared = run_replicated(app, commands, populate=lambda value: value)
    copied = run_replicated(app, commands, populate=copy_value)
    assert shared == copied
    _results, (first, second) = shared
    assert first == second


class TestSharedReferencesBehaveLikeCopies:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_chirper_ops, max_size=25))
    def test_chirper(self, ops):
        graph = generate_social_graph(6, avg_follows=2, seed=3)
        commands = [Command(f"c:{i}", op[0], op[1:]) for i, op in enumerate(ops)]
        assert_sharing_changes_nothing(ChirperApp(graph), commands)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_kv_ops, max_size=25))
    def test_key_value(self, ops):
        commands = [Command(f"c:{i}", op[0], op[1:]) for i, op in enumerate(ops)]
        app = KeyValueApp({"a": 1, "b": 2, "c": 3})
        assert_sharing_changes_nothing(app, commands)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 60))
    def test_tpcc(self, seed, length):
        app, commands = tpcc_case(seed)
        assert_sharing_changes_nothing(app, commands[:length])
