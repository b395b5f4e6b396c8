"""Conflict footprints: the correctness core of the parallel
intra-partition scheduler.

The safety argument for out-of-order execution is entirely local to
``footprint_of``/``footprints_conflict``: two commands may swap their
log order iff their footprints do not conflict.  The property test at
the bottom checks exactly that — *any* conflict-respecting reordering
of a random command sequence produces the same final store and the
same per-command results as serial log order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smr import Command, KeyValueApp
from repro.smr.statemachine import (
    AppStateMachine,
    NodeWildcard,
    Signature,
    VariableStore,
    footprint_of,
    footprints_conflict,
    scheduling_footprints,
)

KEYS = [f"k{i}" for i in range(6)]


def kv_app():
    return KeyValueApp({k: 10 * i for i, k in enumerate(KEYS)})


def fp(app, op, *args):
    return footprint_of(app, Command(f"u:{op}:{args!r}", op, args))


class TestKeyValueFootprints:
    def test_read_is_pure_read(self):
        f = fp(kv_app(), "read", "k0")
        assert f.read_vars == frozenset({"k0"})
        assert f.write_vars == frozenset()

    def test_write_is_pure_write(self):
        f = fp(kv_app(), "write", "k0", 1)
        assert f.write_vars == frozenset({"k0"})
        assert f.read_vars == frozenset()

    def test_sum_reads_every_key(self):
        f = fp(kv_app(), "sum", "k0", "k1", "k2")
        assert f.read_vars == frozenset({"k0", "k1", "k2"})
        assert f.write_vars == frozenset()

    def test_transfer_writes_both_endpoints(self):
        f = fp(kv_app(), "transfer", "k0", "k1", 5)
        assert f.write_vars == frozenset({"k0", "k1"})

    def test_read_read_commutes(self):
        app = kv_app()
        assert not footprints_conflict(
            fp(app, "read", "k0"), fp(app, "sum", "k0", "k1")
        )

    def test_write_read_conflicts(self):
        app = kv_app()
        assert footprints_conflict(
            fp(app, "write", "k0", 1), fp(app, "read", "k0")
        )
        assert footprints_conflict(
            fp(app, "read", "k0"), fp(app, "write", "k0", 1)
        )

    def test_write_write_conflicts(self):
        app = kv_app()
        assert footprints_conflict(
            fp(app, "transfer", "k0", "k1", 1), fp(app, "write", "k1", 9)
        )

    def test_disjoint_commands_commute(self):
        app = kv_app()
        assert not footprints_conflict(
            fp(app, "transfer", "k0", "k1", 1),
            fp(app, "transfer", "k2", "k3", 1),
        )


class WildcardApp(AppStateMachine):
    """Nodes "a"/"b" with vars (node, i); ``scan`` reads a whole node,
    ``clear`` writes a whole node, ``poke`` writes one var."""

    def graph_node_of(self, var):
        return var[0]

    def variables_of(self, command):
        if command.op in ("scan", "clear"):
            return frozenset({NodeWildcard(command.args[0])})
        return frozenset({command.args[0]})

    def read_variables_of(self, command):
        if command.op == "scan":
            return self.variables_of(command)
        return frozenset()


class TestWildcardFootprints:
    def test_scan_vs_poke_same_node_conflicts(self):
        app = WildcardApp()
        assert footprints_conflict(
            fp(app, "scan", "a"), fp(app, "poke", ("a", 1))
        )

    def test_scan_vs_poke_other_node_commutes(self):
        app = WildcardApp()
        assert not footprints_conflict(
            fp(app, "scan", "a"), fp(app, "poke", ("b", 1))
        )

    def test_two_scans_commute(self):
        app = WildcardApp()
        assert not footprints_conflict(fp(app, "scan", "a"), fp(app, "scan", "a"))

    def test_write_wildcard_conflicts_with_reads_of_node(self):
        app = WildcardApp()
        assert footprints_conflict(fp(app, "clear", "a"), fp(app, "scan", "a"))
        assert footprints_conflict(
            fp(app, "clear", "a"), fp(app, "poke", ("a", 0))
        )

    def test_read_wildcard_ignores_concrete_reads(self):
        app = WildcardApp()

        class ReadPoke(WildcardApp):
            def read_variables_of(self, command):
                if command.op in ("scan", "poke"):
                    return self.variables_of(command)
                return frozenset()

        rapp = ReadPoke()
        assert not footprints_conflict(
            fp(rapp, "scan", "a"), fp(rapp, "poke", ("a", 1))
        )
        del app


class TestConflictExemption:
    def test_exempt_entry_leaves_footprint_entirely(self):
        class Exempting(KeyValueApp):
            def conflict_free_variables_of(self, command):
                if command.op == "sum":
                    return frozenset({"k0"})
                return frozenset()

        app = Exempting({k: 0 for k in KEYS})
        f = fp(app, "sum", "k0", "k1")
        assert "k0" not in f.read_vars and "k0" not in f.read_nodes
        # routing is unaffected: variables_of still includes the key
        assert "k0" in app.variables_of(Command("u", "sum", ("k0", "k1")))
        assert not footprints_conflict(f, fp(app, "write", "k0", 1))
        assert footprints_conflict(f, fp(app, "write", "k1", 1))


# ---------------------------------------------------------------------------
# Signatures: the node test first, footprints only behind it
# ---------------------------------------------------------------------------


class TestSignature:
    def test_commands_with_no_node_in_common_compile_nothing(self):
        app = kv_app()
        a = Signature(app, Command("a", "write", ("k0", 1)), moves=False)
        b = Signature(app, Command("b", "transfer", ("k1", "k2", 1)), moves=True)
        assert not a.conflicts(b) and not b.conflicts(a)
        assert a._fps is None and b._fps is None

    def test_a_node_in_common_falls_to_the_variable_sets(self):
        app = WildcardApp()
        poke_a0 = Signature(app, Command("p", "poke", (("a", 0),)), moves=False)
        poke_a1 = Signature(app, Command("q", "poke", (("a", 1),)), moves=False)
        scan_a = Signature(app, Command("s", "scan", ("a",)), moves=False)
        assert poke_a0.nodes == poke_a1.nodes == scan_a.nodes == frozenset({"a"})
        assert not poke_a0.conflicts(poke_a1)  # one node, two variables
        assert poke_a0.conflicts(scan_a) and scan_a.conflicts(poke_a1)
        assert not scan_a.conflicts(scan_a)  # read/read

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.tuples(st.sampled_from(["read", "write", "sum"]), st.sampled_from(KEYS)),
        b=st.tuples(st.sampled_from(["read", "write", "sum"]), st.sampled_from(KEYS)),
        a_moves=st.booleans(),
        b_moves=st.booleans(),
    )
    def test_equals_the_footprint_predicate_on_both_kinds(self, a, b, a_moves, b_moves):
        """Two commands keep log order iff each one's footprint against
        the other's kind conflicts: the signature adds a shortcut, not a
        relation."""
        app = kv_app()
        args = {"read": lambda k: (k,), "write": lambda k: (k, 1), "sum": lambda k: (k, "k0")}
        first = Command("a", a[0], args[a[0]](a[1]))
        second = Command("b", b[0], args[b[0]](b[1]))
        expected = footprints_conflict(
            scheduling_footprints(app, first, a_moves)[b_moves],
            scheduling_footprints(app, second, b_moves)[a_moves],
        )
        one, other = Signature(app, first, a_moves), Signature(app, second, b_moves)
        assert one.conflicts(other) == other.conflicts(one) == expected


# ---------------------------------------------------------------------------
# Property: conflict-respecting schedules are serially equivalent
# ---------------------------------------------------------------------------


def _run(app, commands, order):
    store = VariableStore()
    for var, value in app.initial_variables().items():
        store.put(var, value)
    results = {}
    for idx in order:
        cmd = commands[idx]
        try:
            results[cmd.uid] = ("ok", app.execute(cmd, store))
        except KeyError as exc:
            results[cmd.uid] = ("nok", repr(exc))
    return results, dict(store.items())


def _conflict_respecting_order(app, commands, rng):
    """A random topological order of the conflict graph: repeatedly pick
    any not-yet-scheduled command none of whose *earlier* unscheduled
    commands conflicts with it — exactly the freedom the lane scheduler
    has."""
    fps = [footprint_of(app, c) for c in commands]
    remaining = list(range(len(commands)))
    order = []
    while remaining:
        eligible = [
            i
            for pos, i in enumerate(remaining)
            if not any(
                footprints_conflict(fps[j], fps[i]) for j in remaining[:pos]
            )
        ]
        pick = rng.choice(eligible)
        remaining.remove(pick)
        order.append(pick)
    return order


command_strategy = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(KEYS)),
    st.tuples(st.just("write"), st.sampled_from(KEYS), st.integers(0, 99)),
    st.tuples(
        st.just("sum"), st.sampled_from(KEYS), st.sampled_from(KEYS)
    ),
    st.tuples(
        st.just("transfer"),
        st.sampled_from(KEYS),
        st.sampled_from(KEYS),
        st.integers(1, 9),
    ),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
    st.tuples(st.just("create"), st.sampled_from(KEYS)),
)


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(command_strategy, min_size=2, max_size=14),
    seed=st.integers(0, 2**16),
)
def test_conflict_respecting_schedule_is_serially_equivalent(specs, seed):
    app = kv_app()
    commands = [
        Command(f"c:{i}", spec[0], tuple(spec[1:])) for i, spec in enumerate(specs)
    ]
    serial_results, serial_store = _run(app, commands, range(len(commands)))
    order = _conflict_respecting_order(app, commands, random.Random(seed))
    sched_results, sched_store = _run(app, commands, order)
    assert sched_results == serial_results
    assert sched_store == serial_store
