"""Tests for store mutation tracking, the fast value copier, and node
wildcards."""

import pytest

from repro.smr import Command, VariableStore
from repro.smr.fastcopy import copy_value
from repro.smr.statemachine import AppStateMachine, NodeWildcard


class TestMutationTracking:
    def test_tracks_puts(self):
        s = VariableStore()
        s.begin_tracking()
        s.put("a", 1)
        s.put("b", 2)
        written, removed = s.end_tracking()
        assert written == {"a", "b"}
        assert removed == set()

    def test_tracks_removals(self):
        s = VariableStore()
        s.put("a", 1)
        s.put("b", 2)
        s.begin_tracking()
        s.take("a")
        s.discard("b")
        s.discard("never-there")
        written, removed = s.end_tracking()
        assert removed == {"a", "b"}

    def test_write_then_remove_nets_to_removed(self):
        s = VariableStore()
        s.begin_tracking()
        s.put("a", 1)
        s.discard("a")
        written, removed = s.end_tracking()
        assert written == set()
        assert removed == {"a"}

    def test_remove_then_write_nets_to_written(self):
        s = VariableStore()
        s.put("a", 1)
        s.begin_tracking()
        s.take("a")
        s.put("a", 2)
        written, removed = s.end_tracking()
        assert written == {"a"}
        assert removed == set()

    def test_no_tracking_outside_window(self):
        s = VariableStore()
        s.put("a", 1)  # before tracking: not recorded
        s.begin_tracking()
        written, removed = s.end_tracking()
        assert written == set() and removed == set()

    def test_take_counts_as_removal(self):
        s = VariableStore()
        s.put("a", [1])
        s.begin_tracking()
        s.take("a")
        _, removed = s.end_tracking()
        assert removed == {"a"}


class TestCopyValue:
    def test_scalars_identity(self):
        for v in (1, 2.5, "s", b"b", None, True, 3 + 4j):
            assert copy_value(v) == v

    def test_nested_structures_deep(self):
        value = {"a": [1, {2, 3}], "b": ({"c": [4]},)}
        clone = copy_value(value)
        assert clone == value
        clone["a"].append(99)
        clone["b"][0]["c"].append(99)
        assert value["a"] == [1, {2, 3}]
        assert value["b"][0]["c"] == [4]

    def test_sets_and_frozensets(self):
        assert copy_value({1, 2}) == {1, 2}
        assert copy_value(frozenset((1, 2))) == frozenset((1, 2))

    def test_unknown_type_falls_back_to_deepcopy(self):
        class Box:
            def __init__(self, v):
                self.v = v

        box = Box([1])
        clone = copy_value(box)
        assert clone is not box
        clone.v.append(2)
        assert box.v == [1]


class TestNodeWildcardHelpers:
    class App(AppStateMachine):
        def graph_node_of(self, var):
            return var[0]

        def variables_of(self, command):
            return frozenset({("n1", "x"), NodeWildcard("n2")})

        def execute(self, command, store):
            return None

    def test_nodes_of_mixes_concrete_and_wildcard(self):
        app = self.App()
        cmd = Command("c", "op")
        assert app.nodes_of(cmd) == {"n1", "n2"}

    def test_concrete_and_wildcard_partitioning(self):
        app = self.App()
        cmd = Command("c", "op")
        assert app.concrete_variables_of(cmd) == {("n1", "x")}
        assert app.wildcard_nodes_of(cmd) == {"n2"}

    def test_default_borrow_variables_is_none(self):
        app = self.App()
        assert app.borrow_variables(Command("c", "op"), "n2", None, set()) is None

    def test_wildcards_hashable_and_comparable(self):
        assert NodeWildcard("a") == NodeWildcard("a")
        assert len({NodeWildcard("a"), NodeWildcard("a")}) == 1
