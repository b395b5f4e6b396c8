"""Tests for commands, the variable store, and the key-value app."""

import pytest

from repro.smr import Command, KeyValueApp, VariableStore
from repro.smr.command import CommandKind, Reply, ReplyStatus


class TestCommand:
    def test_default_kind_is_access(self):
        assert Command("c1", "read", ("x",)).kind == CommandKind.ACCESS

    def test_commands_hashable_and_frozen(self):
        c = Command("c1", "read", ("x",))
        assert hash(c)
        with pytest.raises(AttributeError):
            c.op = "write"

    def test_reply_carries_attempt(self):
        r = Reply("c1", ReplyStatus.RETRY, attempt=2)
        assert r.attempt == 2


class TestVariableStore:
    def test_put_get(self):
        s = VariableStore()
        s.put("x", 1)
        assert s.get("x") == 1
        assert "x" in s
        assert len(s) == 1

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            VariableStore().get("x")

    def test_get_or_none(self):
        assert VariableStore().get_or_none("x") is None

    def test_take_removes_and_moves(self):
        s = VariableStore()
        value = {"n": 1}
        s.put("x", value)
        taken = s.take("x")
        assert "x" not in s and s.get_or_none("x") is None
        assert taken is value  # moved out, not copied: receivers put it

    def test_put_and_snapshot_share_the_reference(self):
        """The store never copies: what went in is what every reader
        gets, so a value must not be mutated once stored."""
        s = VariableStore()
        value = (1, 2)
        s.put("x", value)
        assert s.get("x") is value
        assert s.snapshot(["x"])["x"] is value

    def test_snapshot_subset(self):
        s = VariableStore()
        s.put("x", 1)
        s.put("y", 2)
        snap = s.snapshot(["x", "z"])
        assert snap == {"x": 1}

    def test_remove_and_discard(self):
        s = VariableStore()
        s.put("x", 1)
        assert s.take("x") == 1
        s.discard("never-there")  # no raise


class TestKeyValueApp:
    def setup_method(self):
        self.app = KeyValueApp({"x": 10, "y": 5})
        self.store = VariableStore()
        for k, v in self.app.initial_variables().items():
            self.store.put(k, v)

    def test_variables_of_read_write(self):
        assert self.app.variables_of(Command("1", "read", ("x",))) == {"x"}
        assert self.app.variables_of(Command("1", "write", ("x", 3))) == {"x"}

    def test_variables_of_multi_key(self):
        assert self.app.variables_of(Command("1", "sum", ("x", "y"))) == {"x", "y"}
        assert self.app.variables_of(
            Command("1", "transfer", ("x", "y", 1))
        ) == {"x", "y"}

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            self.app.variables_of(Command("1", "fly", ()))

    def test_execute_read(self):
        assert self.app.execute(Command("1", "read", ("x",)), self.store) == 10

    def test_execute_write_returns_old(self):
        assert self.app.execute(Command("1", "write", ("x", 3)), self.store) == 10
        assert self.store.get("x") == 3

    def test_execute_sum(self):
        assert self.app.execute(Command("1", "sum", ("x", "y")), self.store) == 15

    def test_execute_transfer(self):
        result = self.app.execute(Command("1", "transfer", ("x", "y", 4)), self.store)
        assert result == (6, 9)
        assert self.store.get("x") == 6
        assert self.store.get("y") == 9

    def test_execute_create_and_delete(self):
        self.app.execute(Command("1", "create", ("z",)), self.store)
        assert self.store.get("z") == 0
        self.app.execute(Command("2", "delete", ("z",)), self.store)
        assert "z" not in self.store

    def test_default_graph_node_is_identity(self):
        assert self.app.graph_node_of("x") == "x"
        assert self.app.nodes_of(Command("1", "sum", ("x", "y"))) == {"x", "y"}
