"""Application state-machine interface and partition-local variable store.

An application (Chirper, TPC-C, or a plain key-value store) implements
:class:`AppStateMachine`:

* ``variables_of(command)`` — the paper's ``vars(C)``: which state
  variables a command reads/writes, computable without executing it.
* ``graph_node_of(var)`` — the workload-graph granularity mapping (§5.3):
  TPC-C maps rows to their district/warehouse node, Chirper maps each
  user's objects to the user node.  Location (and relocation) is tracked
  per *node*; variables move with their node, or individually when
  borrowed.
* ``execute(command, store)`` — deterministic execution against a
  :class:`VariableStore`.

Determinism contract: ``execute`` must depend only on the command and the
store contents — no wall clock, no unseeded randomness — so that every
replica of a partition computes identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.smr.command import Command

# Not called here: kept importable for the benchmark (see fastcopy).
from repro.smr.fastcopy import copy_value  # noqa: F401


@dataclass(frozen=True)
class NodeWildcard:
    """A ``variables_of`` entry meaning "every variable of this node".

    Used by commands whose concrete read keys depend on state (e.g.
    TPC-C Delivery scans for the oldest undelivered order).  Routing uses
    the node; when the node must be borrowed for a multi-partition
    command, the source ships all of the node's variables.
    """

    node: Hashable


@dataclass(frozen=True)
class CommandFootprint:
    """Pre-computed read/write sets of one command, at both granularities.

    Concrete variable ids are compared exactly; :class:`NodeWildcard`
    entries are compared at graph-node granularity, against the *other*
    footprint's full node set — a wildcard may touch any variable of its
    node, so any command touching that node conflicts with it (unless
    both sides only read).
    """

    read_vars: frozenset
    write_vars: frozenset
    read_nodes: frozenset  # nodes of read entries (wildcard or concrete)
    write_nodes: frozenset  # nodes of write entries (wildcard or concrete)
    read_wildcards: frozenset  # nodes with a read NodeWildcard
    write_wildcards: frozenset  # nodes with a write NodeWildcard


def _footprint(app: "AppStateMachine", entries, reads) -> CommandFootprint:
    read_vars, write_vars = set(), set()
    read_nodes, write_nodes = set(), set()
    read_wild, write_wild = set(), set()
    for entry in entries:
        is_read = entry in reads
        if isinstance(entry, NodeWildcard):
            (read_wild if is_read else write_wild).add(entry.node)
            (read_nodes if is_read else write_nodes).add(entry.node)
        else:
            (read_vars if is_read else write_vars).add(entry)
            node = app.graph_node_of(entry)
            (read_nodes if is_read else write_nodes).add(node)
    return CommandFootprint(
        read_vars=frozenset(read_vars),
        write_vars=frozenset(write_vars),
        read_nodes=frozenset(read_nodes),
        write_nodes=frozenset(write_nodes),
        read_wildcards=frozenset(read_wild),
        write_wildcards=frozenset(write_wild),
    )


def footprint_of(app: "AppStateMachine", command: Command) -> CommandFootprint:
    """Compute ``command``'s conflict footprint under ``app``'s signature."""
    return scheduling_footprints(app, command, moves=False)[0]


def scheduling_footprints(
    app: "AppStateMachine", command: Command, moves: bool
) -> tuple[CommandFootprint, CommandFootprint]:
    """The footprints a partition's scheduler compares ``command`` by:
    ``(against a command that leaves variables in place, against one that
    moves them)``.

    Letting read/read overlaps pass, and dropping the entries of
    ``conflict_free_variables_of`` altogether, is sound only while the
    variable stays in the store.  A multi-partition command (``moves``)
    takes every variable it declares at a source partition out of that
    store until the target returns it, declared read-only or not — so it
    is a writer of everything it declares, exemptions ignored, against
    either kind.  A command that leaves its variables in place keeps its
    declared footprint against its like; against one that moves them its
    exempt entries count as reads.
    """
    entries = app.variables_of(command)
    if moves:
        moving = _footprint(app, entries, reads=())
        return moving, moving
    reads = frozenset(app.read_variables_of(command))
    exempt = frozenset(app.conflict_free_variables_of(command))
    if not exempt:
        declared = _footprint(app, entries, reads)
        return declared, declared
    return (
        _footprint(app, (e for e in entries if e not in exempt), reads),
        _footprint(app, entries, reads | exempt),
    )


def footprints_conflict(a: CommandFootprint, b: CommandFootprint) -> bool:
    """True iff the two commands must keep their log order.

    Write/write or write/read overlap on concrete variables conflicts;
    wildcard entries conflict at node granularity against everything the
    other command touches in that node.  Read/read overlap never
    conflicts.
    """
    if a.write_vars & (b.read_vars | b.write_vars):
        return True
    if b.write_vars & a.read_vars:
        return True
    # Wildcard writes clash with any touch of the node; wildcard reads
    # clash only with the other side's writes to the node.
    if a.write_wildcards & (b.read_nodes | b.write_nodes):
        return True
    if b.write_wildcards & (a.read_nodes | a.write_nodes):
        return True
    if a.read_wildcards & b.write_nodes:
        return True
    if b.read_wildcards & a.write_nodes:
        return True
    return False


class Signature:
    """What a scheduler orders one command by, compiled once and shared
    by everyone who holds the command: the graph nodes it touches, and —
    only once it shares a node with a command it is compared against —
    its :func:`scheduling_footprints`.  A pure function of ``app``,
    ``command`` and ``moves`` (whether the command relocates what it
    names: a multi-partition command does)."""

    __slots__ = ("app", "command", "moves", "nodes", "_fps")

    def __init__(self, app: "AppStateMachine", command: Command, moves: bool):
        self.app = app
        self.command = command
        self.moves = moves
        self.nodes = app.nodes_of(command)
        self._fps: Optional[tuple] = None

    def against(self, moves: bool) -> CommandFootprint:
        """The footprint against a command that moves its variables, or
        against one that leaves them in place."""
        fps = self._fps
        if fps is None:
            fps = self._fps = scheduling_footprints(self.app, self.command, self.moves)
        return fps[moves]

    def conflicts(self, other: "Signature") -> bool:
        """True iff the two commands must keep their log order.  Every
        variable lives on one node and a wildcard names one, so commands
        with no node in common cannot conflict and compile nothing."""
        if self.nodes.isdisjoint(other.nodes):
            return False
        return footprints_conflict(
            self.against(other.moves), other.against(self.moves)
        )


class VariableStore:
    """The variables a partition currently holds.

    A value is immutable once it is in a store: ``put`` takes the
    reference, ``get`` / ``take`` / ``snapshot`` hand it out, and
    nothing copies.  Replicas, transfers, returns, plan moves,
    checkpoints and learner mirrors therefore share one object per
    value (the simulator has one address space; a real deployment would
    serialize), which is safe only under the contract of
    :meth:`AppStateMachine.execute`: build the new value and ``put``
    it, never mutate what the store handed out.
    """

    def __init__(self) -> None:
        self._data: dict[Hashable, Any] = {}
        self._written: Optional[set] = None
        self._removed: Optional[set] = None
        self._observer: Optional[Callable[[Hashable, bool], None]] = None

    def set_observer(self, observer: Optional[Callable[[Hashable, bool], None]]) -> None:
        """Install a mutation observer called as ``observer(var, removed)``
        on every write/remove (used by the compartmentalized learner feed
        — every mutation path funnels through ``_note_write``/
        ``_note_remove``, so one hook covers puts, takes, transfers and
        plan moves alike)."""
        self._observer = observer

    # -- mutation tracking (used by servers to learn inserts/deletes) ----

    def begin_tracking(self) -> None:
        """Start recording which variables are written or removed."""
        self._written = set()
        self._removed = set()

    def end_tracking(self) -> tuple[set, set]:
        """Stop recording; returns (written, removed) variable sets."""
        written, removed = self._written or set(), self._removed or set()
        self._written = None
        self._removed = None
        return written, removed

    def _note_write(self, var: Hashable) -> None:
        if self._written is not None:
            self._written.add(var)
            self._removed.discard(var)
        if self._observer is not None:
            self._observer(var, False)

    def _note_remove(self, var: Hashable) -> None:
        if self._removed is not None:
            self._removed.add(var)
            self._written.discard(var)
        if self._observer is not None:
            self._observer(var, True)

    def __contains__(self, var: Hashable) -> bool:
        return var in self._data

    def __len__(self) -> int:
        return len(self._data)

    def get(self, var: Hashable) -> Any:
        return self._data[var]

    def get_or_none(self, var: Hashable) -> Any:
        return self._data.get(var)

    def put(self, var: Hashable, value: Any) -> None:
        self._data[var] = value
        self._note_write(var)

    def discard(self, var: Hashable) -> None:
        if var in self._data:
            del self._data[var]
            self._note_remove(var)

    def take(self, var: Hashable) -> Any:
        """Remove and return the value (used when lending variables);
        every receiver ``put``s that same object."""
        value = self._data.pop(var)
        self._note_remove(var)
        return value

    def snapshot(self, vars: Iterable[Hashable]) -> dict:
        """{var: value} for those of ``vars`` that are present — the
        values themselves, which stay valid because nothing mutates
        them."""
        data = self._data
        return {v: data[v] for v in vars if v in data}

    def variables(self) -> list:
        return list(self._data)

    def items(self):
        return self._data.items()


class AppStateMachine:
    """Base class for replicated applications."""

    def variables_of(self, command: Command) -> frozenset:
        """The state variables ``command`` reads or writes (``vars(C)``).

        Entries may be concrete variable ids or :class:`NodeWildcard`
        markers for commands whose concrete keys depend on state.
        """
        raise NotImplementedError

    def read_variables_of(self, command: Command) -> frozenset:
        """The subset of ``variables_of`` the command only *reads*.

        Entries may be concrete variable ids or :class:`NodeWildcard`
        markers, and must be a subset of ``variables_of(command)``.
        Two commands whose footprints only overlap on read entries
        commute while both leave the variable in place, which the
        intra-partition scheduler exploits (P-SMR-style); a
        multi-partition command moves what it names and is scheduled as
        a writer of all of it (:func:`scheduling_footprints`).  The safe
        default is the empty set — everything is treated as a write, so
        applications that do not declare read sets keep strictly serial
        conflict semantics.
        """
        return frozenset()

    def write_variables_of(self, command: Command) -> frozenset:
        """``variables_of`` minus the declared read-only entries.

        An entry that a command both reads and writes must stay out of
        ``read_variables_of`` (writes win — conservative).
        """
        return frozenset(self.variables_of(command)) - frozenset(
            self.read_variables_of(command)
        )

    def conflict_free_variables_of(self, command: Command) -> frozenset:
        """Entries of ``variables_of`` to exclude from the conflict
        footprint entirely (P-SMR-style declared conflict relations).

        Use for semantic commutativity the variable-level predicate is
        too coarse for: the command reads only fields of these variables
        that no other command's writes observably change — e.g. TPC-C's
        New-Order reads the warehouse row only for its immutable tax
        rate, while Payment's writes to the same row touch only the ytd
        counter New-Order never looks at.  Routing and borrowing still
        use the full ``variables_of``, and the exemption holds between
        single-partition commands only: against a multi-partition
        command, which may lend the variable away, exempt entries count
        as reads.  Default: none (every declared variable participates
        in conflict detection)."""
        return frozenset()

    def graph_node_of(self, var: Hashable) -> Hashable:
        """Workload-graph node a variable belongs to (defaults to itself)."""
        return var

    def nodes_of(self, command: Command) -> frozenset:
        """Graph nodes touched by ``command`` (wildcards map to their node)."""
        nodes = set()
        for entry in self.variables_of(command):
            if isinstance(entry, NodeWildcard):
                nodes.add(entry.node)
            else:
                nodes.add(self.graph_node_of(entry))
        return frozenset(nodes)

    def concrete_variables_of(self, command: Command) -> set:
        """``variables_of`` minus the wildcards."""
        return {
            v
            for v in self.variables_of(command)
            if not isinstance(v, NodeWildcard)
        }

    def wildcard_nodes_of(self, command: Command) -> set:
        """Nodes whose full variable set the command may touch."""
        return {
            v.node
            for v in self.variables_of(command)
            if isinstance(v, NodeWildcard)
        }

    def borrow_variables(self, command: Command, node, store, node_vars):
        """Which of wildcard ``node``'s variables to ship when lending it
        for ``command``.

        Called on the partition that *owns* the node, with its live
        ``store`` and the node's current variable set ``node_vars``, in
        SMR order — so the selection is deterministic and sees exactly
        the state the command will execute against.  Return an iterable
        of variable ids, or ``None`` to ship the whole node (the safe
        default).  Applications override this to keep borrows
        fine-grained ("only those objects will be moved on demand,
        rather than the whole district" — §5.3).
        """
        return None

    def execute(self, command: Command, store: VariableStore) -> Any:
        """Apply ``command`` to ``store`` and return its result.

        Values in a store are immutable and shared by reference between
        replicas, partitions, checkpoints and learner mirrors.  To
        change a variable, build a new value from what ``store.get``
        returned and ``store.put`` it (``{**row, "n": row["n"] + 1}``,
        or ``row = row.copy()`` edited until its ``put``;
        ``(entry,) + timeline``, ``followers | {user}``); never mutate
        the returned object or anything reachable from it.  Keep
        nested collections as tuples / frozensets so a stray
        ``.append`` fails loudly.  Raise ``KeyError`` / ``ValueError``
        (-> NOK reply) before the first ``put``.
        """
        raise NotImplementedError

    def is_readonly(self, command: Command) -> bool:
        """True iff ``execute`` never mutates the store for ``command``.

        Read-only commands are eligible for lease-checked local reads on
        a partition's learner replicas (compartmentalized mode).  The
        safe default is ``False`` — such commands simply take the
        ordered path."""
        return False

    def initial_variables(self) -> dict:
        """{var: initial value} used to preload partitions."""
        return {}

    def initial_value_of(self, var: Hashable) -> Any:
        """Initial value for a variable created by a ``create`` command."""
        return None


class KeyValueApp(AppStateMachine):
    """A minimal multi-key read/write/transfer application.

    Used throughout the unit tests and the quickstart example: small
    enough to reason about, rich enough to produce single- and
    multi-partition commands.

    Operations:

    * ``("read", key)`` -> value, or ``None`` when the key is missing
      (e.g. a read racing a ``delete`` of the same key)
    * ``("write", key, value)`` -> old value
    * ``("sum", key1, ..., keyN)`` -> sum of the values; missing keys
      count as 0
    * ``("transfer", src, dst, amount)`` -> (new_src, new_dst); raises
      ``KeyError`` (-> NOK reply) before mutating anything if either
      endpoint is missing
    """

    def __init__(self, initial: Optional[dict] = None):
        self._initial = dict(initial or {})

    def initial_variables(self) -> dict:
        return dict(self._initial)

    def initial_value_of(self, var: Hashable) -> Any:
        return 0

    def variables_of(self, command: Command) -> frozenset:
        op = command.op
        if op in ("read", "write"):
            return frozenset({command.args[0]})
        if op == "sum":
            return frozenset(command.args)
        if op == "transfer":
            return frozenset(command.args[:2])
        if op in ("create", "delete"):
            return frozenset({command.args[0]})
        raise ValueError(f"unknown op {op!r}")

    def is_readonly(self, command: Command) -> bool:
        return command.op in ("read", "sum")

    def read_variables_of(self, command: Command) -> frozenset:
        if command.op in ("read", "sum"):
            return self.variables_of(command)
        return frozenset()

    def execute(self, command: Command, store: VariableStore) -> Any:
        op = command.op
        if op == "read":
            # Deterministic miss value: a read racing a delete of the
            # same key is an application-level miss, not a replica crash.
            return store.get_or_none(command.args[0])
        if op == "write":
            key, value = command.args
            old = store.get_or_none(key)
            store.put(key, value)
            return old
        if op == "sum":
            return sum(store.get_or_none(k) or 0 for k in command.args)
        if op == "transfer":
            src, dst, amount = command.args
            # Validate both endpoints before the first mutation so a
            # missing key yields a clean NOK instead of a half-applied
            # transfer.
            if src not in store:
                raise KeyError(src)
            if dst not in store:
                raise KeyError(dst)
            store.put(src, store.get(src) - amount)
            store.put(dst, store.get(dst) + amount)
            return (store.get(src), store.get(dst))
        if op == "create":
            store.put(command.args[0], self.initial_value_of(command.args[0]))
            return True
        if op == "delete":
            store.discard(command.args[0])
            return True
        raise ValueError(f"unknown op {op!r}")
