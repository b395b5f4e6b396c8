"""Wing & Gong linearizability checker.

Given a concurrent history of client operations (invocation time,
response time, command, observed result) and a sequential specification
(an :class:`~repro.smr.statemachine.AppStateMachine` plus initial state),
the checker searches for a legal sequential order that respects real-time
precedence and reproduces every observed result.

The search is exponential in the worst case but is pruned by memoizing
(visited operation subsets, state fingerprint) pairs, which handles the
few-hundred-operation histories the correctness tests generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.smr.command import Command
from repro.smr.statemachine import AppStateMachine, VariableStore


@dataclass(frozen=True, slots=True)
class Operation:
    """One completed client operation in the history."""

    client: str
    command: Command
    invoked_at: float
    returned_at: float
    result: Any


class History:
    """A concurrent execution history under construction."""

    def __init__(self) -> None:
        self.operations: list[Operation] = []

    def record(self, op: Operation) -> None:
        if op.returned_at < op.invoked_at:
            raise ValueError("operation returned before it was invoked")
        self.operations.append(op)

    def __len__(self) -> int:
        return len(self.operations)


def _state_fingerprint(store: VariableStore) -> tuple:
    return tuple(sorted((repr(k), repr(v)) for k, v in store.items()))


def check_linearizable(
    history: History,
    app: AppStateMachine,
    initial: Optional[dict] = None,
    max_states: int = 2_000_000,
) -> bool:
    """True iff ``history`` is linearizable w.r.t. ``app``'s sequential
    specification starting from ``initial`` (defaults to the app's own
    initial variables)."""
    ops = list(history.operations)
    if not ops:
        return True
    ops.sort(key=lambda o: (o.invoked_at, o.returned_at))
    n = len(ops)

    base = VariableStore()
    for var, value in (initial if initial is not None else app.initial_variables()).items():
        base.put(var, value)

    # Iterative DFS over (remaining frozenset, store); memoize failures.
    seen: set[tuple] = set()
    states_visited = 0

    def candidates(remaining: frozenset) -> list[int]:
        """Operations minimal in the real-time partial order: those that
        were invoked before every remaining operation returned."""
        min_return = min(ops[i].returned_at for i in remaining)
        return sorted(
            (i for i in remaining if ops[i].invoked_at <= min_return),
            key=lambda i: ops[i].invoked_at,
        )

    def dfs(remaining: frozenset, store: VariableStore) -> bool:
        nonlocal states_visited
        states_visited += 1
        if states_visited > max_states:
            raise RuntimeError("linearizability search exceeded state budget")
        if not remaining:
            return True
        key = (remaining, _state_fingerprint(store))
        if key in seen:
            return False
        for i in candidates(remaining):
            op = ops[i]
            trial = VariableStore()
            for var, value in store.items():
                trial.put(var, value)
            try:
                result = app.execute(op.command, trial)
            except (KeyError, ValueError):
                continue  # not legal at this point
            if result != op.result:
                continue
            if dfs(remaining - {i}, trial):
                return True
        seen.add(key)
        return False

    return dfs(frozenset(range(n)), base)
