"""Exactly-once execution under client retries: the client table.

A :class:`~repro.core.client.DynaStarClient` has one command outstanding
and stamps its issue counter ``seq`` (from 1) on everything it sends, so
its next command acknowledges every earlier one.  Instead of a result per
command ever executed, a partition server therefore keeps

* ``(node, client) -> highest seq executed on that node``: an int that is
  **part of the node's replicated state**.  It changes only where a
  command executes (:meth:`ClientTable.record`) or where the node's
  variables are installed (:meth:`ClientTable.install_nodes`, fed by the
  :meth:`ClientTable.export_nodes` that rides inside the message carrying
  the node) — never when a message merely arrives.  Whether an
  a-delivered command runs is thus a function of node state at a log
  position, and the replicas of a partition cannot disagree about it;
* ``client -> (seq, status, result)``, that client's newest command only:
  it feeds replies — to a repeat, and to a client's ``ReplyQuery`` — and
  nothing else;
* ``node -> {idem_key: (status, result)}`` for commands with an explicit
  ``Command.idem_key``, whose resubmission under a fresh uid may come
  *after* a later command of the client: the one table here that grows
  with (keyed) commands.  It travels with the node like the numbers.
"""

from __future__ import annotations

from typing import Any, Optional

_EMPTY: dict = {}


class ClientTable:
    def __init__(self) -> None:
        self._numbers: dict[Any, dict[str, int]] = {}
        self._newest: dict[str, tuple] = {}
        self._keyed: dict[Any, dict[str, tuple]] = {}

    def repeat_of(self, payload, nodes) -> Optional[tuple]:
        """What to answer *instead of running* the a-delivered ``payload``
        (client ``c``, sequence ``s``) over ``nodes``, all settled here:
        ``None`` — every number for ``c`` on ``nodes`` is lower and no
        idempotency key matches: run it; ``(status, result)`` — a
        duplicate (one number equals ``s``, or the key matches) whose
        outcome the client may still wait for; ``()`` — a duplicate the
        client has moved on from, or a stale attempt (one number is
        higher): skip it, no reply."""
        client, seq = payload.client, payload.seq
        top = 0
        for node in nodes:
            number = self._numbers.get(node, _EMPTY).get(client, 0)
            if number > top:
                top = number
        if top < seq:
            key = payload.command.idem_key
            if key is not None:
                for node in nodes:
                    outcome = self._keyed.get(node, _EMPTY).get(key)
                    if outcome is not None:
                        return outcome
            return None
        return (self.outcome_of(client, seq) if top == seq else None) or ()

    def answered(self, client: str, seq: int) -> bool:
        """Whether ``seq`` is the newest command of ``client`` known
        executed (a retry of it is answered, not run)."""
        newest = self._newest.get(client)
        return newest is not None and newest[0] == seq

    def outcome_of(self, client: str, seq: int) -> Optional[tuple]:
        """``(status, result)`` of command ``seq`` of ``client`` if it is
        that client's newest known executed, else None: the answer to a
        ``ReplyQuery``, which a replica that has not executed ``seq`` (or
        whose client has moved past it) ignores."""
        return self._newest[client][1:] if self.answered(client, seq) else None

    def record(self, payload, nodes, status, result) -> None:
        """``payload`` executed (here, or — consuming its VarReturn — at
        the target it lent ``nodes`` to) with this outcome."""
        client, seq = payload.client, payload.seq
        key = payload.command.idem_key
        for node in nodes:
            self._numbers.setdefault(node, {})[client] = seq
            if key is not None:
                self._keyed.setdefault(node, {}).setdefault(key, (status, result))
        self._remember(client, (seq, status, result))

    def _remember(self, client: str, entry: tuple) -> None:
        newest = self._newest.get(client)
        if newest is None or newest[0] < entry[0]:
            self._newest[client] = entry

    def export_nodes(self, nodes) -> tuple:
        """Hand over what belongs to ``nodes`` as they leave: per node its
        numbers and keyed outcomes (removed here), plus the newest entry
        of each client whose last command touched one of them."""
        records, entries = [], {}
        for node in nodes:
            numbers = self._numbers.pop(node, _EMPTY)
            keyed = self._keyed.pop(node, _EMPTY)
            if numbers or keyed:
                records.append((node, tuple(numbers.items()), tuple(keyed.items())))
            for client, seq in numbers.items():
                if self.answered(client, seq):
                    entries[client] = self._newest[client]
        return tuple(records), tuple(entries.items())

    def install_nodes(self, exported: tuple) -> None:
        """Adopt an :meth:`export_nodes` hand-over, together with the
        nodes' variables.  Idempotent, commutative and monotone: a number
        never decreases, the newest entry per client wins."""
        records, entries = exported or ((), ())
        for node, numbers, keyed in records:
            for client, seq in numbers:
                mine = self._numbers.setdefault(node, {})
                mine[client] = max(seq, mine.get(client, 0))
            for key, outcome in keyed:
                self._keyed.setdefault(node, {}).setdefault(key, outcome)
        for client, entry in entries:
            self._remember(client, entry)

    def capture(self) -> tuple:
        """Canonical (sorted) copy of the whole table, for a checkpoint."""
        def by_node(table):
            return sorted(((n, sorted(d.items())) for n, d in table.items()), key=repr)

        return by_node(self._numbers), sorted(self._newest.items()), by_node(self._keyed)

    def install(self, captured: tuple) -> None:
        """Inverse of :meth:`capture`."""
        numbers, newest, keyed = captured or ((), (), ())
        self._numbers = {node: dict(items) for node, items in numbers}
        self._newest = dict(newest)
        self._keyed = {node: dict(items) for node, items in keyed}
