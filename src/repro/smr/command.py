"""Commands and replies.

A :class:`Command` is the unit of work a client submits: an application
operation plus its arguments.  The set of state variables it accesses is
a function of the command alone (the paper's ``vars(C)``), provided by
the application state machine, so routing can be decided before
execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class CommandKind(enum.Enum):
    """The three DynaStar command classes (§4.1)."""

    CREATE = "create"
    ACCESS = "access"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class Command:
    """An application command.

    ``uid`` must be globally unique (clients use ``"{client}:{seq}"``).
    ``op`` names the application operation; ``args`` are its arguments.
    ``kind`` distinguishes create/delete from ordinary access commands,
    which the oracle treats differently.

    ``idem_key`` is an optional client-generated idempotency key: unlike
    the uid (fresh per submission), the key survives a give-up-and-
    resubmit, so the servers' per-key ledger can answer a resubmitted
    command under a *new* uid from the original execution — exactly-once
    across reconfigurations and replica failover.
    """

    uid: str
    op: str
    args: tuple = ()
    kind: CommandKind = CommandKind.ACCESS
    idem_key: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.op}{self.args}#{self.uid}"


class ReplyStatus(enum.Enum):
    OK = "ok"
    NOK = "nok"  # command cannot be executed (missing/duplicate variable)
    RETRY = "retry"  # addressed partition not responsible; refresh cache


@dataclass(frozen=True, slots=True)
class Reply:
    """A server's (or the oracle's) answer to a client command.

    ``attempt`` echoes the client's dispatch attempt so stale replies
    from an earlier attempt are ignored; replicated servers all reply and
    the client deduplicates by (uid, attempt).
    """

    uid: str
    status: ReplyStatus
    result: Any = None
    attempt: int = 0
    partition: str = ""
