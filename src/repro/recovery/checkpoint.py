"""Checkpoint records and their canonical wire representation.

A checkpoint is the full application state of one replica at a log
*watermark* W: the deterministic state reached after delivering exactly
instances ``[0, W)``.  Each layer of the replica stack (Paxos learner,
multicast Skeen machine, partition server / oracle) contributes named
*sections* — plain dicts — via its ``capture_app_state`` override, and
reinstalls them via ``install_app_state``.

For chunked transfer a record is flattened into a canonical, sorted
list of ``(section, key, value)`` items.  The ordering is by
``(section, repr(key))`` — never by hash iteration order — so two
processes (or two replicas) flatten the same state into byte-identical
item sequences, which keeps seeded runs deterministic and lets a
requester resume a transfer at any item offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CheckpointRecord:
    """One replica's state at log watermark ``watermark``.

    ``sections`` maps a section name (e.g. ``"server.store"``) to a dict
    of that section's entries.  Capture methods hand over fresh
    containers of immutable entries; stored application values are
    shared with the live store, which replaces but never mutates them.
    """

    watermark: int
    sections: dict

    def __hash__(self):  # pragma: no cover - only identity needed
        return id(self)

    @property
    def total_items(self) -> int:
        return sum(len(entries) for entries in self.sections.values())


def flatten_sections(sections: dict) -> list[tuple]:
    """Canonical ``[(section, key, value), ...]`` item list.

    Sections sort by name, entries within a section by ``repr(key)``;
    the result is the unit sequence chunked over the network.
    """
    items: list[tuple] = []
    for name in sorted(sections):
        entries = sections[name]
        for key in sorted(entries, key=repr):
            items.append((name, key, entries[key]))
    return items


def assemble_sections(items) -> dict:
    """Rebuild the ``sections`` dict from flattened items (any order)."""
    sections: dict = {}
    for name, key, value in items:
        sections.setdefault(name, {})[key] = value
    return sections
