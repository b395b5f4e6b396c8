"""Shared fixtures for atomic multicast tests."""

import random

import pytest

from repro.consensus.group import GroupConfig
from repro.multicast import GroupDirectory
from repro.sim import ConstantLatency, Network, Simulator
from repro.sim.actors import Actor


class Sender(Actor):
    """A test client that a-mcasts and records nothing."""

    def on_message(self, sender, message):
        pass


class MulticastHarness:
    """N multicast groups + per-replica a-delivery logs."""

    def __init__(self, n_groups=2, latency=None, seed=1, n_replicas=2):
        self.sim = Simulator()
        self.net = Network(
            self.sim,
            default_latency=latency or ConstantLatency(0.001),
            rng=random.Random(seed),
        )
        self.directory = GroupDirectory(self.net)
        self.logs: dict[str, list] = {}
        self.first_delivery: dict = {}

        def record(rep_name, msg):
            self.logs.setdefault(rep_name, []).append(msg)
            self.first_delivery.setdefault(msg.payload, self.sim.now)

        for i in range(n_groups):
            self.directory.create_group(
                f"g{i}",
                config=GroupConfig(n_replicas=n_replicas),
                on_adeliver=record,
                rng=random.Random(seed * 100 + i),
            )
        self.directory.start()
        self.sender = self.net.register(Sender("client0"))

    def amcast(self, dests, payload, numbered=False, sender=None):
        sender = sender or self.sender
        msg = self.directory.make_message(
            dests, payload, sender=sender.name if numbered else ""
        )
        self.directory.amcast(sender, msg)
        return msg

    def group(self, i):
        return self.directory.groups[f"g{i}"]

    def log_of(self, group_index, replica_index=0):
        name = self.group(group_index).replica_names[replica_index]
        return self.logs.get(name, [])

    def payloads(self, group_index, replica_index=0):
        return [m.payload for m in self.log_of(group_index, replica_index)]

    def run(self, until):
        self.sim.run(until=until)


@pytest.fixture
def harness():
    return MulticastHarness()


def make_harness(**kwargs):
    return MulticastHarness(**kwargs)
