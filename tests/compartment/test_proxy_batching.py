"""The self-clocked batching rule of the proxy leader: the first submission
after a quiet ``batch_delay`` is forwarded in the tick it arrives; what
follows a forward more closely leaves together, ``batch_delay`` after it."""

import random

import pytest

from repro.compartment.messages import ProxyBatch
from repro.compartment.proxy import ProxyLeader
from repro.consensus.messages import Submit
from repro.multicast.messages import MulticastMessage, OrderEvent
from repro.sim import ConstantLatency, Network, Simulator
from repro.sim.actors import Actor

BATCH_DELAY = 0.0005
HOP = 0.001


class Sink(Actor):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_message(self, sender, message):
        assert isinstance(message, ProxyBatch)
        self.got.append((self.now, tuple(e.message.uid for e in message.events)))


def make_proxy(max_batch=64):
    sim = Simulator()
    net = Network(sim, default_latency=ConstantLatency(HOP), rng=random.Random(1))
    sinks = [net.register(Sink(f"rep{i}")) for i in range(2)]
    proxy = net.register(
        ProxyLeader("px", "g0", ("rep0", "rep1"), BATCH_DELAY, max_batch)
    )
    return sim, proxy, sinks


def submit_at(sim, proxy, when, uid):
    event = OrderEvent(MulticastMessage(uid, ("g0",), None))
    sim.schedule_at(when, proxy.on_message, "client", Submit(event))


def forwards(sink):
    """(time the proxy forwarded, uids) per batch received."""
    return [(pytest.approx(t - HOP), uids) for t, uids in sink.got]


def test_first_submission_after_a_quiet_period_is_forwarded_at_once():
    sim, proxy, sinks = make_proxy()
    for t, uid in ((0.0, "a"), (0.01, "b"), (0.01 + 2 * BATCH_DELAY, "c")):
        submit_at(sim, proxy, t, uid)
    sim.run(until=0.1)
    assert forwards(sinks[0]) == forwards(sinks[1]) == [
        (0.0, ("a",)),
        (0.01, ("b",)),
        (0.01 + 2 * BATCH_DELAY, ("c",)),
    ]
    assert proxy._batch_timer is None  # the quiet path arms no timer


def test_a_burst_inside_the_window_leaves_as_one_batch():
    sim, proxy, sinks = make_proxy()
    for t, uid in ((0.0, "a"), (0.0001, "b"), (0.0002, "c"), (0.0004, "d")):
        submit_at(sim, proxy, t, uid)
    # "e" lands inside the window the burst's forward opened.
    submit_at(sim, proxy, BATCH_DELAY + 0.0001, "e")
    sim.run(until=0.1)
    assert forwards(sinks[0]) == forwards(sinks[1]) == [
        (0.0, ("a",)),
        (BATCH_DELAY, ("b", "c", "d")),
        (2 * BATCH_DELAY, ("e",)),
    ]
    assert proxy.buffered == 0


def test_a_full_buffer_does_not_wait():
    sim, proxy, sinks = make_proxy(max_batch=3)
    for i in range(5):
        submit_at(sim, proxy, 0.0, f"c{i}")
    sim.run(until=0.1)
    assert forwards(sinks[0]) == [
        (0.0, ("c0",)),
        (0.0, ("c1", "c2", "c3")),
        (BATCH_DELAY, ("c4",)),
    ]
