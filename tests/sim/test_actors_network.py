"""Unit tests for actors, timers, and the simulated network."""

import random

import pytest

from repro.sim import (
    Actor,
    ConstantLatency,
    Network,
    NetworkPartitionError,
    Simulator,
    UniformLatency,
)


class Recorder(Actor):
    """Test actor that records (time, sender, message) tuples."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now, sender, message))


class Echo(Actor):
    def on_message(self, sender, message):
        self.send(sender, ("echo", message))


def make_net(latency=None, loss=0.0, seed=1):
    sim = Simulator()
    net = Network(
        sim,
        default_latency=latency or ConstantLatency(0.001),
        rng=random.Random(seed),
        loss_probability=loss,
    )
    return sim, net


def test_message_delivered_with_latency():
    sim, net = make_net(ConstantLatency(0.5))
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    a.send("b", "hello")
    sim.run()
    assert b.received == [(0.5, "a", "hello")]


def test_send_all_broadcasts():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    receivers = [net.register(Recorder(f"r{i}")) for i in range(3)]
    a.send_all([r.name for r in receivers], "ping")
    sim.run()
    for r in receivers:
        assert len(r.received) == 1


def test_request_reply_round_trip():
    sim, net = make_net(ConstantLatency(0.25))
    client = net.register(Recorder("client"))
    net.register(Echo("server"))
    client.send("server", "ping")
    sim.run()
    assert client.received == [(0.5, "server", ("echo", "ping"))]


def test_fifo_per_link_with_constant_latency():
    sim, net = make_net(ConstantLatency(0.1))
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    for i in range(5):
        a.send("b", i)
    sim.run()
    assert [m for (_, _, m) in b.received] == [0, 1, 2, 3, 4]


def test_unknown_destination_is_dropped_silently():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    a.send("ghost", "boo")
    sim.run()
    assert net.messages_dropped == 1


def test_duplicate_names_rejected():
    _, net = make_net()
    net.register(Recorder("a"))
    with pytest.raises(ValueError):
        net.register(Recorder("a"))


def test_crashed_actor_drops_messages():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    b.crash()
    a.send("b", "lost")
    sim.run()
    assert b.received == []
    assert net.messages_dropped == 1


def test_crashed_actor_cannot_send():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    a.crash()
    a.send("b", "nope")
    sim.run()
    assert b.received == []


def test_recovered_actor_receives_again():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    b.crash()
    b.recover()
    a.send("b", "back")
    sim.run()
    assert len(b.received) == 1


def test_message_in_flight_to_crashing_actor_is_dropped():
    sim, net = make_net(ConstantLatency(1.0))
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    a.send("b", "in-flight")
    sim.schedule(0.5, b.crash)
    sim.run()
    assert b.received == []


def test_network_cut_blocks_both_directions():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut("a", "b")
    a.send("b", "x")
    b.send("a", "y")
    sim.run()
    assert a.received == [] and b.received == []


def test_heal_restores_link():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut("a", "b")
    net.heal("a", "b")
    a.send("b", "x")
    sim.run()
    assert len(b.received) == 1


def test_partition_groups_cuts_cross_links_only():
    sim, net = make_net()
    actors = {n: net.register(Recorder(n)) for n in ("a1", "a2", "b1", "b2")}
    net.partition_groups(["a1", "a2"], ["b1", "b2"])
    actors["a1"].send("a2", "intra")
    actors["a1"].send("b1", "cross")
    sim.run()
    assert len(actors["a2"].received) == 1
    assert actors["b1"].received == []
    net.heal_all()
    actors["a1"].send("b1", "cross2")
    sim.run()
    assert len(actors["b1"].received) == 1


def test_cut_unknown_actor_raises():
    _, net = make_net()
    net.register(Recorder("a"))
    with pytest.raises(NetworkPartitionError):
        net.cut("a", "ghost")


def test_loss_probability_drops_some_messages():
    sim, net = make_net(loss=0.5, seed=42)
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    for i in range(200):
        a.send("b", i)
    sim.run()
    assert 0 < len(b.received) < 200
    assert net.messages_dropped == 200 - len(b.received)


def test_pair_latency_override():
    sim, net = make_net(ConstantLatency(1.0))
    a = net.register(Recorder("a"))
    b = net.register(Recorder("b"))
    c = net.register(Recorder("c"))
    net.set_pair_latency("a", "b", ConstantLatency(0.1))
    a.send("b", "fast")
    a.send("c", "slow")
    sim.run()
    assert b.received[0][0] == pytest.approx(0.1)
    assert c.received[0][0] == pytest.approx(1.0)


def test_uniform_latency_within_bounds():
    sim, net = make_net(UniformLatency(0.2, 0.4))
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    for i in range(50):
        a.send("b", i)
    sim.run()
    for t, _, _ in b.received:
        assert 0.2 <= t <= 0.4


def test_one_shot_timer():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    fired = []
    a.set_timer(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]


def test_periodic_timer_fires_repeatedly():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    fired = []
    timer = a.set_periodic_timer(1.0, lambda: fired.append(sim.now))
    sim.run(until=3.5)
    timer.cancel()
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_cancel_prevents_firing():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    fired = []
    timer = a.set_timer(1.0, lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []


def test_timer_reset_postpones_firing():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    fired = []
    timer = a.set_timer(2.0, lambda: fired.append(sim.now))
    sim.run(until=1.0)
    timer.reset()  # now due at t=3.0
    sim.run()
    assert fired == [3.0]


def test_crash_cancels_timers():
    sim, net = make_net()
    a = net.register(Recorder("a"))
    fired = []
    a.set_periodic_timer(1.0, lambda: fired.append(sim.now))
    sim.schedule(2.5, a.crash)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0]


def test_network_stats_accounting():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    a.send("b", "x")
    a.send("ghost", "y")
    sim.run()
    stats = net.stats()
    assert stats["sent"] == 2
    assert stats["delivered"] == 1
    assert stats["dropped"] == 1


def test_deterministic_given_seed():
    def run(seed):
        sim, net = make_net(UniformLatency(0.0, 1.0), seed=seed)
        a, b = net.register(Recorder("a")), net.register(Recorder("b"))
        for i in range(20):
            a.send("b", i)
        sim.run()
        return [(t, m) for (t, _, m) in b.received]

    assert run(7) == run(7)
    assert run(7) != run(8)

def test_one_way_cut_blocks_single_direction():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut_oneway("a", "b")
    a.send("b", "blocked")
    b.send("a", "delivered")
    sim.run()
    assert b.received == []
    assert len(a.received) == 1
    assert net.drops_by_reason["link_cut"] == 1


def test_heal_oneway_restores_direction():
    sim, net = make_net()
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut_oneway("a", "b")
    net.heal_oneway("a", "b")
    a.send("b", "x")
    sim.run()
    assert len(b.received) == 1


def test_heal_unknown_actor_raises():
    _, net = make_net()
    net.register(Recorder("a"))
    with pytest.raises(NetworkPartitionError):
        net.heal("a", "ghost")
    with pytest.raises(NetworkPartitionError):
        net.heal_oneway("ghost", "a")
    with pytest.raises(NetworkPartitionError):
        net.cut_oneway("a", "ghost")


def test_heal_groups_restores_cross_links():
    sim, net = make_net()
    actors = {n: net.register(Recorder(n)) for n in ("a1", "a2", "b1", "b2")}
    net.partition_groups(["a1", "a2"], ["b1", "b2"])
    net.heal_groups(["a1", "a2"], ["b1", "b2"])
    actors["a1"].send("b2", "x")
    actors["b1"].send("a2", "y")
    sim.run()
    assert len(actors["b2"].received) == 1
    assert len(actors["a2"].received) == 1


def test_loss_burst_applies_only_inside_window():
    sim, net = make_net(ConstantLatency(0.001), seed=5)
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.schedule_loss_burst(start=1.0, duration=1.0, probability=0.9)
    for i in range(50):
        sim.schedule(0.1 + i * 0.001, a.send, "b", ("before", i))
    for i in range(50):
        sim.schedule(1.2 + i * 0.001, a.send, "b", ("during", i))
    for i in range(50):
        sim.schedule(3.0 + i * 0.001, a.send, "b", ("after", i))
    sim.run()
    phases = [m[0] for (_, _, m) in b.received]
    assert phases.count("before") == 50
    assert phases.count("after") == 50
    assert phases.count("during") < 50
    assert net.drops_by_reason["loss_burst"] == 50 - phases.count("during")


def test_loss_burst_maximum_of_base_and_burst():
    _, net = make_net(loss=0.3)
    net.schedule_loss_burst(start=0.0, duration=5.0, probability=0.1)
    p, reason = net._effective_loss(1.0)
    assert p == 0.3 and reason == "loss"
    net.schedule_loss_burst(start=0.0, duration=5.0, probability=0.8)
    p, reason = net._effective_loss(1.0)
    assert p == 0.8 and reason == "loss_burst"


def test_delay_spike_adds_latency_inside_window():
    sim, net = make_net(ConstantLatency(0.1))
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.schedule_delay_spike(start=1.0, duration=1.0, extra=0.5)
    sim.schedule(0.5, a.send, "b", "normal")
    sim.schedule(1.5, a.send, "b", "slow")
    sim.schedule(2.5, a.send, "b", "normal2")
    sim.run()
    times = {m: t for (t, _, m) in b.received}
    assert times["normal"] == pytest.approx(0.6)
    assert times["slow"] == pytest.approx(2.1)
    assert times["normal2"] == pytest.approx(2.6)


def test_chaos_window_validation():
    _, net = make_net()
    with pytest.raises(ValueError):
        net.schedule_loss_burst(0.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        net.schedule_loss_burst(0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        net.schedule_delay_spike(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        net.schedule_delay_spike(0.0, 0.0, 0.1)


def test_drop_reasons_in_stats():
    sim, net = make_net(loss=0.5, seed=3)
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut("a", "b")
    a.send("b", "cut")
    net.heal("a", "b")
    a.send("ghost", "nowhere")
    for i in range(40):
        a.send("b", i)
    sim.run()
    reasons = net.stats()["drop_reasons"]
    assert reasons["link_cut"] == 1
    assert reasons["unknown_destination"] == 1
    assert reasons.get("loss", 0) > 0
    assert sum(reasons.values()) == net.messages_dropped


def test_drop_reasons_surface_through_monitor():
    from repro.sim import Monitor

    sim = Simulator()
    monitor = Monitor()
    net = Network(
        sim,
        default_latency=ConstantLatency(0.001),
        rng=random.Random(1),
        monitor=monitor,
    )
    a, b = net.register(Recorder("a")), net.register(Recorder("b"))
    net.cut("a", "b")
    a.send("b", "x")
    a.send("b", "y")
    sim.run()
    counters = monitor.labeled_counters("net_drop")
    assert counters == {"link_cut": 2}


def test_failure_note_names_the_delivery_and_the_timer():
    """An actor that raises fails the run with the message's type and
    both endpoints — or the timer's actor and callback — in the note."""

    class Fragile(Actor):
        def on_message(self, sender, message):
            raise ValueError("cannot handle this")

        def tick(self):
            raise LookupError("nothing to do")

    sim, net = make_net()
    a, b = net.register(Fragile("a")), net.register(Fragile("b"))
    a.send("b", ("ping", 1))
    with pytest.raises(ValueError) as caught:
        sim.run()
    assert "Network._deliver('a', 'b', tuple)" in caught.value.__notes__[0]
    a.set_timer(0.5, a.tick)
    with pytest.raises(LookupError) as caught:
        sim.run()
    assert "<Timer a " in caught.value.__notes__[0]
    assert "Fragile.tick>" in caught.value.__notes__[0]
