"""The retransmission timer of ``repro.sim.rto``: Jacobson's estimate with
Karn's rule, one one-shot timer per item, cancelled by the evidence."""

import pytest

from repro.sim import Network, Simulator
from repro.sim.actors import Actor
from repro.sim.rto import RTO_CAP, RTO_FLOOR, Retransmitter


class Node(Actor):
    def on_message(self, sender, message):
        pass


def node():
    sim = Simulator()
    return Network(sim).register(Node("n")), sim


def retransmitter(actor, resent, outcome=True, cap=RTO_CAP):
    def resend(key):
        resent.append((actor.now, key))
        return outcome

    return Retransmitter(actor, resend, "test", cap=cap)


def test_before_any_measurement_an_item_waits_the_cap():
    actor, sim = node()
    resent = []
    timers = retransmitter(actor, resent)
    assert timers.rto == RTO_CAP
    timers.arm("a")
    sim.run(until=RTO_CAP * 0.99)
    assert resent == []
    sim.run(until=RTO_CAP * 1.01)
    assert resent == [(pytest.approx(RTO_CAP), "a")]


def test_evidence_cancels_the_timer_and_teaches_the_estimate():
    actor, sim = node()
    resent = []
    timers = retransmitter(actor, resent)
    for i in range(20):
        timers.arm(i)
        sim.run(until=sim.now + 0.002)
        timers.done(i)
    sim.run(until=sim.now + 1.0)
    assert resent == [] and timers.retransmits == 0 and timers.arms == 20
    assert not len(timers) and not sim.pending()
    # A constant delay has no spread: the floor is the whole margin.
    assert timers.srtt == pytest.approx(0.002)
    assert timers.rto == pytest.approx(0.002 + RTO_FLOOR)


def test_a_wide_spread_outgrows_the_floor_and_the_cap_bounds_it():
    actor, _sim = node()
    timers = retransmitter(actor, [])
    for sample in (0.001, 0.05, 0.001, 0.05):
        timers._observe(sample)
    assert timers.rto == pytest.approx(timers.srtt + 4 * timers.rttvar)
    assert 4 * timers.rttvar > RTO_FLOOR
    timers._observe(10.0)
    assert timers.rto == RTO_CAP


def test_expiry_resends_with_back_off_up_to_the_cap_and_karn_ignores_it():
    actor, sim = node()
    resent = []
    timers = retransmitter(actor, resent, cap=0.1)
    timers._observe(0.005)
    first = timers.rto
    timers.arm("lost")
    sim.run(until=1.0)
    waits = [b - a for (a, _), (b, _) in zip([(0.0, None)] + resent, resent)]
    assert waits[:3] == [
        pytest.approx(first), pytest.approx(2 * first), pytest.approx(4 * first)
    ]
    assert max(waits) == pytest.approx(0.1) and timers.retransmits == len(resent)
    srtt = timers.srtt
    timers.done("lost")  # arrived, but after re-sends: ambiguous, not a sample
    assert timers.srtt == srtt and not len(timers)


def test_an_item_that_needs_no_resend_is_dropped():
    actor, sim = node()
    resent = []
    timers = retransmitter(actor, resent, outcome=False)
    timers.arm("a")
    sim.run(until=1.0)
    assert len(resent) == 1 and not len(timers) and not sim.pending()


def test_clear_and_forget_cancel_without_a_sample():
    actor, sim = node()
    timers = retransmitter(actor, [])
    timers.arm("a")
    timers.arm("b")
    timers.forget("a")
    assert "a" not in timers and "b" in timers
    timers.clear()
    sim.run(until=1.0)
    assert timers.retransmits == 0 and timers.srtt is None and not sim.pending()
