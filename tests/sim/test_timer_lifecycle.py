"""Timer lifecycle: armed -> fired / cancelled -> released.

An actor tracks a timer only while it is armed (DESIGN.md §7, "Timer
lifecycle").  These tests pin that, and that ``crash`` / ``recover`` /
``reset`` and the firing order kept their meaning when the retention of
dead timers was removed.
"""

import gc
import random
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Actor, ConstantLatency, Network, Simulator


class Node(Actor):
    """Records firings; re-arms one periodic timer on recovery."""

    def __init__(self, name):
        super().__init__(name)
        self.fired = []
        self.recoveries = 0

    def note(self, label):
        return lambda: self.fired.append((self.now, label))

    def on_message(self, sender, message):
        pass

    def on_recover(self):
        self.recoveries += 1
        self.set_periodic_timer(1.0, self.note("recovered-tick"))


def make_node():
    sim = Simulator()
    net = Network(sim, default_latency=ConstantLatency(0.001), rng=random.Random(1))
    return sim, net.register(Node("n"))


def collected(ref):
    gc.collect()
    return ref() is None


def test_fired_one_shot_is_released():
    sim, node = make_node()
    timer = node.set_timer(1.0, node.note("x"))
    ref = weakref.ref(timer)
    assert timer.active and list(node._timers) == [timer]
    sim.run()
    assert node.fired == [(1.0, "x")]
    assert not timer.active and not node._timers
    del timer
    assert collected(ref)


def test_cancelled_one_shot_is_released_while_its_event_is_still_queued():
    sim, node = make_node()
    payload = [0] * 10
    timer = node.set_timer(5.0, lambda: payload.append(1))
    timer_ref = weakref.ref(timer)
    callback_ref = weakref.ref(timer._callback)
    timer.cancel()
    assert not timer.active and not node._timers
    del timer
    # The cancelled event sits in the heap until t=5 but pins nothing.
    assert len(sim._heap) == 1 and sim.pending() == 0
    assert collected(timer_ref) and collected(callback_ref)
    sim.run()
    assert payload == [0] * 10


def test_dropped_handle_does_not_stop_an_armed_timer():
    sim, node = make_node()
    node.set_timer(1.0, node.note("fire-and-forget"))
    gc.collect()
    sim.run()
    assert node.fired == [(1.0, "fire-and-forget")]
    assert not node._timers


def test_periodic_timer_stays_tracked_until_cancelled():
    sim, node = make_node()
    timer = node.set_periodic_timer(1.0, node.note("tick"))
    sim.run(until=3.5)
    assert timer.active and list(node._timers) == [timer]
    timer.cancel()
    assert not timer.active and not node._timers
    sim.run(until=10.0)
    assert node.fired == [(1.0, "tick"), (2.0, "tick"), (3.0, "tick")]


def test_crash_cancels_timer_armed_by_a_callback_of_the_same_tick():
    sim, node = make_node()
    armed = []

    def arm_more():
        node.fired.append((node.now, "outer"))
        armed.append(node.set_timer(1.0, node.note("inner-one-shot")))
        armed.append(node.set_periodic_timer(1.0, node.note("inner-periodic")))

    node.set_timer(2.0, arm_more)
    sim.schedule(2.0, node.crash)  # same tick, after the timer (later seq)
    before = sim.events_processed
    sim.run(until=10.0)
    assert node.fired == [(2.0, "outer")]
    assert [t.active for t in armed] == [False, False]
    assert not node._timers
    # The silenced timers were cancelled, not fired as no-ops.
    assert sim.events_processed - before == 2
    assert sim.pending() == 0


def test_crash_inside_a_periodic_callback_cancels_its_own_rearm():
    sim, node = make_node()

    def tick():
        node.fired.append((node.now, "tick"))
        if node.now >= 2.0:
            node.crash()

    timer = node.set_periodic_timer(1.0, tick)
    sim.run(until=10.0)
    assert node.fired == [(1.0, "tick"), (2.0, "tick")]
    assert not timer.active and not node._timers and sim.pending() == 0


def test_recover_rearms_and_old_handles_stay_dead():
    sim, node = make_node()
    old = node.set_periodic_timer(1.0, node.note("old-tick"))
    sim.schedule(1.5, node.crash)
    sim.schedule(4.0, node.recover)
    sim.run(until=6.5)
    assert node.recoveries == 1
    assert node.fired == [(1.0, "old-tick"), (5.0, "recovered-tick"), (6.0, "recovered-tick")]
    assert not old.active
    assert len(node._timers) == 1 and old not in node._timers


def test_timer_armed_on_a_crashed_actor_is_silent_until_recovery():
    sim, node = make_node()
    node.crash()
    one_shot = node.set_timer(1.0, node.note("while-crashed"))
    periodic = node.set_periodic_timer(2.0, node.note("tick"))
    sim.schedule(3.0, node.recover)
    sim.run(until=4.5)
    # Both fired at their times (t=1, t=2) without running a callback; the
    # periodic one kept re-arming and is heard once the actor is back.
    assert node.fired == [(4.0, "tick"), (4.0, "recovered-tick")]
    assert not one_shot.active and periodic.active
    assert one_shot not in node._timers and periodic in node._timers


def test_reset_on_fired_and_on_cancelled_timer_rearms():
    sim, node = make_node()
    fired = node.set_timer(1.0, node.note("a"))
    cancelled = node.set_timer(1.0, node.note("b"))
    cancelled.cancel()
    sim.run(until=2.0)
    assert node.fired == [(1.0, "a")] and not node._timers
    fired.reset()
    cancelled.reset()
    assert fired.active and cancelled.active
    assert list(node._timers) == [fired, cancelled]
    sim.run()
    assert node.fired == [(1.0, "a"), (3.0, "a"), (3.0, "b")]
    assert not node._timers


def test_reset_on_armed_timer_postpones_and_consumes_one_event():
    sim, node = make_node()
    timer = node.set_timer(2.0, node.note("x"))
    sim.run(until=1.0)
    timer.reset()
    assert sim.pending() == 1 and list(node._timers) == [timer]
    sim.run()
    assert node.fired == [(3.0, "x")]


def test_cancel_is_idempotent_and_harmless_after_firing():
    sim, node = make_node()
    timer = node.set_timer(1.0, node.note("x"))
    sim.run()
    timer.cancel()
    timer.cancel()
    other = node.set_timer(1.0, node.note("y"))
    other.cancel()
    other.cancel()
    assert sim.pending() == 0 and not node._timers
    sim.run()
    assert node.fired == [(1.0, "x")]


def test_firing_order_is_arming_order_and_periodic_rearms_before_its_callback():
    sim, node = make_node()

    def tick():
        node.fired.append((node.now, "tick"))
        if node.now == 1.0:
            # Armed inside the callback: due at t=2 like the periodic
            # timer's own next firing, which was scheduled first.
            node.set_timer(1.0, node.note("from-callback"))

    node.set_timer(1.0, node.note("first"))
    node.set_periodic_timer(1.0, tick)
    node.set_timer(1.0, node.note("third"))
    node.set_timer(2.0, node.note("armed-at-0-due-2"))
    sim.run(until=2.5)
    assert node.fired == [
        (1.0, "first"), (1.0, "tick"), (1.0, "third"),
        (2.0, "armed-at-0-due-2"), (2.0, "tick"), (2.0, "from-callback"),
    ]


# -- random interleavings against a model of the live set ---------------------

#: Delays and advances are multiples of 1/4, so every due time is exact.
_quarter = st.integers(min_value=1, max_value=12).map(lambda q: q / 4)

_ops = st.one_of(
    st.tuples(st.just("arm"), _quarter),
    st.tuples(st.just("arm_periodic"), _quarter),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("reset"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("advance"), _quarter),
    st.tuples(st.just("crash"), st.none()),
    st.tuples(st.just("recover"), st.none()),
)


class _ModelTimer:
    def __init__(self, label, delay, periodic):
        self.label, self.delay, self.periodic = label, delay, periodic
        self.due = None   # None = not armed
        self.order = None  # arming sequence: ties on ``due`` fire in this order


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_ops, max_size=40))
def test_random_interleavings_match_live_set_model(ops):
    sim, node = make_node()
    node.on_recover = lambda: None  # recovery re-arms nothing here
    handles, model, expected = [], [], []
    now, crashed, order = 0.0, False, 0

    def arm(m):
        nonlocal order
        m.due, m.order = now + m.delay, order
        order += 1

    for kind, arg in ops:
        if kind in ("arm", "arm_periodic"):
            m = _ModelTimer(len(model), arg, kind == "arm_periodic")
            arm(m)
            model.append(m)
            setter = node.set_periodic_timer if m.periodic else node.set_timer
            handles.append(setter(arg, node.note(m.label)))
        elif kind in ("cancel", "reset") and model:
            i = arg % len(model)
            model[i].due = None
            getattr(handles[i], kind)()
            if kind == "reset":
                arm(model[i])
        elif kind == "advance":
            horizon = now + arg
            while True:
                due = [m for m in model if m.due is not None and m.due <= horizon]
                if not due:
                    break
                m = min(due, key=lambda m: (m.due, m.order))
                now = m.due
                if m.periodic:
                    arm(m)
                else:
                    m.due = None
                if not crashed:
                    expected.append((now, m.label))
            now = horizon
            sim.run(until=horizon)
        elif kind == "crash":
            crashed = True
            for m in model:
                m.due = None
            node.crash()
        elif kind == "recover":
            crashed = False
            node.recover()

        live = [h for h, m in zip(handles, model) if m.due is not None]
        assert set(node._timers) == set(live)
        assert [h.active for h in handles] == [m.due is not None for m in model]
        assert sim.pending() == len(live)
        assert node.fired == expected
