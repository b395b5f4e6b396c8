"""Unit tests for the event heap and virtual clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the until bound
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "on-bound")
    sim.run(until=2.0)
    assert fired == ["on-bound"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(5.0, fired.append, "abs")
    sim.run()
    assert fired == ["abs"]
    assert sim.now == 5.0


def test_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    processed = sim.run(max_events=4)
    assert processed == 4
    assert fired == [0, 1, 2, 3]


def test_stop_halts_processing():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.peek_time() == 2.0


def test_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_events_processed_accumulates():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


# ---------------------------------------------------------------------------
# Clock monotonicity: run(until, max_events) must never move time backwards
# ---------------------------------------------------------------------------


def test_max_events_exit_does_not_jump_clock_past_live_events():
    """Regression: ``run(until=10, max_events=2)`` used to advance the
    clock to 10.0 with a live event still queued at t=6, so the next
    ``run()`` moved virtual time *backwards* (10.0 -> 6.0)."""
    sim = Simulator()
    for t in (2.0, 4.0, 6.0):
        sim.schedule(t, lambda: None)
    sim.run(until=10.0, max_events=2)
    assert sim.now == 4.0  # NOT 10.0: an event at 6.0 is still live
    before = sim.now
    sim.run()
    assert sim.now >= before
    assert sim.now == 6.0


def test_stop_exit_does_not_jump_clock_past_live_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: sim.stop())
    sim.schedule(4.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 1.0
    sim.run()
    assert sim.now == 4.0


def test_max_events_exit_with_drained_heap_still_tiles_to_until():
    """When the heap IS drained past ``until``, the clock still tiles
    forward exactly as before — even if ``max_events`` was given."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    sim.run(until=10.0, max_events=5)
    assert sim.now == 10.0


def test_max_events_exit_ignores_cancelled_events_before_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(6.0, lambda: None)
    doomed.cancel()
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0  # only a cancelled event remained before until


def test_callback_exception_leaves_consistent_state():
    """An exception escaping a callback must not corrupt ``now`` or leave
    the simulator marked running; the run can be resumed."""
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("callback failure")

    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, boom)
    sim.schedule(3.0, fired.append, "b")
    with pytest.raises(RuntimeError):
        sim.run(until=10.0)
    assert sim.now == 2.0  # the failing event's time, not 10.0
    assert sim.events_processed == 2  # the failing event is counted
    processed = sim.run(until=10.0)  # not "already running"; resumes
    assert processed == 1
    assert fired == ["a", "b"]
    assert sim.now == 10.0


def test_escaping_exception_is_the_same_object_with_a_note():
    """Fail with context: what the simulator was running, when, and how
    far in — attached to the exception that escapes, not wrapped around
    it, so every ``pytest.raises`` keeps matching."""
    sim = Simulator()
    failure = KeyError("no such variable")

    def boom(who, payload):
        raise failure

    sim.schedule(1.0, lambda: None)
    sim.schedule(2.5, boom, "p0/rep1", {"a": 1})
    with pytest.raises(KeyError) as caught:
        sim.run()
    assert caught.value is failure
    (note,) = failure.__notes__
    assert "boom('p0/rep1', dict)" in note  # names as they are, the rest by type
    assert "virtual time 2.500000" in note and "(event 2)" in note


def test_schedule_at_clamps_negative_float_residue():
    """``schedule_at(t)`` with ``t`` an ulp below ``now`` (arithmetic
    residue, not genuine past scheduling) must not raise."""
    sim = Simulator()
    sim.schedule(0.1 + 0.2, lambda: None)  # 0.30000000000000004
    sim.run()
    assert sim.now > 0.3  # the residue case: 0.3 - now is ~ -4e-17
    fired = []
    sim.schedule_at(0.3, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now >= 0.3


def test_schedule_at_still_rejects_genuine_past_times():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    runs=st.lists(
        st.one_of(
            st.tuples(st.just("until"), st.floats(min_value=0.0, max_value=120.0)),
            st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=10)),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_interleaved_runs_never_decrease_now_and_fire_in_order(times, runs):
    """Property: any interleaving of ``run(until=...)`` and
    ``run(max_events=...)`` observes a non-decreasing clock, and events
    fire in (time, seq) order."""
    sim = Simulator()
    fired = []
    for i, t in enumerate(sorted(times)):
        sim.schedule(t, lambda t=t, i=i: fired.append((t, i)))
    observed = [sim.now]
    for kind, arg in runs:
        if kind == "until":
            if arg < sim.now:
                continue  # tiling backwards is a caller error by contract
            sim.run(until=arg)
        else:
            sim.run(max_events=arg)
        observed.append(sim.now)
    sim.run()  # drain
    observed.append(sim.now)
    assert observed == sorted(observed), f"clock went backwards: {observed}"
    assert fired == sorted(fired), "events fired out of (time, seq) order"
