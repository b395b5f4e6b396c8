"""``RangeSet`` is a ``set``, losslessly compressed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.rangeset import RangeSet

STREAMS = [("c0", ("p0",)), ("c0", ("p0", "p1")), ("c1", ("p0",), "p1")]
uids = st.one_of(
    st.tuples(st.sampled_from(STREAMS), st.integers(0, 40)),
    st.sampled_from(["plan:1", "plan:2", "lease:a", "noop"]),
)
#: ("add", uid) | ("in", uid) | ("reinstall", None)
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "in"]), uids),
        st.tuples(st.just("reinstall"), st.none()),
    ),
    max_size=120,
)


def well_formed(ranges: RangeSet) -> bool:
    """Every stream's bounds are strictly increasing: ranges sorted,
    non-empty, disjoint and never adjacent (adjacent ones were merged)."""
    return all(
        all(a < b for a, b in zip(bounds, bounds[1:])) and len(bounds) % 2 == 0
        for bounds in ranges._bounds.values()
    )


@given(steps)
@settings(max_examples=300, deadline=None)
def test_behaves_like_a_set_under_add_in_and_capture_install(script):
    ranges, model = RangeSet(), set()
    for op, uid in script:
        if op == "add":
            assert ranges.add(uid) == (uid not in model)
            model.add(uid)
        elif op == "in":
            assert (uid in ranges) == (uid in model)
        else:
            captured = ranges.capture()
            ranges = RangeSet()
            ranges.install(captured)
            assert ranges.capture() == captured
        assert len(ranges) == len(model) and well_formed(ranges)
    for stream in STREAMS:
        for n in range(-1, 42):
            assert ((stream, n) in ranges) == ((stream, n) in model)


def test_a_gapless_stream_is_one_entry_and_a_hole_is_one_more():
    ranges = RangeSet()
    stream = ("client0", ("p0", "p1"))
    for n in range(1000):
        ranges.add((stream, n))
    assert len(ranges) == 1000 and ranges.stored() == 1
    for n in range(1001, 2000):  # 1000 never arrives
        ranges.add((stream, n))
    assert ranges.stored() == 2 and (stream, 1000) not in ranges
    ranges.add((stream, 1000))  # ... or arrives late
    assert ranges.stored() == 1 and len(ranges) == 2000


def test_order_of_arrival_does_not_matter():
    stream, numbers = ("s", ("g",)), [5, 3, 4, 0, 9, 1, 2, 8, 6, 7]
    ranges = RangeSet()
    for n in numbers:
        ranges.add((stream, n))
        ranges.add((stream, n))  # idempotent
    assert ranges.capture() == {"ranges": [(stream, (0, 10))], "rest": []}


def test_empty_state_installs_the_empty_set():
    ranges = RangeSet()
    ranges.add("u")
    ranges.install({})
    assert len(ranges) == 0 and "u" not in ranges
