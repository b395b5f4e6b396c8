"""The one assumption behind remembering numbers instead of uids
(DESIGN.md §5): within a stream, uid <-> number is a bijection.  A hole
in the numbers is harmless; a number given twice, or a uid numbered
twice, is not — the last two tests show what then breaks."""

from repro.multicast.messages import MulticastMessage

from tests.multicast.conftest import make_harness


def numbered(harness, uid, n, dests=("g0", "g1"), sender="client0"):
    message = MulticastMessage(uid, dests, uid, sender, n)
    harness.directory.amcast(harness.sender, message)
    return message


def test_make_message_numbers_each_stream_from_zero_without_gaps():
    directory = make_harness().directory
    a = [directory.make_message(["g1", "g0"], i, sender="a") for i in range(3)]
    single = directory.make_message(["g0"], "x", sender="a")
    other = directory.make_message(["g0", "g1"], "y", sender="b")
    assert [m.n for m in a] == [0, 1, 2] and single.n == 0 and other.n == 0
    assert a[2].key == (("a", ("g0", "g1")), 2)
    # A replicated sender brings the number its replicas agree on; a
    # message without a sender has none and goes by its uid.
    assert directory.make_message(["g0"], "z", "hint:p0:7", "p0", 7).n == 7
    plain = directory.make_message(["g0"], "w", uid="plan:1")
    assert plain.n is None and plain.key == "plan:1"


def test_replicas_remember_a_stream_as_one_range_and_its_timestamps_as_another():
    harness = make_harness()
    for i in range(50):
        harness.amcast(["g0", "g1"], i, numbered=True)
    harness.run(3.0)
    assert harness.payloads(0) == harness.payloads(1) == list(range(50))
    for replica in harness.group(0).replicas:
        assert len(replica.adelivered_uids) == 50
        assert replica.adelivered_uids.stored() == 1
        # 50 OrderEvents and g1's 50 timestamps for them: two streams.
        assert len(replica.delivered_uids) == 100
        assert replica.delivered_uids.stored() == 2


def test_a_number_that_never_arrives_leaves_a_hole_and_nothing_waits_for_it():
    harness = make_harness()
    numbered(harness, "m0", 0)
    numbered(harness, "m2", 2)  # attempt 1 was abandoned before it was sent
    harness.run(2.0)
    assert harness.payloads(0) == harness.payloads(1) == ["m0", "m2"]
    replica = harness.group(0).replicas[0]
    assert replica.adelivered_uids.stored() == 2
    numbered(harness, "m1", 1)  # ... or it was only slow
    harness.run(4.0)
    assert harness.payloads(0) == ["m0", "m2", "m1"]
    assert replica.adelivered_uids.stored() == 1


def test_breaking_it_a_second_uid_under_a_used_number_is_swallowed():
    harness = make_harness()
    numbered(harness, "first", 0)
    harness.run(2.0)
    numbered(harness, "second", 0)
    harness.run(4.0)
    assert harness.payloads(0) == harness.payloads(1) == ["first"]


def test_breaking_it_a_uid_numbered_again_is_delivered_again():
    harness = make_harness()
    numbered(harness, "same", 0)
    harness.run(2.0)
    numbered(harness, "same", 1)
    harness.run(4.0)
    assert harness.payloads(0) == harness.payloads(1) == ["same", "same"]
    # With its first number the re-send is the duplicate it always was.
    numbered(harness, "same", 0)
    harness.run(6.0)
    assert harness.payloads(0) == ["same", "same"]
