"""Functional tests for the BaseCast atomic multicast."""

import random

import pytest

from repro.multicast.messages import MulticastMessage
from repro.sim import LogNormalLatency

from tests.multicast.conftest import MulticastHarness, make_harness


class TestMessageValidation:
    def test_empty_dests_rejected(self):
        with pytest.raises(ValueError):
            MulticastMessage(uid="m", dests=(), payload=None)

    def test_unsorted_dests_rejected(self):
        with pytest.raises(ValueError):
            MulticastMessage(uid="m", dests=("g1", "g0"), payload=None)

    def test_stream_number_and_sender_go_together(self):
        with pytest.raises(ValueError):
            MulticastMessage(uid="m", dests=("g0", "g1"), payload=None, n=0)
        with pytest.raises(ValueError):
            MulticastMessage(uid="m", dests=("g0", "g1"), payload=None, sender="c")
        numbered = MulticastMessage("m", ("g0", "g1"), None, "c", 0)
        assert numbered.key == (("c", ("g0", "g1")), 0)
        assert MulticastMessage("m", ("g0",), None).key == "m"

    def test_single_group_flag(self):
        m = MulticastMessage(uid="m", dests=("g0",), payload=None)
        assert m.is_single_group


class TestSingleGroupDelivery:
    def test_message_reaches_all_replicas_of_dest(self, harness):
        harness.amcast(["g0"], "hello")
        harness.run(1.0)
        assert harness.payloads(0, 0) == ["hello"]
        assert harness.payloads(0, 1) == ["hello"]

    def test_non_destination_group_never_delivers(self, harness):
        harness.amcast(["g0"], "hello")
        harness.run(1.0)
        assert harness.payloads(1, 0) == []
        assert harness.payloads(1, 1) == []

    def test_stream_of_messages_all_delivered(self, harness):
        for i in range(30):
            harness.amcast(["g0"], f"p{i}")
        harness.run(2.0)
        assert sorted(harness.payloads(0, 0)) == sorted(f"p{i}" for i in range(30))

    def test_replicas_deliver_same_order(self, harness):
        for i in range(30):
            harness.amcast(["g0"], f"p{i}")
        harness.run(2.0)
        assert harness.payloads(0, 0) == harness.payloads(0, 1)


class TestMultiGroupDelivery:
    def test_two_group_message_delivered_everywhere(self, harness):
        harness.amcast(["g0", "g1"], "both")
        harness.run(2.0)
        for g in (0, 1):
            for r in (0, 1):
                assert harness.payloads(g, r) == ["both"]

    def test_three_group_message(self):
        h = make_harness(n_groups=3)
        h.amcast(["g0", "g1", "g2"], "tri")
        h.run(2.0)
        for g in range(3):
            assert h.payloads(g, 0) == ["tri"]

    def test_mixed_single_and_multi(self, harness):
        harness.amcast(["g0"], "s0")
        harness.amcast(["g0", "g1"], "m01")
        harness.amcast(["g1"], "s1")
        harness.run(2.0)
        assert sorted(harness.payloads(0, 0)) == ["m01", "s0"]
        assert sorted(harness.payloads(1, 0)) == ["m01", "s1"]

    def test_integrity_no_duplicates_no_spontaneous(self, harness):
        msgs = [harness.amcast(["g0", "g1"], f"p{i}") for i in range(10)]
        harness.run(3.0)
        sent_uids = {m.uid for m in msgs}
        for g in (0, 1):
            for r in (0, 1):
                uids = [m.uid for m in harness.log_of(g, r)]
                assert len(uids) == len(set(uids)), "duplicate a-delivery"
                assert set(uids) <= sent_uids, "delivered a message never sent"
                assert len(uids) == 10

    def test_duplicate_amcast_of_same_uid_delivered_once(self, harness):
        msg = harness.directory.make_message(["g0"], "dup", uid="fixed")
        harness.directory.amcast(harness.sender, msg)
        harness.directory.amcast(harness.sender, msg)
        harness.run(2.0)
        assert harness.payloads(0, 0) == ["dup"]


class TestCostAsymmetry:
    """Single-group messages must be cheaper than multi-group ones —
    the asymmetry DynaStar's design exploits."""

    def test_single_group_delivers_faster_than_multi(self):
        h = make_harness(n_groups=2)
        h.amcast(["g0"], "single")
        h.amcast(["g0", "g1"], "multi")
        h.run(2.0)
        # Multi-group needs an extra consensus round for remote timestamps.
        assert h.first_delivery["single"] < h.first_delivery["multi"]

    def test_multi_group_costs_more_network_messages(self):
        def cost_of(dests):
            """Messages one a-mcast adds to what the idle groups send
            anyway (heartbeats, frontier reports) over the same span."""
            h = make_harness(n_groups=2)
            h.run(1.0)
            start = h.net.messages_sent
            h.run(2.0)
            idle = h.net.messages_sent - start
            h.amcast(dests, "m")
            h.run(3.0)
            return h.net.messages_sent - start - 2 * idle

        single_cost = cost_of(["g0"])
        multi_cost = cost_of(["g0", "g1"])
        assert single_cost > 0
        assert multi_cost > 2 * single_cost


class TestGenuineness:
    def test_uninvolved_group_exchanges_no_protocol_messages(self):
        h = make_harness(n_groups=3)
        h.run(0.5)
        g2 = h.group(2)
        decided_before = [r.next_deliver for r in g2.replicas]
        for i in range(10):
            h.amcast(["g0", "g1"], f"p{i}")
        h.run(3.0)
        # g2 replicas ordered nothing and a-delivered nothing.
        assert [r.next_deliver for r in g2.replicas] == decided_before
        assert all(r.adelivered_count == 0 for r in g2.replicas)


class TestFifoOrder:
    """One sender's numbered messages over FIFO links (the harness's
    constant latency) arrive in send order and Skeen's timestamps keep
    it: no gate enforces this, and the numbers are only what the groups
    remember the messages by."""

    def test_fifo_same_destination(self, harness):
        for i in range(10):
            harness.amcast(["g0"], i, numbered=True)
        harness.run(2.0)
        assert harness.payloads(0, 0) == list(range(10))

    def test_fifo_across_disjoint_destinations_not_blocking(self, harness):
        harness.amcast(["g0"], "to-g0", numbered=True)
        harness.amcast(["g1"], "to-g1", numbered=True)
        harness.run(2.0)
        assert harness.payloads(0, 0) == ["to-g0"]
        assert harness.payloads(1, 0) == ["to-g1"]

    def test_fifo_interleaved_single_and_multi(self, harness):
        harness.amcast(["g0"], "a", numbered=True)
        harness.amcast(["g0", "g1"], "b", numbered=True)
        harness.amcast(["g0"], "c", numbered=True)
        harness.run(3.0)
        p0 = harness.payloads(0, 0)
        assert p0 == ["a", "b", "c"]
        assert harness.payloads(1, 0) == ["b"]

    def test_two_senders_fifo_independent(self, harness):
        from tests.multicast.conftest import Sender

        c2 = harness.net.register(Sender("client1"))
        harness.amcast(["g0"], "a1", numbered=True)
        harness.amcast(["g0"], "b1", numbered=True, sender=c2)
        harness.amcast(["g0"], "a2", numbered=True)
        harness.run(2.0)
        p = harness.payloads(0, 0)
        assert p.index("a1") < p.index("a2")
        assert set(p) == {"a1", "b1", "a2"}
