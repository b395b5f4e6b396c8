"""``repro.compartment.serverside.ReadPath`` alone: its checkpoint section
round-trips, and a holder that recovers or adopts a snapshot stops trusting
its own lease.  Driven against a stand-in server — the component reads the
store, the clock and the name, nothing of the execution queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compartment import CompartmentConfig
from repro.compartment.messages import LeaseGrant
from repro.compartment.serverside import ReadPath
from repro.smr.statemachine import VariableStore

ME, PEER = "p0/r0", "p0/r1"


class StandInServer:
    """What :class:`ReadPath` touches of a server outside message handling."""

    name, partition, _records_metrics = ME, "p0", False

    def __init__(self):
        self.store = VariableStore()
        self.now = 0.0
        self.timers = []

    def set_timer(self, delay, callback):
        self.timers.append(callback)
        return None  # never "active": every mutation arms a flush


def read_path(server):
    return ReadPath(server, CompartmentConfig(enabled=True), ("p0/learner0",))


_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["put", "discard"]), st.sampled_from("abcd"), st.integers(0, 9)),
    max_size=12,
)
_GRANTS = st.lists(
    st.tuples(
        st.sampled_from([ME, PEER]),
        st.floats(0.0, 10.0, allow_nan=False),
        st.floats(0.1, 2.0, allow_nan=False),
    ),
    max_size=6,
)


def drive(reads, mutations, grants, abandon):
    store = reads.server.store
    for op, var, value in mutations:
        if op == "put":
            store.put(var, value)
        else:
            store.discard(var)
    for i, (holder, at, length) in enumerate(grants):
        reads.apply_grant(LeaseGrant(f"g{i}", holder, at, at + length))
    if abandon:
        reads.abandon_lease()


class TestCheckpointSection:
    @settings(max_examples=200, deadline=None)
    @given(_MUTATIONS, _GRANTS, st.booleans())
    def test_install_of_capture_round_trips(self, mutations, grants, abandon):
        """Versions, lease and sequence come back as captured, the install
        bumps no version although it attaches the observer to the fresh
        store, and the only thing that may move is the distrust mark."""
        original = read_path(StandInServer())
        drive(original, mutations, grants, abandon)
        captured = original.capture()

        adopter = StandInServer()
        for var, value in original.server.store.items():
            adopter.store.put(var, value)
        reads = read_path(adopter)  # observed from construction, as a server's is
        reads.install(captured)
        restored = reads.capture()
        distrust = restored.pop("lease_abandoned_until")
        was = captured.pop("lease_abandoned_until")
        assert restored == captured
        lease = reads.lease
        if lease is not None and lease.holder == ME:
            assert distrust == max(was, lease.expires_at)
        else:
            assert distrust == was

        adopter.store.put("a", 42)  # observed again after the install
        assert reads.versions["a"] == dict(captured["feed_versions"]).get("a", 0) + 1

    @settings(max_examples=200, deadline=None)
    @given(_GRANTS)
    def test_recovered_holder_distrusts_its_own_lease(self, grants):
        reads = read_path(StandInServer())
        drive(reads, [], grants, abandon=False)
        before = reads.capture()["lease_abandoned_until"]
        reads.on_recover()
        after = reads.capture()["lease_abandoned_until"]
        lease = reads.lease
        if lease is not None and lease.holder == ME:
            assert after == lease.expires_at >= before
        else:
            assert after == before == 0.0
