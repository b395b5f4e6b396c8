"""Property tests for the state-copying primitives.

Checkpointing and snapshot transfer lean entirely on
:func:`repro.smr.fastcopy.copy_value` and the
:meth:`VariableStore.snapshot` / :meth:`VariableStore.insert_copy` pair:
a checkpoint must be a *faithful* copy (equal values) that shares *no*
mutable structure with the live store, or a post-checkpoint write would
silently corrupt history.  Hypothesis drives both properties over
arbitrary compositions of the plain-data shapes the stores hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smr.fastcopy import copy_value
from repro.smr.statemachine import VariableStore

# Values mirror what application state machines actually store: scalars
# composed through dicts / lists / tuples / (frozen)sets.
scalars = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.booleans(),
    st.binary(max_size=8),
    st.none(),
)
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=8,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.tuples(inner, inner),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
    ),
    max_leaves=20,
)


def mutable_parts(value):
    """Every mutable container reachable inside ``value`` (by identity)."""
    out = []
    if isinstance(value, dict):
        out.append(value)
        for v in value.values():
            out.extend(mutable_parts(v))
    elif isinstance(value, (list, tuple, set, frozenset)):
        if isinstance(value, (list, set)):
            out.append(value)
        for v in value:
            out.extend(mutable_parts(v))
    return out


class TestCopyValue:
    @given(values)
    @settings(max_examples=200)
    def test_copy_is_equal(self, value):
        assert copy_value(value) == value

    @given(values)
    @settings(max_examples=200)
    def test_copy_shares_no_mutable_structure(self, value):
        clone = copy_value(value)
        original_ids = {id(part) for part in mutable_parts(value)}
        for part in mutable_parts(clone):
            assert id(part) not in original_ids, "aliased mutable container"

    @given(values)
    @settings(max_examples=100)
    def test_copy_preserves_types(self, value):
        assert type(copy_value(value)) is type(value)


class TestStoreRoundTrip:
    @given(st.dictionaries(st.text(max_size=6), values, max_size=6))
    @settings(max_examples=100)
    def test_snapshot_insert_copy_round_trip(self, data):
        """snapshot → insert_copy into a fresh store reproduces the
        original contents exactly (the snapshot-install path)."""
        store = VariableStore()
        for var, value in data.items():
            store.put(var, value)
        snap = store.snapshot(store.variables())
        assert snap == data

        restored = VariableStore()
        for var, value in snap.items():
            restored.insert_copy(var, value)
        assert dict(restored.items()) == data

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_snapshot_is_isolated_from_later_mutation(self, data):
        """Mutating the live store after a snapshot never changes the
        snapshot — the no-aliasing guarantee checkpoints rely on."""
        store = VariableStore()
        for var, value in data.items():
            store.put(var, value)
        snap = store.snapshot(store.variables())

        for var in list(data):
            store.put(var, {"clobbered": [var]})
        assert snap == data

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_installed_copy_is_isolated_from_source(self, data):
        """insert_copy takes its own copy: mutating the source values
        after install leaves the store untouched."""
        pristine = {var: copy_value(value) for var, value in data.items()}
        store = VariableStore()
        for var, value in data.items():
            store.insert_copy(var, value)
        for var in list(data):
            if isinstance(data[var], list):
                data[var].append("tail")
            elif isinstance(data[var], dict):
                data[var]["extra"] = 1
            elif isinstance(data[var], set):
                data[var].add("extra")
        assert dict(store.items()) == pristine

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_lent_variables_alias_no_store(self, data):
        """The lend path: ``take`` moves the values out of the sender's
        store into one message that both target replicas ``insert_copy``.
        The sender keeps nothing, and neither receiver's store shares
        mutable structure with the message or with the other receiver."""
        pristine = {var: copy_value(value) for var, value in data.items()}
        sender = VariableStore()
        for var, value in data.items():
            sender.put(var, value)
        pairs = tuple((var, sender.take(var)) for var in data)
        assert sender.variables() == []

        receivers = [VariableStore(), VariableStore()]
        for store in receivers:
            for var, value in pairs:
                store.insert_copy(var, value)

        def part_ids(values):
            return {id(part) for value in values for part in mutable_parts(value)}

        in_flight = part_ids(value for _, value in pairs)
        first, second = (
            part_ids(store.get(var) for var in data) for store in receivers
        )
        assert not in_flight & first
        assert not in_flight & second
        assert not first & second
        for store in receivers:
            assert dict(store.items()) == pristine
