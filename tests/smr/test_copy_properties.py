"""Property tests for the copy oracle and the store's reference contract.

:func:`repro.smr.fastcopy.copy_value` is no longer on any path of the
simulator — a value is immutable once stored and every holder shares
it — but it is what the contract tests compare against: a *faithful*
copy (equal values) that shares *no* mutable structure with its source.
``TestStoreRoundTrip`` then pins what :class:`VariableStore` promises in
its place: ``put`` / ``take`` / ``snapshot`` move the very object, and
replacing a variable (the only legal way to change it) never reaches a
holder of the old value.  Hypothesis drives both over arbitrary
compositions of the plain-data shapes the stores hold; every "before"
is a deep copy, because comparing a shared object with itself proves
nothing.
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
    def test_snapshot_put_round_trip(self, data):
        """snapshot → put into a fresh store reproduces the original
        contents exactly (the snapshot-install path), object for
        object."""
        pristine = copy_value(data)
        store = VariableStore()
        for var, value in data.items():
            store.put(var, value)
        snap = store.snapshot(store.variables())
        assert snap == pristine

        restored = VariableStore()
        for var, value in snap.items():
            restored.put(var, value)
        assert dict(restored.items()) == pristine
        assert all(restored.get(var) is data[var] for var in data)

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_snapshot_is_isolated_from_later_mutation(self, data):
        """Replacing every variable of the live store after a snapshot
        never changes the snapshot — what checkpoints rely on."""
        pristine = copy_value(data)
        store = VariableStore()
        for var, value in data.items():
            store.put(var, value)
        snap = store.snapshot(store.variables())

        for var in list(data):
            store.put(var, {"clobbered": (var,)})
            store.discard(var)
        assert snap == pristine

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_installed_value_is_the_source_object(self, data):
        """put takes the reference: the store holds the very object it
        was given, unchanged by the install."""
        pristine = copy_value(data)
        store = VariableStore()
        for var, value in data.items():
            store.put(var, value)
        assert all(store.get(var) is value for var, value in data.items())
        assert dict(store.items()) == pristine

    @given(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_lent_variables_are_one_object_everywhere(self, data):
        """The lend path: ``take`` moves the values out of the sender's
        store into one message that both target replicas ``put``.  The
        sender keeps nothing, message and receivers hold one object per
        variable, and a receiver that replaces a variable changes
        neither the message nor the other receiver."""
        pristine = copy_value(data)
        sender = VariableStore()
        for var, value in data.items():
            sender.put(var, value)
        pairs = tuple((var, sender.take(var)) for var in data)
        assert sender.variables() == []

        first, second = VariableStore(), VariableStore()
        for store in (first, second):
            for var, value in pairs:
                store.put(var, value)
        assert all(
            first.get(var) is value and second.get(var) is value
            for var, value in pairs
        )

        for var in data:
            first.put(var, ("replaced", var))
        assert dict(pairs) == pristine
        assert dict(second.items()) == pristine
