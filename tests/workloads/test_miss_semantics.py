"""Missing-row semantics of the Chirper and TPC-C execute paths.

Under relocation a command can execute against a store that is missing
rows it expected (borrow raced a delete, a remote district failed to
ship a row).  Every transaction must then either return a deterministic
miss value or raise *before its first mutation* — a half-applied
transaction on one replica is a divergence bug, an unhandled exception
is a crash bug.

Stores hand out references, so "before" is always a deep copy
(:func:`contents`): compared with the live store it sees a forgotten
``put`` and an in-place mutation alike.
"""

import pytest

from repro.smr import Command
from repro.smr.fastcopy import copy_value
from repro.smr.statemachine import VariableStore
from repro.workloads.social.chirper import ChirperApp, user_var
from repro.workloads.tpcc import (
    TPCCApp,
    TPCCConfig,
    customer_key,
    district_key,
    order_key,
    stock_key,
    warehouse_key,
)


def preload(app):
    store = VariableStore()
    for var, value in app.initial_variables().items():
        store.put(var, value)
    return store


def contents(store):
    """A deep copy of everything ``store`` holds."""
    return copy_value(dict(store.items()))


# ---------------------------------------------------------------------------
# Chirper
# ---------------------------------------------------------------------------


@pytest.fixture
def chirper():
    app = ChirperApp()
    store = VariableStore()
    for u in (1, 2, 3):
        store.put(user_var(u), app.initial_value_of(user_var(u)))
    return app, store


class TestChirperMisses:
    def test_timeline_of_deleted_user_is_none(self, chirper):
        app, store = chirper
        app.execute(Command("u1", "delete", (2,)), store)
        assert app.execute(Command("u2", "timeline", (2,)), store) is None

    def test_post_by_deleted_author_is_clean_nok(self, chirper):
        app, store = chirper
        store.discard(user_var(1))
        before = contents(store)
        with pytest.raises(KeyError):
            app.execute(Command("u1", "post", (1, "hi", (2, 3))), store)
        # no follower timeline was touched
        assert contents(store) == before

    def test_post_skips_deleted_followers(self, chirper):
        app, store = chirper
        store.discard(user_var(3))
        delivered = app.execute(Command("u1", "post", (1, "hi", (2, 3))), store)
        assert delivered == 1
        assert store.get(user_var(2))["timeline"] == ((1, "hi"),)

    def test_follow_with_deleted_followee_mutates_neither(self, chirper):
        app, store = chirper
        store.discard(user_var(2))
        before = contents(store)
        with pytest.raises(KeyError):
            app.execute(Command("u1", "follow", (1, 2)), store)
        assert contents(store) == before
        assert store.get(user_var(1))["following"] == set()

    def test_follow_with_deleted_follower_mutates_neither(self, chirper):
        app, store = chirper
        store.discard(user_var(1))
        before = contents(store)
        with pytest.raises(KeyError):
            app.execute(Command("u1", "follow", (1, 2)), store)
        assert contents(store) == before
        assert store.get(user_var(2))["followers"] == set()


# ---------------------------------------------------------------------------
# TPC-C
# ---------------------------------------------------------------------------


@pytest.fixture
def tpcc():
    config = TPCCConfig(n_warehouses=1)
    app = TPCCApp(config)
    return app, preload(app), config


def new_order_cmd(uid="n1", lines=((1, 1, 5),)):
    return Command(uid, "new_order", (1, 1, 1, tuple(lines)))


class TestTPCCMisses:
    def test_order_status_missing_customer_is_none(self, tpcc):
        app, store, _ = tpcc
        store.discard(customer_key(1, 1, 1))
        result = app.execute(Command("u1", "order_status", (1, 1, 1)), store)
        assert result is None

    def test_stock_level_missing_district_is_none(self, tpcc):
        app, store, _ = tpcc
        store.discard(district_key(1, 1))
        result = app.execute(Command("u1", "stock_level", (1, 1, 15)), store)
        assert result is None

    def test_payment_missing_customer_mutates_nothing(self, tpcc):
        app, store, _ = tpcc
        store.discard(customer_key(1, 1, 1))
        before = contents(store)
        with pytest.raises(KeyError):
            app.execute(Command("u1", "payment", (1, 1, 1, 1, 1, 10.0)), store)
        assert contents(store) == before
        assert store.get(district_key(1, 1))["ytd"] == 0.0

    def test_new_order_missing_stock_mutates_nothing(self, tpcc):
        app, store, _ = tpcc
        store.discard(stock_key(1, 1))
        before = contents(store)
        with pytest.raises(KeyError):
            app.execute(new_order_cmd(), store)
        assert contents(store) == before
        assert store.get(district_key(1, 1))["undelivered"] == ()

    def test_new_order_invalid_item_still_aborts_cleanly(self, tpcc):
        app, store, config = tpcc
        bad = config.n_items + 1
        before = contents(store)
        with pytest.raises(ValueError, match="TPCC_ABORT_INVALID_ITEM"):
            app.execute(new_order_cmd(lines=((bad, 1, 5),)), store)
        assert contents(store) == before

    def test_delivery_missing_order_row_leaves_district_intact(self, tpcc):
        app, store, _ = tpcc
        app.execute(new_order_cmd(), store)
        o_id = store.get(district_key(1, 1))["undelivered"][0]
        store.discard(order_key(1, 1, o_id))
        before = contents(store)
        result = app.execute(Command("u2", "delivery", (1, 7)), store)
        assert contents(store) == before
        # the order could not be validated: nothing was delivered and the
        # district queue still holds it for a retry
        assert (1, o_id) not in result["delivered"]
        assert o_id in store.get(district_key(1, 1))["undelivered"]

    def test_delivery_missing_customer_leaves_district_intact(self, tpcc):
        app, store, _ = tpcc
        app.execute(new_order_cmd(), store)
        o_id = store.get(district_key(1, 1))["undelivered"][0]
        store.discard(customer_key(1, 1, 1))
        before = contents(store)
        result = app.execute(Command("u2", "delivery", (1, 7)), store)
        assert contents(store) == before
        assert result["delivered"] == []
        assert o_id in store.get(district_key(1, 1))["undelivered"]

    def test_delivery_happy_path_still_delivers(self, tpcc):
        app, store, _ = tpcc
        app.execute(new_order_cmd(), store)
        result = app.execute(Command("u2", "delivery", (1, 7)), store)
        assert result["delivered"] == [(1, 1)]
        assert store.get(district_key(1, 1))["undelivered"] == ()
