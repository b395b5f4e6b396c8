"""Tests for the TPC-C implementation: schema, transactions, consistency
conditions from the spec, and the workload generator."""

import random

import pytest

from repro.smr import Command
from repro.smr.fastcopy import copy_value
from repro.smr.statemachine import VariableStore
from repro.workloads.tpcc import (
    TPCCApp,
    TPCCConfig,
    TPCCWorkload,
    build_initial_variables,
    customer_key,
    district_key,
    district_node,
    item_price,
    new_order_key,
    order_key,
    order_line_key,
    stock_key,
    warehouse_key,
    warehouse_node,
)
from repro.workloads.tpcc.loader import count_rows


def small_config():
    return TPCCConfig(
        n_warehouses=2,
        districts_per_warehouse=3,
        customers_per_district=5,
        n_items=20,
    )


def fresh(app):
    store = VariableStore()
    for var, value in app.initial_variables().items():
        store.put(var, value)
    return store


def new_order_cmd(uid, w=1, d=1, c=1, lines=((1, 1, 5), (2, 1, 3))):
    return Command(uid, "new_order", (w, d, c, tuple(lines)))


class TestLoader:
    def test_row_count_formula(self):
        cfg = small_config()
        assert len(build_initial_variables(cfg)) == count_rows(cfg)

    def test_all_tables_present(self):
        cfg = small_config()
        variables = build_initial_variables(cfg)
        assert warehouse_key(1) in variables
        assert district_key(2, 3) in variables
        assert customer_key(1, 2, 5) in variables
        assert stock_key(2, 20) in variables

    def test_graph_nodes_are_districts_and_warehouses(self):
        app = TPCCApp(small_config())
        assert app.graph_node_of(customer_key(1, 2, 3)) == district_node(1, 2)
        assert app.graph_node_of(stock_key(1, 7)) == warehouse_node(1)
        assert app.graph_node_of(order_key(1, 2, 9)) == district_node(1, 2)
        assert app.graph_node_of(warehouse_key(1)) == warehouse_node(1)


class TestNewOrder:
    def setup_method(self):
        self.app = TPCCApp(small_config())
        self.store = fresh(self.app)

    def test_creates_order_rows(self):
        result = self.app.execute(new_order_cmd("c:0"), self.store)
        o_id = result["o_id"]
        assert o_id == 1
        assert order_key(1, 1, o_id) in self.store
        assert new_order_key(1, 1, o_id) in self.store
        assert order_line_key(1, 1, o_id, 1) in self.store
        assert order_line_key(1, 1, o_id, 2) in self.store

    def test_increments_next_o_id(self):
        self.app.execute(new_order_cmd("c:0"), self.store)
        self.app.execute(new_order_cmd("c:1"), self.store)
        assert self.store.get(district_key(1, 1))["next_o_id"] == 3

    def test_decrements_stock(self):
        before = self.store.get(stock_key(1, 1))["quantity"]
        self.app.execute(new_order_cmd("c:0", lines=((1, 1, 5),)), self.store)
        assert self.store.get(stock_key(1, 1))["quantity"] == before - 5

    def test_stock_restock_rule(self):
        stock = self.store.get(stock_key(1, 1))
        self.store.put(stock_key(1, 1), {**stock, "quantity": 12})
        self.app.execute(new_order_cmd("c:0", lines=((1, 1, 5),)), self.store)
        # 12 < 5+10 -> restock: 12 - 5 + 91
        assert self.store.get(stock_key(1, 1))["quantity"] == 98

    def test_remote_line_counts(self):
        self.app.execute(new_order_cmd("c:0", lines=((1, 2, 5),)), self.store)
        assert self.store.get(stock_key(2, 1))["remote_cnt"] == 1
        assert not self.store.get(order_key(1, 1, 1))["all_local"]

    def test_total_includes_taxes_and_discount(self):
        result = self.app.execute(
            new_order_cmd("c:0", lines=((1, 1, 2),)), self.store
        )
        warehouse = self.store.get(warehouse_key(1))
        district = self.store.get(district_key(1, 1))
        customer = self.store.get(customer_key(1, 1, 1))
        expected = (
            2
            * item_price(1)
            * (1 - customer["discount"])
            * (1 + warehouse["tax"] + district["tax"])
        )
        assert result["total"] == pytest.approx(round(expected, 2))

    def test_invalid_item_aborts_without_writes(self):
        cfg = self.app.config
        bad = new_order_cmd("c:0", lines=((1, 1, 2), (cfg.n_items + 1, 1, 1)))
        before_next = self.store.get(district_key(1, 1))["next_o_id"]
        before_qty = self.store.get(stock_key(1, 1))["quantity"]
        with pytest.raises(ValueError):
            self.app.execute(bad, self.store)
        assert self.store.get(district_key(1, 1))["next_o_id"] == before_next
        assert self.store.get(stock_key(1, 1))["quantity"] == before_qty

    def test_updates_undelivered_fifo(self):
        self.app.execute(new_order_cmd("c:0"), self.store)
        self.app.execute(new_order_cmd("c:1"), self.store)
        assert self.store.get(district_key(1, 1))["undelivered"] == (1, 2)

    def test_variables_of_includes_stock_of_supply_warehouse(self):
        cmd = new_order_cmd("c:0", lines=((3, 2, 1),))
        vars_ = self.app.variables_of(cmd)
        assert stock_key(2, 3) in vars_
        nodes = self.app.nodes_of(cmd)
        assert warehouse_node(2) in nodes
        assert district_node(1, 1) in nodes


class TestPayment:
    def setup_method(self):
        self.app = TPCCApp(small_config())
        self.store = fresh(self.app)

    def test_updates_ytd_chain(self):
        cmd = Command("c:0", "payment", (1, 1, 1, 1, 2, 100.0))
        self.app.execute(cmd, self.store)
        assert self.store.get(warehouse_key(1))["ytd"] == 100.0
        assert self.store.get(district_key(1, 1))["ytd"] == 100.0
        customer = self.store.get(customer_key(1, 1, 2))
        assert customer["balance"] == -110.0
        assert customer["payment_cnt"] == 2

    def test_creates_history_row(self):
        self.app.execute(
            Command("c:0", "payment", (1, 1, 1, 1, 2, 50.0)), self.store
        )
        from repro.workloads.tpcc import history_key

        assert history_key(1, 1, 2, 2) in self.store

    def test_remote_customer_payment(self):
        cmd = Command("c:0", "payment", (1, 1, 2, 3, 4, 10.0))
        self.app.execute(cmd, self.store)
        assert self.store.get(warehouse_key(1))["ytd"] == 10.0
        assert self.store.get(customer_key(2, 3, 4))["ytd_payment"] == 20.0
        nodes = self.app.nodes_of(cmd)
        assert district_node(2, 3) in nodes and warehouse_node(1) in nodes


class TestOrderStatusDeliveryStockLevel:
    def setup_method(self):
        self.app = TPCCApp(small_config())
        self.store = fresh(self.app)
        self.app.execute(new_order_cmd("c:0", c=1), self.store)

    def test_order_status_returns_last_order(self):
        result = self.app.execute(
            Command("c:1", "order_status", (1, 1, 1)), self.store
        )
        assert result["order"]["o_id"] == 1
        assert len(result["order"]["lines"]) == 2

    def test_order_status_no_orders(self):
        result = self.app.execute(
            Command("c:1", "order_status", (1, 1, 5)), self.store
        )
        assert result["order"] is None

    def test_delivery_processes_oldest_order(self):
        result = self.app.execute(
            Command("c:1", "delivery", (1, 7)), self.store
        )
        assert (1, 1) in result["delivered"]
        assert new_order_key(1, 1, 1) not in self.store
        assert self.store.get(order_key(1, 1, 1))["carrier_id"] == 7
        customer = self.store.get(customer_key(1, 1, 1))
        assert customer["delivery_cnt"] == 1
        assert customer["balance"] > -10.0  # credited with order total

    def test_delivery_empty_districts_noop(self):
        self.app.execute(Command("c:1", "delivery", (1, 7)), self.store)
        result = self.app.execute(Command("c:2", "delivery", (1, 8)), self.store)
        assert result["delivered"] == []

    def test_stock_level_counts_low_items(self):
        # push stock of item 1 below the threshold
        stock = self.store.get(stock_key(1, 1))
        self.store.put(stock_key(1, 1), {**stock, "quantity": 3})
        result = self.app.execute(
            Command("c:1", "stock_level", (1, 1, 10)), self.store
        )
        assert result["low_stock"] == 1

    def test_read_only_transactions_leave_state_unchanged(self):
        snapshot = copy_value(dict(self.store.items()))
        self.app.execute(Command("c:1", "order_status", (1, 1, 1)), self.store)
        self.app.execute(Command("c:2", "stock_level", (1, 1, 10)), self.store)
        assert dict(self.store.items()) == snapshot


class TestConsistencyConditions:
    """The spec's consistency conditions hold after any transaction mix."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariants_after_random_mix(self, seed):
        cfg = small_config()
        app = TPCCApp(cfg)
        store = fresh(app)
        wl = TPCCWorkload(cfg, seed=seed)

        class FakeClient:
            name = "c0"
            now = 0.0

        for _ in range(300):
            cmd = wl.next_command(FakeClient())
            try:
                app.execute(cmd, store)
            except ValueError:
                pass  # 1% aborts

        for w in range(1, cfg.n_warehouses + 1):
            # C1: W_YTD == sum of its districts' D_YTD
            w_ytd = store.get(warehouse_key(w))["ytd"]
            d_ytd = sum(
                store.get(district_key(w, d))["ytd"]
                for d in range(1, cfg.districts_per_warehouse + 1)
            )
            assert w_ytd == pytest.approx(d_ytd)
            for d in range(1, cfg.districts_per_warehouse + 1):
                district = store.get(district_key(w, d))
                next_o = district["next_o_id"]
                # C2: every order id below next_o_id exists, none above
                for o in range(1, next_o):
                    assert order_key(w, d, o) in store
                assert order_key(w, d, next_o) not in store
                # C3: undelivered ids are exactly the NEW-ORDER rows
                no_rows = {
                    key[3]
                    for key, _ in store.items()
                    if key[0] == "NO" and key[1] == w and key[2] == d
                }
                assert set(district["undelivered"]) == no_rows
                # C4: order_line rows match each order's ol_cnt
                for o in range(1, next_o):
                    order = store.get(order_key(w, d, o))
                    for n in range(1, order["ol_cnt"] + 1):
                        assert order_line_key(w, d, o, n) in store


class TestWorkloadGenerator:
    def test_mix_close_to_spec(self):
        cfg = small_config()
        wl = TPCCWorkload(cfg, seed=1)

        class FakeClient:
            name = "c0"
            now = 0.0

        for _ in range(5000):
            wl.next_command(FakeClient())
        total = sum(wl.stats.values())
        assert wl.stats["new_order"] / total == pytest.approx(0.45, abs=0.03)
        assert wl.stats["payment"] / total == pytest.approx(0.43, abs=0.03)
        assert wl.stats["delivery"] / total == pytest.approx(0.04, abs=0.015)

    def test_clients_bound_to_warehouses_round_robin(self):
        cfg = small_config()
        wl = TPCCWorkload(cfg, seed=1)

        class C:
            def __init__(self, name):
                self.name = name
                self.now = 0.0

        homes = set()
        for i in range(cfg.n_warehouses):
            cmd = wl.next_command(C(f"c{i}"))
            homes.add(cmd.args[0])
        assert homes == set(range(1, cfg.n_warehouses + 1))

    def test_remote_lines_rare(self):
        cfg = TPCCConfig(n_warehouses=4, n_items=50)
        wl = TPCCWorkload(cfg, seed=2)

        class FakeClient:
            name = "c0"
            now = 0.0

        remote = local = 0
        for _ in range(3000):
            cmd = wl.next_command(FakeClient())
            if cmd.op != "new_order":
                continue
            w = cmd.args[0]
            for _i, sw, _q in cmd.args[3]:
                if sw == w:
                    local += 1
                else:
                    remote += 1
        frac = remote / (remote + local)
        assert 0.002 < frac < 0.03  # around the spec's 1%

    def test_single_warehouse_never_remote(self):
        cfg = TPCCConfig(n_warehouses=1, n_items=50)
        wl = TPCCWorkload(cfg, seed=3)

        class FakeClient:
            name = "c0"
            now = 0.0

        for _ in range(500):
            cmd = wl.next_command(FakeClient())
            if cmd.op == "new_order":
                assert all(sw == 1 for _i, sw, _q in cmd.args[3])

    def test_commands_per_client_limit(self):
        cfg = small_config()
        wl = TPCCWorkload(cfg, seed=1, commands_per_client=3)

        class FakeClient:
            name = "c0"
            now = 0.0

        cmds = [wl.next_command(FakeClient()) for _ in range(5)]
        assert sum(c is not None for c in cmds) == 3
