"""The five TPC-C transactions as a DynaStar application state machine.

Command encodings (built by :class:`~repro.workloads.tpcc.workload.TPCCWorkload`):

* ``("new_order", w, d, c, lines)`` — ``lines`` is a tuple of
  ``(item_id, supply_w, quantity)``; ~1 % of commands carry an invalid
  item id and abort (checked *before* any write, so an abort is a no-op).
* ``("payment", w, d, c_w, c_d, c, amount)``
* ``("order_status", w, d, c)`` — read-only
* ``("delivery", w, carrier)`` — pops the oldest undelivered order of
  every district of ``w``
* ``("stock_level", w, d, threshold)`` — read-only

Routing (``variables_of``) declares warehouse/district/customer/stock
rows concretely; order/order-line/new-order/history rows are reached
through their district node (``NodeWildcard``) because their keys depend
on state (e.g. Delivery's oldest order).  Inserted rows are detected via
store tracking and travel back to their home partition automatically.
"""

from __future__ import annotations

from typing import Hashable

from repro.smr.command import Command
from repro.smr.statemachine import AppStateMachine, NodeWildcard, VariableStore
from repro.workloads.tpcc.loader import build_initial_variables
from repro.workloads.tpcc.schema import (
    TPCCConfig,
    customer_key,
    district_key,
    district_node,
    history_key,
    item_exists,
    item_price,
    new_order_key,
    node_of_row,
    order_key,
    order_line_key,
    stock_key,
    warehouse_key,
    warehouse_node,
)


class TPCCApp(AppStateMachine):
    """TPC-C with district-granularity workload-graph nodes."""

    def __init__(self, config: TPCCConfig | None = None):
        self.config = config or TPCCConfig()

    # -- bootstrap ---------------------------------------------------------

    def initial_variables(self) -> dict:
        return build_initial_variables(self.config)

    # -- routing --------------------------------------------------------------

    def graph_node_of(self, var: Hashable):
        return node_of_row(var)

    def variables_of(self, command: Command) -> frozenset:
        op = command.op
        if op == "new_order":
            w, d, c, lines = command.args
            vars_ = {
                warehouse_key(w),
                district_key(w, d),
                customer_key(w, d, c),
            }
            for item_id, supply_w, _qty in lines:
                vars_.add(stock_key(supply_w, item_id))
            return frozenset(vars_)
        if op == "payment":
            w, d, c_w, c_d, c, _amount = command.args
            return frozenset(
                {
                    warehouse_key(w),
                    district_key(w, d),
                    customer_key(c_w, c_d, c),
                }
            )
        if op == "order_status":
            w, d, c = command.args
            return frozenset(
                {customer_key(w, d, c), NodeWildcard(district_node(w, d))}
            )
        if op == "delivery":
            w, _carrier = command.args
            return frozenset(
                NodeWildcard(district_node(w, d))
                for d in range(1, self.config.districts_per_warehouse + 1)
            )
        if op == "stock_level":
            w, d, _threshold = command.args
            return frozenset(
                {
                    NodeWildcard(district_node(w, d)),
                    NodeWildcard(warehouse_node(w)),
                }
            )
        raise ValueError(f"unknown TPC-C op {op!r}")

    # -- fine-grained borrowing (§5.3: move objects, not whole districts) -----------

    def borrow_variables(self, command: Command, node, store, node_vars):
        """Select exactly the rows a wildcard-declared transaction needs,
        computed on the owning partition's live state."""
        op = command.op
        if op == "order_status":
            w, d, c = command.args
            vars_ = [customer_key(w, d, c), district_key(w, d)]
            ckey = customer_key(w, d, c)
            if ckey in store:
                o_id = store.get(ckey)["last_o_id"]
                vars_.extend(self._order_rows(store, w, d, o_id))
            return vars_
        if op == "delivery":
            w, _carrier = command.args
            _tag, _w, d = node
            vars_ = [district_key(w, d)]
            dkey = district_key(w, d)
            if dkey in store and store.get(dkey)["undelivered"]:
                o_id = store.get(dkey)["undelivered"][0]
                vars_.extend(self._order_rows(store, w, d, o_id))
                vars_.append(new_order_key(w, d, o_id))
                okey = order_key(w, d, o_id)
                if okey in store:
                    vars_.append(
                        customer_key(w, d, store.get(okey)["c_id"])
                    )
            return vars_
        if op == "stock_level":
            w, d, _threshold = command.args
            if node == warehouse_node(w):
                # all stock rows of the warehouse (bounded by n_items)
                return [v for v in node_vars if v[0] == "S"]
            # district side: district row + the last 20 orders' rows
            vars_ = [district_key(w, d)]
            dkey = district_key(w, d)
            if dkey in store:
                last = store.get(dkey)["next_o_id"]
                for o_id in range(max(1, last - 20), last):
                    vars_.extend(self._order_rows(store, w, d, o_id))
            return vars_
        return None  # ship the whole node for anything unanticipated

    @staticmethod
    def _order_rows(store: VariableStore, w: int, d: int, o_id: int) -> list:
        """The order row and its order lines, if present."""
        rows = []
        okey = order_key(w, d, o_id)
        if o_id and okey in store:
            rows.append(okey)
            for n in range(1, store.get(okey)["ol_cnt"] + 1):
                rows.append(order_line_key(w, d, o_id, n))
        return rows

    def is_readonly(self, command: Command) -> bool:
        return command.op in ("order_status", "stock_level")

    def read_variables_of(self, command: Command) -> frozenset:
        op = command.op
        if op in ("order_status", "stock_level"):
            return self.variables_of(command)
        if op == "new_order":
            # The warehouse row is only read (tax rate); district,
            # customer and stock rows are all mutated.  Undeclared
            # inserts (order / order-line / new-order rows) stay under
            # the district node, which the written district row already
            # places in the write footprint.
            w, _d, _c, _lines = command.args
            return frozenset({warehouse_key(w)})
        return frozenset()

    def conflict_free_variables_of(self, command: Command) -> frozenset:
        if command.op == "new_order":
            # New-Order reads the warehouse row only for its tax rate,
            # which no transaction ever changes; Payment's writes to the
            # row touch only the ytd counter New-Order never observes.
            # Excluding it keeps the district-parallel New-Order stream
            # from serializing behind every same-warehouse Payment.
            w, _d, _c, _lines = command.args
            return frozenset({warehouse_key(w)})
        return frozenset()

    # -- execution ----------------------------------------------------------------

    def execute(self, command: Command, store: VariableStore):
        op = command.op
        if op == "new_order":
            return self._new_order(command, store)
        if op == "payment":
            return self._payment(command, store)
        if op == "order_status":
            return self._order_status(command, store)
        if op == "delivery":
            return self._delivery(command, store)
        if op == "stock_level":
            return self._stock_level(command, store)
        raise ValueError(f"unknown TPC-C op {op!r}")

    # -- New-Order (45 %) ------------------------------------------------------------

    def _new_order(self, command: Command, store: VariableStore):
        w, d, c, lines = command.args
        # Abort-before-write: the spec's 1% "unused item" rollback.
        for item_id, _sw, _qty in lines:
            if not item_exists(item_id, self.config):
                raise ValueError("TPCC_ABORT_INVALID_ITEM")
        # Validate every row the transaction touches before the first
        # mutation: a missing stock row discovered mid-loop must not
        # leave a half-applied order behind.
        for key in (warehouse_key(w), district_key(w, d), customer_key(w, d, c)):
            if key not in store:
                raise KeyError(key)
        for item_id, supply_w, _qty in lines:
            if stock_key(supply_w, item_id) not in store:
                raise KeyError(stock_key(supply_w, item_id))

        # Stored rows are immutable: every row written below is a private
        # copy until the ``put`` that stores it.
        warehouse = store.get(warehouse_key(w))
        district = store.get(district_key(w, d)).copy()
        customer = store.get(customer_key(w, d, c)).copy()

        o_id = district["next_o_id"]
        district["next_o_id"] = o_id + 1
        district["undelivered"] += (o_id,)
        store.put(district_key(w, d), district)

        all_local = all(sw == w for _i, sw, _q in lines)
        store.put(
            order_key(w, d, o_id),
            {
                "c_id": c,
                "carrier_id": None,
                "ol_cnt": len(lines),
                "all_local": all_local,
            },
        )
        store.put(new_order_key(w, d, o_id), {})
        customer["last_o_id"] = o_id
        store.put(customer_key(w, d, c), customer)

        total = 0.0
        for n, (item_id, supply_w, qty) in enumerate(lines, start=1):
            stock = store.get(stock_key(supply_w, item_id)).copy()
            if stock["quantity"] >= qty + 10:
                stock["quantity"] -= qty
            else:
                stock["quantity"] = stock["quantity"] - qty + 91
            stock["ytd"] += qty
            stock["order_cnt"] += 1
            if supply_w != w:
                stock["remote_cnt"] += 1
            store.put(stock_key(supply_w, item_id), stock)
            amount = qty * item_price(item_id)
            total += amount
            store.put(
                order_line_key(w, d, o_id, n),
                {
                    "i_id": item_id,
                    "supply_w": supply_w,
                    "qty": qty,
                    "amount": amount,
                    "delivery_d": None,
                },
            )
        total *= (1.0 - customer["discount"]) * (
            1.0 + warehouse["tax"] + district["tax"]
        )
        return {"o_id": o_id, "total": round(total, 2)}

    # -- Payment (43 %) -------------------------------------------------------------------

    def _payment(self, command: Command, store: VariableStore):
        w, d, c_w, c_d, c, amount = command.args
        # Validate all three rows before mutating any — the customer may
        # live on a borrowed remote district that failed to ship it.
        for key in (
            warehouse_key(w),
            district_key(w, d),
            customer_key(c_w, c_d, c),
        ):
            if key not in store:
                raise KeyError(key)
        warehouse = store.get(warehouse_key(w)).copy()
        warehouse["ytd"] += amount
        store.put(warehouse_key(w), warehouse)

        district = store.get(district_key(w, d)).copy()
        district["ytd"] += amount
        store.put(district_key(w, d), district)

        customer = store.get(customer_key(c_w, c_d, c)).copy()
        customer["balance"] -= amount
        customer["ytd_payment"] += amount
        customer["payment_cnt"] += 1
        store.put(customer_key(c_w, c_d, c), customer)
        store.put(
            history_key(c_w, c_d, c, customer["payment_cnt"]),
            {"amount": amount, "w": w, "d": d},
        )
        return {"balance": round(customer["balance"], 2)}

    # -- Order-Status (4 %) ---------------------------------------------------------------------

    def _order_status(self, command: Command, store: VariableStore):
        w, d, c = command.args
        customer = store.get_or_none(customer_key(w, d, c))
        if customer is None:
            return None  # deterministic miss (customer row unavailable)
        o_id = customer["last_o_id"]
        if o_id == 0 or order_key(w, d, o_id) not in store:
            return {"balance": round(customer["balance"], 2), "order": None}
        order = store.get(order_key(w, d, o_id))
        lines = []
        for n in range(1, order["ol_cnt"] + 1):
            key = order_line_key(w, d, o_id, n)
            if key in store:
                line = store.get(key)
                lines.append((line["i_id"], line["qty"], line["amount"]))
        return {
            "balance": round(customer["balance"], 2),
            "order": {"o_id": o_id, "carrier": order["carrier_id"], "lines": lines},
        }

    # -- Delivery (4 %) --------------------------------------------------------------------------

    def _delivery(self, command: Command, store: VariableStore):
        w, carrier = command.args
        delivered = []
        for d in range(1, self.config.districts_per_warehouse + 1):
            district = store.get_or_none(district_key(w, d))
            if district is None or not district["undelivered"]:
                continue
            # Validate the order and customer rows before popping the
            # undelivered entry: a missing row must leave the district
            # untouched (retried deliveries find it again) instead of
            # crashing mid-mutation with the order half-delivered.
            o_id = district["undelivered"][0]
            order = store.get_or_none(order_key(w, d, o_id))
            if order is None:
                continue
            customer = store.get_or_none(customer_key(w, d, order["c_id"]))
            if customer is None:
                continue
            # As in New-Order: private copies until the ``put``.
            district = district.copy()
            district["undelivered"] = district["undelivered"][1:]
            store.put(district_key(w, d), district)
            store.discard(new_order_key(w, d, o_id))
            order = order.copy()
            order["carrier_id"] = carrier
            store.put(order_key(w, d, o_id), order)
            total = 0.0
            for n in range(1, order["ol_cnt"] + 1):
                line = store.get_or_none(order_line_key(w, d, o_id, n))
                if line is None:
                    continue
                line = line.copy()
                line["delivery_d"] = carrier  # stands in for a timestamp
                store.put(order_line_key(w, d, o_id, n), line)
                total += line["amount"]
            customer = customer.copy()
            customer["balance"] += total
            customer["delivery_cnt"] += 1
            store.put(customer_key(w, d, order["c_id"]), customer)
            delivered.append((d, o_id))
        return {"delivered": delivered}

    # -- Stock-Level (4 %) ------------------------------------------------------------------------

    def _stock_level(self, command: Command, store: VariableStore):
        w, d, threshold = command.args
        district = store.get_or_none(district_key(w, d))
        if district is None:
            return None  # deterministic miss (district row unavailable)
        last = district["next_o_id"]
        low_items = set()
        for o_id in range(max(1, last - 20), last):
            key = order_key(w, d, o_id)
            if key not in store:
                continue
            order = store.get(key)
            for n in range(1, order["ol_cnt"] + 1):
                ol_key = order_line_key(w, d, o_id, n)
                if ol_key not in store:
                    continue
                item_id = store.get(ol_key)["i_id"]
                s_key = stock_key(w, item_id)
                if s_key in store and store.get(s_key)["quantity"] < threshold:
                    low_items.add(item_id)
        return {"low_stock": len(low_items)}
