"""TPC-C schema: row keys, graph nodes, scale configuration.

Row-key conventions (all tuples, first element a table tag):

* ``("W", w)`` — warehouse row                  -> node ``("W", w)``
* ``("D", w, d)`` — district row                -> node ``("D", w, d)``
* ``("C", w, d, c)`` — customer row             -> node ``("D", w, d)``
* ``("O", w, d, o)`` — order row                -> node ``("D", w, d)``
* ``("NO", w, d, o)`` — new-order row           -> node ``("D", w, d)``
* ``("OL", w, d, o, n)`` — order-line row       -> node ``("D", w, d)``
* ``("H", w, d, c, seq)`` — history row         -> node ``("D", w, d)``
* ``("S", w, i)`` — stock row                   -> node ``("W", w)``

Warehouses and districts are the workload-graph nodes (§5.3); all other
rows ride along with their district/warehouse.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TPCCConfig:
    """Scale knobs.  Spec values: 10 districts, 3 000 customers/district,
    100 000 items — we default far smaller for simulation speed; the
    cross-partition *rates* (the behaviour under test) are unaffected."""

    n_warehouses: int = 4
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    n_items: int = 200
    initial_stock: int = 1000
    #: Fraction of new-order lines supplied by a remote warehouse (spec: 1 %).
    remote_order_line_prob: float = 0.01
    #: Fraction of payments for a customer of a remote warehouse (spec: 15 %).
    remote_payment_prob: float = 0.15
    #: Fraction of new-orders aborted due to an invalid item (spec: 1 %).
    invalid_item_prob: float = 0.01


# -- row keys ---------------------------------------------------------------


def warehouse_key(w: int) -> tuple:
    return ("W", w)


def district_key(w: int, d: int) -> tuple:
    return ("D", w, d)


def customer_key(w: int, d: int, c: int) -> tuple:
    return ("C", w, d, c)


def order_key(w: int, d: int, o: int) -> tuple:
    return ("O", w, d, o)


def new_order_key(w: int, d: int, o: int) -> tuple:
    return ("NO", w, d, o)


def order_line_key(w: int, d: int, o: int, n: int) -> tuple:
    return ("OL", w, d, o, n)


def stock_key(w: int, i: int) -> tuple:
    return ("S", w, i)


def history_key(w: int, d: int, c: int, seq: int) -> tuple:
    return ("H", w, d, c, seq)


# -- graph nodes (§5.3 granularity) --------------------------------------------


def warehouse_node(w: int) -> tuple:
    return ("W", w)


def district_node(w: int, d: int) -> tuple:
    return ("D", w, d)


def node_of_row(key: tuple) -> tuple:
    """Workload-graph node a row belongs to."""
    table = key[0]
    if table in ("W", "S"):
        return warehouse_node(key[1])
    return district_node(key[1], key[2])


# -- the immutable ITEM catalog ---------------------------------------------------


def item_price(item_id: int) -> float:
    """Deterministic item price (the spec draws uniformly in [1, 100])."""
    return 1.0 + (item_id * 37 % 9901) / 100.0


def item_exists(item_id: int, config: TPCCConfig) -> bool:
    return 1 <= item_id <= config.n_items


# -- initial row contents -----------------------------------------------------------


def new_warehouse_row(w: int) -> dict:
    return {"ytd": 0.0, "tax": 0.05 + (w % 10) / 100.0}


def new_district_row(w: int, d: int) -> dict:
    return {
        "ytd": 0.0,
        "tax": 0.05 + (d % 10) / 100.0,
        "next_o_id": 1,
        "undelivered": (),  # FIFO of order ids awaiting Delivery
    }


def new_customer_row(w: int, d: int, c: int) -> dict:
    return {
        "balance": -10.0,
        "ytd_payment": 10.0,
        "payment_cnt": 1,
        "delivery_cnt": 0,
        "discount": (c % 50) / 100.0,
        "credit": "GC" if c % 10 else "BC",
        "last_o_id": 0,
    }


def new_stock_row(w: int, i: int, quantity: int) -> dict:
    return {"quantity": quantity, "ytd": 0, "order_cnt": 0, "remote_cnt": 0}
