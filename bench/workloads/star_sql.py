"""``star_sql``: the path a user types.

SQL text through ``Session.report`` (vector engine, cost policy, every
certified rewrite) on the retail star.  Parse, bind, TestFD, statistics,
costing and rewrite-plus-audit dominate and execution is a few percent,
so planner-side work shows here and kernel work barely does.
"""

from __future__ import annotations

from repro.engine.executor import ExecutorConfig
from repro.workloads.schemas import make_retail_star

from bench import datagen
from bench.sqlrounds import SqlWorkload

#: Row counts were fitted to the window: this host runs at two speeds half
#: as far apart again, and a round of six statements takes 0.1 s at the
#: fast one and 0.16 s at the slow one, so a 22 s window holds the
#: harness's floor of 120 rounds at either.
FULL = {"sales": 2000, "customers": 500, "products": 60, "stores": 12}
QUICK = {"sales": 400, "customers": 50, "products": 12, "stores": 4}


def statements(sizes: dict):
    busy_customer = sizes["sales"] // sizes["customers"]
    return [
        (  # TestFD yes: the eager plan is valid and wins
            "per_customer",
            "SELECT C.CustID, C.Name, SUM(S.Amount) AS total "
            "FROM Sales S, Customer C WHERE S.CustID = C.CustID "
            "GROUP BY C.CustID, C.Name",
        ),
        (  # TestFD no: Segment is not a key, standard plan only
            "per_segment",
            "SELECT C.Segment, SUM(S.Amount) AS total, COUNT(S.SaleID) AS n "
            "FROM Sales S, Customer C WHERE S.CustID = C.CustID "
            "GROUP BY C.Segment",
        ),
        (  # three tables: join reordering and projection pruning
            "region_category",
            "SELECT St.Region, P.Category, SUM(S.Amount) AS revenue "
            "FROM Sales S, Store St, Product P "
            "WHERE S.StoreID = St.StoreID AND S.ProdID = P.ProdID "
            "GROUP BY St.Region, P.Category",
        ),
        (
            "minmax_product",
            "SELECT P.ProdID, P.PName, MIN(S.Amount) AS lo, MAX(S.Amount) AS hi "
            "FROM Sales S, Product P WHERE S.ProdID = P.ProdID AND S.Qty > 5 "
            "GROUP BY P.ProdID, P.PName",
        ),
        (
            "having_count",
            "SELECT C.CustID, COUNT(S.SaleID) AS n "
            "FROM Sales S, Customer C WHERE S.CustID = C.CustID "
            f"GROUP BY C.CustID HAVING COUNT(S.SaleID) > {busy_customer}",
        ),
        (
            "single_table",
            "SELECT S.StoreID, SUM(S.Qty) AS q FROM Sales S GROUP BY S.StoreID",
        ),
    ]


class StarSql(SqlWorkload):
    name = "star_sql"
    config = ExecutorConfig(engine="vector", rewrites="all")

    def sizes(self, quick: bool) -> dict:
        return QUICK if quick else FULL

    def build(self, seed: int, sizes: dict):
        tables = datagen.star_rows(seed, **sizes)
        return make_retail_star(), tables, statements(sizes)


def run(options):
    return StarSql().run(options)
