"""Examples 3 and 5: the printer-accounting workload, through plain SQL.

Shows the full TestFD trace (the paper's steps a-h), the eager rewrite
with predicate expansion, and the Section 8 reverse transformation via an
aggregated view.

Run:  python examples/printer_accounting.py
"""

from repro.core.partition import to_group_by_join_query
from repro.core.testfd import test_fd
from repro.core.transform import expand_predicates
from repro.parser.binder import bind_select, execute_statement
from repro.parser.parser import parse_statement
from repro.parser.viewmerge import merge_aggregated_view
from repro.session import Session
from repro.workloads.generators import populate_printer_accounting
from repro.workloads.schemas import make_printer_schema

EXAMPLE3_SQL = """
SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
FROM UserAccount U, PrinterAuth A, Printer P
WHERE U.UserId = A.UserId AND U.Machine = A.Machine
  AND A.PNo = P.PNo AND U.Machine = 'dragon'
GROUP BY U.UserId, U.UserName
"""

VIEW_SQL = """
CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS
SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
FROM PrinterAuth A, Printer P
WHERE A.PNo = P.PNo
GROUP BY A.UserId, A.Machine
"""

OUTER_SQL = """
SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
FROM UserInfo I, UserAccount U
WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'
"""


def main() -> None:
    db = make_printer_schema()
    populate_printer_accounting(
        db, n_users=120, n_machines=4, n_printers=12, auths_per_user=3, seed=3
    )
    session = Session(db)

    # --- Example 3: TestFD on the three-table query -----------------------
    flat = bind_select(db, parse_statement(EXAMPLE3_SQL))
    query = to_group_by_join_query(flat)
    print("Partition and predicate split (the paper's notation):")
    print(query.describe())
    print()

    result = test_fd(db, query)
    (trace,) = result.components
    print(f"TestFD: {'YES' if result.decision else 'NO'}")
    print(f"  step a/e seed:        {sorted(trace.seed)}")
    print(f"  step b/f + constants: {sorted(trace.after_constants)}")
    print(f"  step c/g closure:     {sorted(trace.closure)}")
    print(f"  step d key of R2:     {trace.r2_keys_found}")
    print(f"  step h GA1+ covered:  {trace.ga1_plus_covered}")
    print()

    expanded = expand_predicates(query)
    print("After predicate expansion, the R1 block also filters on:")
    print(f"  {expanded.split().c1}")
    print()

    report = session.report(EXAMPLE3_SQL)
    print(f"Chosen strategy: {report.strategy}")
    print(report.result.to_pretty(limit=8))
    print()

    # --- Example 5: the aggregated view, evaluated both ways ---------------
    session.execute(VIEW_SQL)
    merged = merge_aggregated_view(db, parse_statement(OUTER_SQL))
    print("Example 5: querying through the UserInfo view merges back into")
    print("the Example 3 query; the optimizer may evaluate it either way.")
    via_view = session.query(OUTER_SQL)
    direct = session.query(EXAMPLE3_SQL)
    print(f"view result == direct result: {via_view.equals_multiset(direct)}")
    print(f"merged GA1+: {sorted(merged.ga1_plus)} (the view's GROUP BY columns)")


if __name__ == "__main__":
    main()
