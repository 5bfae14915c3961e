"""Figure 2 / Figure 3: regenerate the SQL2 truth tables and interpretation
operators, and measure predicate-evaluation throughput under 3VL.
"""

from __future__ import annotations

import pytest

from repro.expressions.builder import and_, col, eq, or_
from repro.expressions.eval import RowScope, evaluate_predicate
from repro.sqltypes.truth import (
    FALSE,
    TRUE,
    UNKNOWN,
    ceil_interpret,
    floor_interpret,
    truth_and,
    truth_or,
)
from repro.sqltypes.values import NULL, null_equal

VALUES = (TRUE, UNKNOWN, FALSE)
LABEL = {TRUE: "true", UNKNOWN: "unknown", FALSE: "false"}


def render_table(name, operation):
    header = f"{name:<8} " + " ".join(f"{LABEL[v]:>8}" for v in VALUES)
    lines = [header]
    for left in VALUES:
        cells = " ".join(f"{LABEL[operation(left, right)]:>8}" for right in VALUES)
        lines.append(f"{LABEL[left]:<8} {cells}")
    return "\n".join(lines)


def test_figure2_and_table():
    """The AND table, cell for cell."""
    table = render_table("AND", truth_and)
    print("\n" + table)
    assert truth_and(TRUE, UNKNOWN) is UNKNOWN
    assert truth_and(UNKNOWN, FALSE) is FALSE
    assert truth_and(FALSE, FALSE) is FALSE
    assert truth_and(TRUE, TRUE) is TRUE


def test_figure2_or_table():
    table = render_table("OR", truth_or)
    print("\n" + table)
    assert truth_or(FALSE, UNKNOWN) is UNKNOWN
    assert truth_or(UNKNOWN, TRUE) is TRUE
    assert truth_or(FALSE, FALSE) is FALSE


def test_figure3_interpretation_operators():
    """⌊P⌋ and ⌈P⌉ and the null-aware =ⁿ."""
    rows = [
        ("P", "floor ⌊P⌋", "ceil ⌈P⌉"),
        ("true", floor_interpret(TRUE), ceil_interpret(TRUE)),
        ("unknown", floor_interpret(UNKNOWN), ceil_interpret(UNKNOWN)),
        ("false", floor_interpret(FALSE), ceil_interpret(FALSE)),
    ]
    for row in rows:
        print(row)
    assert floor_interpret(UNKNOWN) is False
    assert ceil_interpret(UNKNOWN) is True
    # =ⁿ: NULL equal to NULL; otherwise ⌊X = Y⌋.
    assert null_equal(NULL, NULL) is True
    assert null_equal(NULL, 0) is False
    assert null_equal(2, 2) is True


@pytest.mark.benchmark(group="figure2")
def test_bench_3vl_predicate_evaluation(benchmark):
    """Throughput of a composite predicate over rows with NULLs."""
    predicate = or_(
        and_(eq(col("T.a"), 1), eq(col("T.b"), col("T.c"))),
        eq(col("T.c"), 3),
    )
    scopes = [
        RowScope({"T.a": a, "T.b": b, "T.c": c})
        for a in (1, 2, NULL)
        for b in (1, NULL)
        for c in (3, NULL)
    ]

    def run():
        return [evaluate_predicate(predicate, scope) for scope in scopes]

    results = benchmark(run)
    assert len(results) == len(scopes)
