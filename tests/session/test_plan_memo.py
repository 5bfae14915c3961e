"""A session plans a statement once per catalog state.

:class:`repro.statement.PlanMemo` serves a plan only while its stamp holds:
the same catalog at the same schema epoch, and every table the plan reads
the same object at the same version.  These tests count, in every module
that binds each name, the front-half steps a report runs — a hit runs none
of them — and name each change that must re-plan, and each that must not.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import repro.core.transform as core_transform
import repro.optimizer.distribute  # noqa: F401  (bound before the spies)
import repro.statement as statement_module
from repro.catalog.constraints import Assertion
from repro.engine.executor import ExecutorConfig
from repro.errors import TransformationError
from repro.expressions.builder import gt
from repro.parser.parser import parse_statement
from repro.session import Session
from repro.statement import PLAN_MEMO_SIZE
from repro.storage.partition import PartitionSpec
from tests.session.test_front_half import PER_CUSTOMER, PER_SEGMENT, spy

STEPS = (
    "bind_select", "test_fd", "issue_certificate", "audit_certificate",
    "apply_configured_rewrites", "distribute_plan",
)
CONFIG = ExecutorConfig(engine="vector", rewrites="all", shards=2)


def count_everywhere(monkeypatch, names):
    """Spy ``names`` in every ``repro`` module that binds them."""
    calls = {name: [] for name in names}
    for name, recorded in calls.items():
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and hasattr(
                module, name
            ):
                spy(monkeypatch, module, name, recorded)
    return calls


@pytest.fixture
def planned(monkeypatch):
    """Every call of ``plan_statement`` the memo makes."""
    calls = []
    spy(monkeypatch, statement_module, "plan_statement", calls)
    return calls


def replans(session, planned, query=PER_CUSTOMER) -> int:
    before = len(planned)
    session.report(query)
    return len(planned) - before


def test_a_second_report_runs_no_front_half_step(monkeypatch, star):
    calls = count_everywhere(monkeypatch, STEPS)
    session = Session(star, executor_config=CONFIG)
    cold = session.report(PER_CUSTOMER)
    assert cold.strategy == "eager" and cold.rewrites
    assert all(calls.values()), {name: len(c) for name, c in calls.items()}
    for recorded in calls.values():
        recorded.clear()
    warm = session.report(PER_CUSTOMER)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(STEPS, 0)
    assert warm.plan is cold.plan and warm.choice is cold.choice
    assert warm.rewrites is cold.rewrites
    assert warm.result.rows == cold.result.rows


@pytest.mark.parametrize("through", ["session", "database"])
def test_an_insert_into_a_read_table_re_plans_once(star, planned, through):
    session = Session(star)
    session.report(PER_CUSTOMER)
    if through == "session":
        session.execute("INSERT INTO Sales VALUES (4, 1, 1, 1, 1, 5)")
    else:
        star.insert("Sales", (4, 1, 1, 1, 1, 5))
    assert replans(session, planned) == 1
    assert replans(session, planned) == 0
    assert session.report(PER_CUSTOMER).result.rows == (
        Session(star).report(PER_CUSTOMER).result.rows
    )


def test_an_insert_into_an_unread_table_re_plans_nothing(star, planned):
    session = Session(star)
    session.report(PER_CUSTOMER)
    session.execute("INSERT INTO Store VALUES (2, 'Rome', 'south')")
    assert replans(session, planned) == 0


def test_a_swapped_in_table_at_the_same_version_re_plans(star, planned):
    session = Session(star)
    session.report(PER_CUSTOMER)
    twin = star.tables["Customer"].clone()
    assert twin.version == star.tables["Customer"].version
    star.tables["Customer"] = twin
    assert replans(session, planned) == 1


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.create_view(
            "Busy",
            parse_statement(
                "SELECT S.CustID, COUNT(S.SaleID) FROM Sales S GROUP BY S.CustID"
            ),
        ),
        lambda db: db.create_assertion(
            Assertion("positive", gt("Sales.Amount", 0))
        ),
        lambda db: db.set_partitioning(
            "Sales", PartitionSpec("hash", "CustID", 2)
        ),
    ],
    ids=["create_view", "create_assertion", "set_partitioning"],
)
def test_a_catalog_change_re_plans(star, planned, change):
    session = Session(star)
    session.report(PER_CUSTOMER)
    epoch = star.schema_epoch
    change(star)
    assert star.schema_epoch == epoch + 1
    assert replans(session, planned) == 1


def test_a_new_policy_or_config_or_database_re_plans(star, planned):
    session = Session(star)
    session.report(PER_CUSTOMER)
    session.policy = "always_eager"
    assert replans(session, planned) == 1
    session.executor_config = replace(session.executor_config, engine="vector")
    assert replans(session, planned) == 1
    session.database = star.snapshot_view()
    assert replans(session, planned) == 1
    assert replans(session, planned) == 0


def test_a_literal_of_another_type_is_another_statement(star, planned):
    """``1`` and ``1.0`` compare equal in Python, but type the result
    differently: the memo must not hand one the other's plan."""
    session = Session(star)
    sql = (
        "SELECT C.CustID, SUM(S.Amount + {}) AS total FROM Sales S, Customer C "
        "WHERE S.CustID = C.CustID GROUP BY C.CustID"
    )
    integers = session.report(sql.format("1")).result.rows
    decimals = session.report(sql.format("1.0")).result.rows
    assert len(planned) == 2
    assert [type(total) for __, total in integers] == [int, int]
    assert [type(total) for __, total in decimals] == [float, float]


def test_a_refused_certificate_is_never_stored(monkeypatch, star):
    """The forged-TestFD statement raises on every report: the refusal
    stored nothing, so the second report plans (and is refused) again."""
    honest = core_transform.test_fd

    def forged(database, query, **options):
        return replace(honest(database, query, **options), decision=True)

    monkeypatch.setattr(core_transform, "test_fd", forged)
    attempts = []
    plan_statement = statement_module.plan_statement

    def attempting(*args):
        attempts.append(args)
        return plan_statement(*args)

    monkeypatch.setattr(statement_module, "plan_statement", attempting)
    session = Session(star, policy="always_eager")
    for __ in range(2):
        with pytest.raises(TransformationError, match="C501"):
            session.report(PER_SEGMENT)
    assert len(attempts) == 2 and len(session._plans) == 0


def test_one_more_statement_than_the_bound_evicts_the_oldest(star, planned):
    session = Session(star)
    sql = (
        "SELECT C.CustID, SUM(S.Amount) AS total FROM Sales S, Customer C "
        "WHERE S.CustID = C.CustID GROUP BY C.CustID HAVING SUM(S.Amount) > {}"
    )
    for threshold in range(PLAN_MEMO_SIZE + 1):
        session.report(sql.format(threshold))
    assert len(session._plans) == PLAN_MEMO_SIZE
    assert len(planned) == PLAN_MEMO_SIZE + 1
    assert replans(session, planned, sql.format(PLAN_MEMO_SIZE)) == 0
    assert replans(session, planned, sql.format(1)) == 0
    assert replans(session, planned, sql.format(0)) == 1  # the oldest went
