"""``parse_statement`` parses each SQL text once per process.

The cache hands every caller the statement the first parse built: it must
be the statement a fresh parse builds, a repeated text must not reach the
lexer, a text that fails must fail every time, one-off texts must not
push a repeated one out, and threads must all get whole statements.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

import repro.parser.parser as parser_module
from repro.errors import ParseError
from repro.parser.parser import PARSE_CACHE_SIZE, parse_script, parse_statement
from repro.session import Session
from repro.workloads.schemas import make_retail_star

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = sorted((ROOT / "workloads").glob("*.sql")) + [ROOT / "examples" / "paper_demo.sql"]

#: ``star_sql``'s six statements, as texts.
STAR_TEXTS = [
    "SELECT C.CustID, C.Name, SUM(S.Amount) AS total FROM Sales S, Customer C "
    "WHERE S.CustID = C.CustID GROUP BY C.CustID, C.Name",
    "SELECT C.Segment, SUM(S.Amount) AS total, COUNT(S.SaleID) AS n "
    "FROM Sales S, Customer C WHERE S.CustID = C.CustID GROUP BY C.Segment",
    "SELECT St.Region, P.Category, SUM(S.Amount) AS revenue "
    "FROM Sales S, Store St, Product P "
    "WHERE S.StoreID = St.StoreID AND S.ProdID = P.ProdID "
    "GROUP BY St.Region, P.Category",
    "SELECT P.ProdID, P.PName, MIN(S.Amount) AS lo, MAX(S.Amount) AS hi "
    "FROM Sales S, Product P WHERE S.ProdID = P.ProdID AND S.Qty > 5 "
    "GROUP BY P.ProdID, P.PName",
    "SELECT C.CustID, COUNT(S.SaleID) AS n FROM Sales S, Customer C "
    "WHERE S.CustID = C.CustID GROUP BY C.CustID HAVING COUNT(S.SaleID) > 4",
    "SELECT S.StoreID, SUM(S.Qty) AS q FROM Sales S GROUP BY S.StoreID",
]


def fresh(text: str):
    """What :func:`parse_statement` parses, bypassing the cache."""
    return parse_statement.__wrapped__(text)


def statement_texts(path: Path):
    """The script's statements one text each: split at ``;`` (no literal
    in these scripts holds one), comment lines dropped."""
    body = "\n".join(
        line for line in path.read_text().splitlines()
        if not line.lstrip().startswith("--")
    )
    return [piece.strip() + ";" for piece in body.split(";") if piece.strip()]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_a_cached_parse_is_a_fresh_parse(path):
    texts = statement_texts(path)
    assert [fresh(text) for text in texts] == parse_script(path.read_text())
    for text in texts:
        first = parse_statement(text)
        assert parse_statement(text) is first  # the second is a hit
        assert first == fresh(text)


def counting_lexer(monkeypatch):
    calls = []
    tokenize = parser_module.tokenize

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser_module, "tokenize", counted)
    return calls


def test_a_second_report_of_the_same_text_runs_no_lexer(monkeypatch):
    parse_statement.cache_clear()
    session = Session(make_retail_star())
    lexed = counting_lexer(monkeypatch)
    text = STAR_TEXTS[-1]
    first = session.report(text)
    assert lexed == [text]
    second = session.report(text)
    assert lexed == [text]
    assert second.result.equals_multiset(first.result)


def test_a_parse_error_raises_every_time_and_is_not_kept(monkeypatch):
    lexed = counting_lexer(monkeypatch)
    text = "SELECT FROM WHERE"
    size = parse_statement.cache_info().currsize
    for __ in range(2):
        with pytest.raises(ParseError):
            parse_statement(text)
    assert lexed == [text, text]
    assert parse_statement.cache_info().currsize == size


def test_one_off_texts_do_not_push_a_repeated_one_out(monkeypatch):
    parse_statement.cache_clear()
    hot = STAR_TEXTS[0]
    parse_statement(hot)
    lexed = counting_lexer(monkeypatch)
    for i in range(2 * PARSE_CACHE_SIZE):
        parse_statement(f"INSERT INTO Emp VALUES ({i}, 'x', 1)")
        if i % 16 == 0:
            parse_statement(hot)
    assert hot not in lexed
    assert len(lexed) == 2 * PARSE_CACHE_SIZE
    assert parse_statement.cache_info().currsize == PARSE_CACHE_SIZE


def test_threads_parsing_the_same_texts_all_get_whole_statements():
    parse_statement.cache_clear()
    expected = [fresh(text) for text in STAR_TEXTS]
    start = threading.Barrier(8)
    results, errors = [], []

    def work():
        try:
            start.wait()
            for __ in range(20):
                results.append([parse_statement(text) for text in STAR_TEXTS])
        except Exception as error:  # reported below, not swallowed
            errors.append(error)

    threads = [threading.Thread(target=work) for __ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(results) == 8 * 20
    assert all(parsed == expected for parsed in results)
