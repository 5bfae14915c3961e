"""What a process does the first time it runs a query, in a fresh interpreter.

Two properties of the import graph that no in-process test can see, because
by the time a test body runs the suite has imported everything:

* the first query may be several queries at once (a server's sessions are
  threads), and nothing on the query path may still be importing;
* an unsharded query never loads the partitioner or the shard wire, and a
  shard worker is listening before it loads the Exchange runner — the
  function-local imports ``tests/test_layering.py`` lists under *measured
  import cost* are deferred for exactly this, and here are the guards.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

SCHEMA = """
session.execute("CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name VARCHAR(20))")
session.execute(
    "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, Salary INTEGER, "
    "FOREIGN KEY (DeptID) REFERENCES Dept)"
)
for d in range(4):
    session.execute(f"INSERT INTO Dept VALUES ({d}, 'D{d}')")
for e in range(60):
    session.execute(f"INSERT INTO Emp VALUES ({e}, {e % 4}, {50 + e})")
QUERY = (
    "SELECT D.DeptID, D.Name, COUNT(E.EmpID), SUM(E.Salary) FROM Emp E, Dept D "
    "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name HAVING D.DeptID > 0"
)
"""

#: Four sessions, one barrier, and a switch interval short enough that the
#: threads interleave inside whatever the first report still has to set up.
CONCURRENT_FIRST_USE = """
import sys
import threading

from repro.engine.executor import ExecutorConfig
from repro.server.server import Server

server = Server(executor_config=ExecutorConfig(engine="vector", rewrites="all"))
session = server.open_session()
""" + SCHEMA + """
sessions = [server.open_session() for __ in range(4)]
barrier = threading.Barrier(len(sessions))
answers, errors = [], []

def first_report(session):
    barrier.wait(timeout=30)
    try:
        answers.append(sorted(session.report(QUERY).result.rows))
    except BaseException as error:
        errors.append(repr(error))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_report, args=(s,)) for s in sessions]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert errors == [], errors
assert len(answers) == 4 and all(answer == answers[0] for answer in answers)
assert [row[0] for row in answers[0]] == [1, 2, 3]
print("first use ok")
"""

#: Every module a sharded query needs and an unsharded one does not.
DEFERRED = (
    "repro.engine.exchange", "repro.engine.shardrpc", "repro.engine.wire",
    "repro.optimizer.distribute", "repro.server", "repro.storage.partition",
    "hashlib", "subprocess",
)

UNSHARDED_REPORT = """
import sys

from repro.engine.executor import ExecutorConfig
from repro.session import Session

session = Session(executor_config=ExecutorConfig(engine=sys.argv[1], rewrites="all"))
""" + SCHEMA + """
report = session.report(QUERY)
assert sorted(row[0] for row in report.result.rows) == [1, 2, 3]
assert report.rewrites, "the certified pass did not run"
loaded = [name for name in sys.argv[2:] if name in sys.modules]
assert loaded == [], loaded
print("deferred ok")
"""


def run_fresh(script: str, *arguments: str) -> str:
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, *arguments],
        env={**os.environ, "PYTHONPATH": source_root},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_four_sessions_race_the_first_vector_report():
    assert run_fresh(CONCURRENT_FIRST_USE) == "first use ok"


@pytest.mark.parametrize("engine", ["row", "vector"])
def test_an_unsharded_report_loads_no_wire_stack(engine):
    assert run_fresh(UNSHARDED_REPORT, engine, *DEFERRED) == "deferred ok"


def test_a_worker_announces_before_it_loads_the_exchange_runner():
    """What ``run_worker`` has imported when it prints ``READY``."""
    script = (
        "import sys\nimport repro.server.transport\n"
        "print([name for name in sys.argv[1:] if name in sys.modules])"
    )
    later = ("repro.engine.exchange", "repro.engine.shardrpc", "subprocess")
    assert run_fresh(script, *later) == "[]"
