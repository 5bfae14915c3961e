"""``serve_mixed``: what a client of ``repro serve`` observes.

A ``python -m repro serve`` subprocess, two connections in a closed loop,
each request drawn from the seed: nine reads in ten, one single-row INSERT
in ten into a key range the connection owns.  The reads are group-by-join
statements of similar cost.  Every write bumps ``Table.version`` and so
invalidates the columnar scan cache and anything later keyed on it: a
read-side caching gain that taxes writes, or that writes defeat, shows here.

Operation = one request.  Two connections share one GIL-bound server, so
saving server CPU can raise throughput by more than its share of latency,
while saving pure wait (``net.overhead_ms``) moves latency and frees no CPU.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Database
from repro.engine.executor import ExecutorConfig
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_script, parse_statement
from repro.server.server import Server
from repro.session import Session

from bench import datagen
from bench.harness import (
    WORK_DIR,
    Options,
    Outcome,
    Tracer,
    Window,
    end_to_end,
    measure_setup,
    median,
    peak_rss_mb,
    percentile,
    speed_sample,
    speed_scale,
    split_seconds,
    timed,
    window_detail,
)

#: Fitted so that the wire and the server each hold about half of a read.
FULL = {"emp": 10000, "dept": 50}
QUICK = {"emp": 1000, "dept": 10}

CONNECTIONS = 2
#: One request in this many is a write, at a place in each such stretch
#: drawn from the seed.  (Drawn request by request, a window's share of
#: writes came out anywhere from 7 to 12 %, and since a write takes a
#: few hundredths of a read, p90 and throughput followed that share.)
WRITE_EVERY = 10
SPAWN_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
#: Seconds between two speed samples of the main thread during a window.
SAMPLE_PAUSE = 0.04
#: In-process and quiet-connection probes of the traced run.
PROBE_ROUNDS = 5
PROBE_WRITES = 10

JOIN = "FROM Emp E, Dept D WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
READS: Tuple[Tuple[str, str], ...] = (
    ("count", f"SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n {JOIN}"),
    ("sum", f"SELECT D.DeptID, D.Name, SUM(E.Salary) AS total {JOIN}"),
    ("minmax", f"SELECT D.DeptID, D.Name, MIN(E.Salary) AS lo, MAX(E.Salary) AS hi {JOIN}"),
)
#: One more question for the final-state audit, answered from Emp alone.
AUDIT = READS + (
    ("headcount", "SELECT E.DeptID, COUNT(E.EmpID) AS n FROM Emp E GROUP BY E.DeptID"),
)


def insert_sql(emp_id: int, dept: int, salary: int) -> str:
    return f"INSERT INTO Emp VALUES ({emp_id}, 'New {emp_id}', {dept}, {salary})"


class Client:
    """One line-protocol connection.  ``request`` returns the header line,
    the body lines and the bytes moved, and leaves in ``header_at`` when
    the header line arrived; with a tracer it records the client-side
    spans send → header → last line."""

    def __init__(self, port: int, index: int) -> None:
        self.index = index
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.stream = self.sock.makefile("rwb")

    def request(self, text: str, tracer: Optional[Tracer] = None, **tags):
        if tracer is None:
            return self._exchange(text, None, tags)
        with tracer.span("client.request", conn=self.index, **tags):
            return self._exchange(text, tracer, tags)

    def _exchange(self, text: str, tracer: Optional[Tracer], tags: dict):
        payload = (text + "\n").encode("utf-8")
        with _span(tracer, "client.send", tags):
            self.stream.write(payload)
            self.stream.flush()
        with _span(tracer, "client.header", tags):
            header = self.stream.readline()
        self.header_at = time.perf_counter()
        received = len(header)
        body: List[str] = []
        if header.startswith(b"OK ") and b" rows " in header:
            with _span(tracer, "client.body", tags):
                while True:
                    line = self.stream.readline()
                    received += len(line)
                    if line in (b"\n", b""):
                        break
                    body.append(line.decode("utf-8").rstrip("\n"))
        return header.decode("utf-8").strip(), body, len(payload) + received

    def close(self) -> None:
        try:
            self.stream.write(b".quit\n")
            self.stream.flush()
        except OSError:
            pass
        self.stream.close()
        self.sock.close()


def _span(tracer: Optional[Tracer], name: str, tags: dict):
    """``tracer.span`` when there is a tracer, nothing otherwise."""
    return tracer.span(name, **tags) if tracer is not None else nullcontext()


@dataclass
class Context:
    script_path: str
    script: str
    process: subprocess.Popen
    port: int
    clients: List[Client]
    bytes_per_read: float
    input_digest: str


@dataclass
class Event:
    """One request as the client saw it."""

    kind: str  # "read" or "write"
    statement: str
    sql: str
    started: float
    seconds: float
    #: Of ``seconds``, the wait for the header line: the server computing.
    waited: float
    header: str
    body: List[str]

    @property
    def ok(self) -> bool:
        return self.header.startswith("OK")

    @property
    def epoch(self) -> int:
        return int(self.header.rsplit("epoch=", 1)[1])


def setup(seed: int, sizes: dict) -> Context:
    WORK_DIR.mkdir(exist_ok=True)
    script = datagen.emp_dept_script(seed, sizes["emp"], sizes["dept"])
    path = str(WORK_DIR / f"serve_{os.getpid()}.sql")
    with open(path, "w") as handle:
        handle.write(script)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--engine", "vector", path],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        port = _bound_port(process)
        clients = [Client(port, index) for index in range(CONNECTIONS)]
    except BaseException:
        _stop(process)
        raise
    context = Context(
        path, script, process, port, clients, 0.0,
        datagen.digest(script),
    )
    try:
        moved = []
        for client in clients:  # warm-up: every read once on every connection
            for __, sql in READS:
                header, __, nbytes = client.request("QUERY " + sql)
                if not header.startswith("OK"):
                    raise RuntimeError(f"warm-up read failed: {header}")
                moved.append(nbytes)
        context.bytes_per_read = sum(moved) / len(moved)
    except BaseException:
        close(context)
        raise
    return context


def _bound_port(process: subprocess.Popen) -> int:
    """Parse the port from the ``serving on host:port`` line."""
    assert process.stdout is not None
    ready, __, __ = select.select([process.stdout], [], [], SPAWN_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    if not line.startswith("serving on "):
        raise RuntimeError(f"repro serve did not come up: {line!r}")
    return int(line.split()[2].rsplit(":", 1)[1])


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


def close(context: Context) -> None:
    for client in context.clients:
        client.close()
    _stop(context.process)
    if os.path.exists(context.script_path):
        os.unlink(context.script_path)


# -- the load ---------------------------------------------------------------------


def drive(context: Context, seed: int, seconds: float, min_operations: int,
          sizes: dict, tracers: Optional[List[Tracer]],
          first_key: int) -> Tuple[List[Event], List[Tuple[float, float]]]:
    """Both connections, closed loop, until the deadline and until each
    has made its share of ``min_operations`` requests, while the main
    thread, which has nothing else to do, times the speed meter every
    :data:`SAMPLE_PAUSE`.  Returns the events and the (when, seconds) of
    the speed samples."""
    events: List[List[Event]] = [[] for __ in context.clients]
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(context.clients) + 1)

    def loop(client: Client) -> None:
        rng = random.Random(seed * CONNECTIONS + client.index)
        tracer = tracers[client.index] if tracers else None
        next_key = first_key + client.index * 1_000_000
        try:
            barrier.wait()
            deadline = time.perf_counter() + seconds
            op = 0
            while time.perf_counter() < deadline or op * CONNECTIONS < min_operations:
                if op % WRITE_EVERY == 0:
                    write_at = op + rng.randrange(WRITE_EVERY)
                if op == write_at:
                    kind, name = "write", "insert"
                    sql = insert_sql(
                        next_key, rng.randint(1, sizes["dept"]), rng.randint(1000, 9000)
                    )
                    next_key += 1
                    line = "EXEC " + sql
                else:
                    kind = "read"
                    name, sql = READS[rng.randrange(len(READS))]
                    line = "QUERY " + sql
                started = time.perf_counter()
                header, body, __ = client.request(line, tracer, op=op, stmt=name)
                elapsed = time.perf_counter() - started
                events[client.index].append(Event(
                    kind, name, sql, started, elapsed, client.header_at - started,
                    header, body,
                ))
                op += 1
        except BaseException as error:  # surfaced by the caller after join
            errors.append(error)
            barrier.abort()

    threads = [
        threading.Thread(target=loop, args=(client,), name=f"client-{client.index}")
        for client in context.clients
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    samples: List[Tuple[float, float]] = []
    limit = time.perf_counter() + seconds + 2 * REQUEST_TIMEOUT
    while any(t.is_alive() for t in threads) and time.perf_counter() < limit:
        samples.append((time.perf_counter(), speed_sample()))
        time.sleep(SAMPLE_PAUSE)
    errors.extend(
        RuntimeError(f"{t.name} did not finish") for t in threads if t.is_alive()
    )
    if errors:
        raise errors[0]
    merged = sorted(
        (event for per_client in events for event in per_client),
        key=lambda event: event.started,
    )
    return merged, samples


def at_reference_speed(
    events: List[Event], samples: List[Tuple[float, float]]
) -> List[float]:
    """Each request's seconds at the reference speed (see
    :func:`bench.harness.speed_scale`).  Only the wait for the header
    line is scaled, by the speed samples taken while the request was out
    (or the nearest one): that wait is the server computing, for this
    connection and the other, and it stretches with the host as the meter
    does.  The body is taken as measured: it takes 43 ms at any speed of
    the host — the server flushes its fifty lines one by one on a socket
    without TCP_NODELAY, so presumably the second segment waits for the
    client's delayed ACK.  Over ten seeds, in the same runs, p50 / p90 /
    throughput spread 7.4 / 14.4 / 8.2 % as measured and 2.7 / 2.6 / 3.1 %
    so scaled (3.4 / 2.3 / 4.1 % with the body scaled too; 12.4 / 1.9 /
    5.6 % in a series with a busier host)."""
    times = [when for when, __ in samples]
    scaled = []
    for event in events:
        low = bisect.bisect_left(times, event.started)
        high = bisect.bisect_right(times, event.started + event.seconds)
        if low == high:  # none while it was out: the one before, the one after
            low, high = max(low - 1, 0), min(high + 1, len(samples))
        scale = speed_scale([seconds for __, seconds in samples[low:high]])
        scaled.append(event.waited * scale + event.seconds - event.waited)
    return scaled


# -- the oracle -------------------------------------------------------------------


class Replica:
    """A local, serial copy: the seed script loaded through the
    single-session path, every acknowledged write replayed in epoch order,
    questions answered by the row engine, never eager."""

    def __init__(self, script: str) -> None:
        self.database = Database()
        for statement in parse_script(script):
            execute_statement(self.database, statement)

    def answer(self, sql: str) -> List[str]:
        session = Session(
            self.database, policy="never_eager",
            executor_config=ExecutorConfig(engine="row"),
        )
        return sorted(_render(row) for row in session.report(sql).result.rows)

    def apply(self, sql: str) -> None:
        execute_statement(self.database, parse_statement(sql))


def _render(row) -> str:
    """A result row as the line protocol prints it."""
    return "\t".join("NULL" if repr(v) == "NULL" else str(v) for v in row)


class Model:
    """COUNT, SUM, MIN and MAX per department, kept up to date insert by
    insert — so every read can be checked at the epoch it was pinned to
    without re-running it.  Seeded from the replica's epoch-0 answers; the
    final-state audit ties the model back to the row engine."""

    def __init__(self, replica: Replica) -> None:
        self.names: Dict[int, str] = {}
        self.state: Dict[int, List[int]] = {}
        rows = {name: replica.answer(sql) for name, sql in READS}
        for count, total, minmax in zip(rows["count"], rows["sum"], rows["minmax"]):
            dept, label, n = count.split("\t")
            lo, hi = minmax.split("\t")[2:]
            self.names[int(dept)] = label
            self.state[int(dept)] = [int(n), int(total.split("\t")[2]), int(lo), int(hi)]

    def insert(self, dept: int, salary: int) -> None:
        # Every department has employees at epoch 0 (checked by the
        # audit), so an insert never opens a new group.
        entry = self.state[dept]
        entry[0] += 1
        entry[1] += salary
        entry[2] = min(entry[2], salary)
        entry[3] = max(entry[3], salary)

    def expected(self, statement: str) -> List[str]:
        columns = {"count": (0,), "sum": (1,), "minmax": (2, 3)}[statement]
        return sorted(
            "\t".join([str(dept), self.names[dept]] + [str(entry[c]) for c in columns])
            for dept, entry in self.state.items()
        )


def verify(context: Context, events: List[Event]) -> int:
    """Failed operations: an ``ERR`` answer, a read that differs from the
    model at its epoch.  Then the final-state audit: the server's answers
    against the replica after a serial replay of every acknowledged write;
    a mismatch there fails every operation, since no answer can be trusted."""
    replica = Replica(context.script)
    model = Model(replica)
    failed = sum(1 for event in events if not event.ok)
    acknowledged = sorted(
        (e for e in events if e.ok and e.kind == "write"), key=lambda e: e.epoch
    )
    reads = sorted((e for e in events if e.ok and e.kind == "read"), key=lambda e: e.epoch)
    position = 0
    for read in reads:
        while position < len(acknowledged) and acknowledged[position].epoch <= read.epoch:
            __, __, dept, salary = _insert_values(acknowledged[position].sql)
            model.insert(dept, salary)
            position += 1
        if sorted(read.body) != model.expected(read.statement):
            failed += 1
    for write in acknowledged:
        replica.apply(write.sql)
    client = context.clients[0]
    for __, sql in AUDIT:
        header, body, __ = client.request("QUERY " + sql)
        if not header.startswith("OK") or sorted(body) != replica.answer(sql):
            return len(events)
    return failed


def _insert_values(sql: str) -> Tuple[int, str, int, int]:
    emp_id, name, dept, salary = sql[sql.index("(") + 1:sql.rindex(")")].split(", ")
    return int(emp_id), name, int(dept), int(salary)


# -- the run ----------------------------------------------------------------------


def server_stats(client: Client) -> Dict[str, int]:
    header, __, __ = client.request(".stats")
    return {
        key: int(value)
        for key, value in (part.split("=", 1) for part in header.split()[1:])
    }


def run(options: Options) -> Outcome:
    sizes = QUICK if options.quick else FULL
    context, setup_times = measure_setup(
        lambda: setup(options.seed, sizes), close
    )
    # As the clock saw it: most of a set-up here is the wait for the server
    # process to load its script, which the samples around it say little
    # about (scaled, ten seeds spread 28 %; as measured in the same runs, 11 %).
    setup_s = median(setup_times["measured"])
    setup_rss_mb = peak_rss_mb()
    spans: List[dict] = []
    layers: dict = {}
    shares: dict = {}
    try:
        untraced_seconds, traced_seconds = split_seconds(options)
        before = server_stats(context.clients[0])
        events, samples = drive(
            context, options.seed, untraced_seconds, options.min_operations,
            sizes, None, first_key=1_000_000,
        )
        traced_events: List[Event] = []
        if options.trace:
            tracers = [Tracer() for __ in context.clients]
            traced_events, __ = drive(
                context, options.seed + 1, traced_seconds, 0, sizes, tracers,
                first_key=10_000_000,
            )
            spans = merge_spans(tracers)
        after = server_stats(context.clients[0])
        everything = events + traced_events
        failed = verify(context, everything)
        if options.trace:
            layers, shares = traced_layers(
                context, events, traced_events, before, after
            )
    finally:
        close(context)

    completed = [e for e in events if e.ok]
    latencies = at_reference_speed(completed, samples)
    # A connection always has a request out, so the window's clock is the
    # time of all requests over the number of connections.
    window = Window(
        latencies, [e.seconds for e in completed], failed=0,
        wall_seconds=sum(latencies) / CONNECTIONS,
    )
    metrics = end_to_end(window, setup_s)
    attempted = len(everything)
    writes = [t for e, t in zip(completed, latencies) if e.kind == "write"]
    # A window too short to hold a write (smoke runs) has no write latency.
    client_metrics = (
        {"write_latency_p50_ms": percentile(writes, 0.5) * 1000.0} if writes else {}
    )
    if options.trace:
        layers.update(client_metrics)
        layers["failed_ops_share"] = failed / attempted
        metrics = layers
    detail = window_detail(
        window, sizes=sizes, clients=CONNECTIONS, statements_per_op=1,
        writes=len(writes), setup_seconds=setup_times, setup_rss_mb=setup_rss_mb,
        input_digest=context.input_digest, client_metrics=client_metrics,
        layer_shares=shares,
    )
    return Outcome(attempted, failed, metrics, detail, spans)


def merge_spans(tracers: List[Tracer]) -> List[dict]:
    """One list, ids renumbered per connection, times on one clock."""
    merged: List[dict] = []
    origin = min(tracer.origin for tracer in tracers)
    for tracer in tracers:
        offset, shift = len(merged), tracer.origin - origin
        for span in tracer.spans:
            merged.append({
                **span,
                "id": span["id"] + offset,
                "parent": None if span["parent"] is None else span["parent"] + offset,
                "start": span["start"] + shift,
                "end": span["end"] + shift,
            })
    return merged


def traced_layers(context: Context, events, traced_events, before, after):
    """The same reads and writes on an in-process ``Server.open_session``
    and on one quiet connection; what the client sees beyond the first is
    the wire, beyond the second the other connection."""
    local = Database()
    for statement in parse_script(context.script):
        execute_statement(local, statement)
    server = Server(local, executor_config=ExecutorConfig(engine="vector"))
    session = server.open_session()
    for __, sql in READS:
        session.query(sql)
    session_reads = [
        timed(lambda: session.query(sql))
        for __ in range(PROBE_ROUNDS)
        for __, sql in READS
    ]
    session_writes = [
        timed(lambda: session.execute(insert_sql(20_000_000 + i, 1, 5000)))
        for i in range(PROBE_WRITES)
    ]
    session.close()

    quiet = context.clients[0]
    quiet_reads = [
        timed(lambda: quiet.request("QUERY " + sql))
        for __ in range(PROBE_ROUNDS)
        for __, sql in READS
    ]

    reads = [e.seconds for e in events if e.ok and e.kind == "read"]
    read_p50 = percentile(reads, 0.5)
    session_read = median(session_reads)
    overhead = median(quiet_reads) - session_read
    everything = [e.seconds for e in events + traced_events if e.ok]
    traced_reads = [e.seconds for e in traced_events if e.ok and e.kind == "read"]
    layers = {
        "server.session_read_ms": session_read * 1000.0,
        "server.session_write_ms": median(session_writes) * 1000.0,
        "server.admitted": after["admitted"] - before["admitted"],
        "server.rejected": after["rejected"] - before["rejected"],
        "server.commits": after["commits"] - before["commits"],
        "server.aborts": after["aborts"] - before["aborts"],
        "server.peak_slots": after["peak_slots"],
        "server.latency_p99_ms": percentile(everything, 0.99) * 1000.0,
        "net.overhead_ms": overhead * 1000.0,
        "net.bytes_per_read": context.bytes_per_read,
        "trace.overhead_share": percentile(traced_reads, 0.5) / read_p50 - 1.0,
        # Client-side spans wrap the whole request: nothing is left out.
        "trace.coverage": 1.0,
    }
    shares = {
        "server.server (in-process session)": session_read / read_p50,
        "server.net (quiet connection - session)": overhead / read_p50,
        "waiting for the other connection": 1.0 - (session_read + overhead) / read_p50,
    }
    return layers, shares
