"""The ``repro`` command line: a SQL shell plus analysis subcommands.

``python -m repro`` (or plain ``repro``) opens the interactive shell:

* any SQL statement terminated by ``;`` — DDL/INSERT execute, SELECTs run
  through the cost-based planner and print their result;
* ``.explain [--certify] <select>;`` — show the chosen strategy, estimated
  costs, the TestFD verdict and the annotated plan (and, with
  ``--certify``, the rewrite certificate) instead of rows;
* ``.script <path>`` — run a ``;``-separated SQL file;
* ``.tables`` — list tables and views;
* ``.policy cost|always_eager|never_eager`` — switch the planner policy;
* ``.help`` / ``.quit``.

Subcommands (no REPL):

* ``repro lint <script.sql|dir>...`` — statically verify every query of
  the scripts without executing them (``--workloads`` lints the built-in
  paper workloads, ``--rules`` prints the rule catalogue, ``--info``
  includes INFO-severity notes, ``--rewrites`` additionally runs the
  certified rewrite pass on each query and audits every certificate with
  the plan-equivalence checker, ``--format json`` emits one machine
  readable report per file with stable rule codes and line numbers).
  Directory arguments expand to their ``*.sql`` files.  Exits nonzero on
  ERROR findings.
* ``repro explain [--certify] [--rewrites] <script.sql>...`` — run the
  scripts and print each SELECT's plan-choice report instead of its rows
  (``--rewrites`` enables the certified rewrite pass so reports list the
  rewrite certificates).
* ``repro serve [--port P] [--max-slots N] [script.sql ...]`` — run the
  multi-session TCP server (snapshot reads, serialized writes, admission
  control; see :mod:`repro.server`).
* ``repro shard-worker [--host H] [--port P]`` — serve one shard of the
  socket transport (:mod:`repro.server.transport`); spawned per shard by
  the coordinator's pool, or started by hand on other hosts.  The global
  ``--transport {memory,socket}`` flag picks the session's shard wire.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional, TextIO

from repro.analysis.diagnostics import RULES, Severity
from repro.catalog.catalog import Database
from repro.costing.cost import resolve_workers
from repro.engine.executor import ExecutorConfig
from repro.errors import ReproError, error_exit_code
from repro.lint import lint_sql, lint_workloads
from repro.optimizer.planner import POLICIES
from repro.parser.ast_nodes import SelectStatement, SetOperationStatement
from repro.parser.binder import execute_statement
from repro.parser.dump import dump_database, load_database, table_ddl
from repro.parser.parser import parse_script, parse_statement
from repro.session import Session

PROMPT = "sql> "
CONTINUATION = "...> "

HELP = """\
Enter SQL terminated by ';'.  Dot-commands:
  .explain [--certify] <select>;
                       show plan choice, costs, TestFD verdict (and the
                       rewrite certificate with --certify)
  .script <path>       run a SQL script file
  .dump [path]         write schema + data as a SQL script (stdout if no path)
  .open <path>         replace the session database from a dump script
  .schema [table]      show CREATE TABLE DDL (all tables if none named)
  .tables              list tables and views
  .policy <name>       set planner policy (cost, always_eager, never_eager)
  .engine <name>       set execution backend (row, vector)
  .morsels <n|off>     set the vector engine's morsel size (off = materialize)
  .workers <n|auto>    set the worker count for parallel morsel pipelines
                       (auto = one per core, clamped to os.cpu_count())
  .shards <n|off> [hash|range]
                       run queries shard-parallel through the Exchange
                       operator (off = single-site); the optional method
                       picks the partitioning scheme; bare .shards shows
                       the layout plus per-shard health and RPC counters
  .sessions            list the attached server's open sessions
  .rewrites <spec>     set certified rewrites (all, none, or a comma list of
                       predicate_pushdown, join_reordering, projection_pruning)
  .help                this text
  .quit                exit
"""


class Shell:
    """The REPL's state and command dispatch (testable without a TTY)."""

    def __init__(
        self,
        session: Optional[Session] = None,
        out: TextIO = sys.stdout,
        server: Optional[object] = None,
    ) -> None:
        self.session = session if session is not None else Session()
        self.out = out
        #: The :class:`repro.server.server.Server` this shell is attached
        #: to, if any (set by ``repro serve``); enables ``.sessions``.
        self.server = server
        self.done = False
        #: Exit code of the most recent failed statement, by error family:
        #: parse=2, bind=3, execution=4, resource=5.  Sticky — later
        #: successes do not clear it — so piped and script runs exit
        #: nonzero when anything failed.
        self.exit_code = 0

    def write(self, text: str) -> None:
        self.out.write(text + "\n")

    # -- command handling ---------------------------------------------------

    def handle(self, line: str) -> None:
        """Process one complete input (a dot-command or a SQL statement)."""
        stripped = line.strip()
        if not stripped:
            return
        if stripped.startswith("."):
            self._dot_command(stripped)
            return
        self._run_sql(stripped.rstrip(";"))

    def _dot_command(self, line: str) -> None:
        command, __, argument = line.partition(" ")
        argument = argument.strip()
        if command in (".quit", ".exit"):
            self.done = True
        elif command == ".help":
            self.write(HELP)
        elif command == ".tables":
            names = sorted(self.session.database.tables)
            views = sorted(self.session.database.views)
            self.write("tables: " + (", ".join(names) or "(none)"))
            self.write("views:  " + (", ".join(views) or "(none)"))
        elif command == ".policy":
            if argument not in POLICIES:
                self.write(f"unknown policy {argument!r}; pick one of {POLICIES}")
                return
            self.session.policy = argument
            self.write(f"policy set to {argument}")
        elif command == ".engine":
            self._set_engine(argument)
        elif command == ".morsels":
            self._set_morsels(argument)
        elif command == ".workers":
            self._set_workers(argument)
        elif command == ".shards":
            self._set_shards(argument)
        elif command == ".sessions":
            self._list_sessions()
        elif command == ".rewrites":
            self._set_rewrites(argument)
        elif command == ".script":
            self._run_script(argument)
        elif command == ".explain":
            self._explain(argument.rstrip(";"))
        elif command == ".dump":
            self._dump(argument)
        elif command == ".open":
            self._open(argument)
        elif command == ".schema":
            self._schema(argument)
        else:
            self.write(f"unknown command {command}; try .help")

    def _set_engine(self, name: str) -> None:
        from dataclasses import replace

        if name not in ("row", "vector"):
            self.write(f"unknown engine {name!r}; pick one of ('row', 'vector')")
            return
        self.session.executor_config = replace(
            self.session.executor_config, engine=name
        )
        self.write(f"engine set to {name}")

    def _set_morsels(self, spec: str) -> None:
        from dataclasses import replace

        try:
            size = None if spec in ("off", "none") else int(spec)
            self.session.executor_config = replace(
                self.session.executor_config, morsel_size=size
            )
        except ValueError as error:
            self.write(f"error: bad morsel size {spec!r}: {error}")
            return
        self.write(
            "morsel size set to "
            + ("off (materialize per operator)" if size is None else str(size))
        )

    def _set_workers(self, spec: str) -> None:
        from dataclasses import replace

        try:
            count = parse_workers(spec)
            self.session.executor_config = replace(
                self.session.executor_config, workers=count
            )
        except ValueError as error:
            self.write(f"error: bad workers {spec!r}: {error}")
            return
        if count == 0:
            self.write(f"workers set to auto ({resolve_workers(0)} on this host)")
        else:
            self.write(f"workers set to {count}")

    def _set_shards(self, spec: str) -> None:
        from dataclasses import replace

        if not spec.strip():
            self._show_shards()
            return
        count_text, __, method = spec.partition(" ")
        method = method.strip()
        try:
            count = 1 if count_text in ("off", "none") else int(count_text)
            if count < 1:
                raise ValueError("shard count must be a positive integer or 'off'")
            overrides = {"shards": count}
            if method:
                overrides["partitioning"] = method
            self.session.executor_config = replace(
                self.session.executor_config, **overrides
            )
        except ValueError as error:
            self.write(f"error: bad shards {spec!r}: {error}")
            return
        if count == 1:
            self.write("shards off (single-site execution)")
        else:
            config = self.session.executor_config
            self.write(
                f"shards set to {count} ({config.partitioning} partitioning, "
                f"{config.transport} transport)"
            )

    def _show_shards(self) -> None:
        """Bare ``.shards``: current layout plus per-shard health."""
        config = self.session.executor_config
        if config.shards == 1:
            self.write("shards off (single-site execution)")
            return
        self.write(
            f"shards: {config.shards} ({config.partitioning} partitioning, "
            f"{config.transport} transport)"
        )
        from repro.engine.shardrpc import active_pool

        pool = active_pool()
        if pool is None:
            self.write("  no worker pool (no socket-transport query yet)")
            return
        pool.heartbeat()  # fresh RTTs, and the ledger notices silent deaths
        for entry in pool.health():
            rtt = f"{entry['rtt'] * 1000:.1f}ms" if entry["rtt"] else "-"
            self.write(
                f"  {entry['shard']}: {entry['health']}  rtt={rtt}  "
                f"respawns={entry['respawns']}  "
                f"failures={entry['failures']}"
            )
        counters = pool.counters.snapshot()
        self.write(
            f"  rpc: calls={counters['calls']} retries={counters['retries']} "
            f"timeouts={counters['timeouts']} "
            f"failovers={counters['failovers']} "
            f"wire_bytes={counters['wire_bytes']} "
            f"reseeds={counters['reseeds']}"
        )

    def _list_sessions(self) -> None:
        if self.server is None:
            self.write("no server attached (start one with: repro serve)")
            return
        sessions = self.server.sessions()
        if not sessions:
            self.write("no open sessions")
            return
        for s in sessions:
            self.write(
                f"{s.id}  tenant={s.tenant}  queries={s.queries}  "
                f"writes={s.writes}  epoch={s.last_epoch}"
            )

    def _set_rewrites(self, spec: str) -> None:
        from dataclasses import replace

        try:
            self.session.executor_config = replace(
                self.session.executor_config, rewrites=spec or "none"
            )
        except ValueError as error:
            self.write(f"error: {error}")
            return
        enabled = self.session.executor_config.rewrites
        self.write(
            "certified rewrites: " + (", ".join(enabled) if enabled else "(none)")
        )

    def _schema(self, table_name: str) -> None:
        db = self.session.database
        names = [table_name] if table_name else sorted(db.tables)
        for name in names:
            try:
                self.write(table_ddl(db.table(name).schema) + ";")
            except ReproError as error:
                self.write(f"error: {error}")
                return

    def _dump(self, path: str) -> None:
        try:
            script = dump_database(self.session.database)
        except ReproError as error:
            self.write(f"error: {error}")
            return
        if not path:
            self.write(script)
            return
        try:
            with open(path, "w") as handle:
                handle.write(script)
        except OSError as error:
            self.write(f"error: {error}")
            return
        self.write(f"dumped to {path}")

    def _open(self, path: str) -> None:
        if not path:
            self.write("usage: .open <path>")
            return
        try:
            with open(path) as handle:
                script = handle.read()
            database = load_database(script)
        except (OSError, ReproError) as error:
            self.write(f"error: {error}")
            return
        # Only the database: policy, executor config and params stay.
        self.session.database = database
        self.write(f"loaded {len(database.tables)} tables from {path}")

    def _run_sql(self, sql: str) -> None:
        try:
            statement = parse_statement(sql)
            if isinstance(statement, (SelectStatement, SetOperationStatement)):
                report = self.session.report(sql)
                self.write(report.result.to_pretty())
                self.write(f"({report.result.cardinality} rows, "
                           f"strategy: {report.strategy})")
            else:
                execute_statement(self.session.database, statement)
                self.write("ok")
        except ReproError as error:
            self.exit_code = error_exit_code(error)
            self.write(f"error: {error}")

    def _explain(self, sql: str) -> None:
        certify = False
        if sql.startswith("--certify"):
            certify = True
            sql = sql[len("--certify"):].strip()
        try:
            report = self.session.report(sql)
            self.write(report.explain(certify=certify))
        except ReproError as error:
            self.exit_code = error_exit_code(error)
            self.write(f"error: {error}")

    def _run_script(self, path: str) -> None:
        if not path:
            self.write("usage: .script <path>")
            return
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            self.exit_code = 2
            self.write(f"error: {error}")
            return
        try:
            statements = parse_script(text)
        except ReproError as error:
            self.exit_code = error_exit_code(error)
            self.write(f"error: {error}")
            return
        ran = 0
        for statement in statements:
            try:
                if isinstance(statement, (SelectStatement, SetOperationStatement)):
                    report = self.session.report_statement(statement)
                    self.write(report.result.to_pretty(limit=10))
                else:
                    execute_statement(self.session.database, statement)
                ran += 1
            except ReproError as error:
                self.exit_code = error_exit_code(error)
                self.write(f"error in statement {ran + 1}: {error}")
                return
        self.write(f"ran {ran} statements")


def _expand_lint_paths(paths: list) -> list:
    """Expand directory arguments to their ``*.sql`` files (sorted)."""
    import os

    expanded: list = []
    for path in paths:
        if os.path.isdir(path):
            expanded.extend(
                sorted(
                    os.path.join(path, name)
                    for name in os.listdir(path)
                    if name.endswith(".sql")
                )
            )
        else:
            expanded.append(path)
    return expanded


def _lint_command(arguments: list, out: TextIO = sys.stdout) -> int:
    """``repro lint``: statically analyze SQL scripts; nonzero on errors."""
    import json

    def write(text: str) -> None:
        out.write(text + "\n")

    flags = [a for a in arguments if a.startswith("--")]
    as_json = "--format=json" in flags
    if "--format" in flags:
        index = arguments.index("--format")
        if index + 1 >= len(arguments) or arguments[index + 1] != "json":
            write("error: --format takes exactly one value: json")
            return 2
        arguments = arguments[:index] + arguments[index + 2 :]
        as_json = True
    min_severity = Severity.INFO if "--info" in arguments else Severity.WARNING
    rewrites = "--rewrites" in arguments
    if "--rules" in arguments:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            write(f"{rule.rule_id}  {rule.severity}  {rule.description}")
        return 0
    ok = True
    reports: list = []
    if "--workloads" in arguments:
        report = lint_workloads(min_severity=min_severity, rewrites=rewrites)
        reports.append(("workloads", report))
    paths = _expand_lint_paths([a for a in arguments if not a.startswith("--")])
    for path in paths:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            write(f"error: {error}")
            return 2
        reports.append(
            (path, lint_sql(text, min_severity=min_severity,
                            rewrites=rewrites, path=path))
        )
    if not reports:
        write("usage: repro lint [--workloads] [--rules] [--info]"
              " [--rewrites] [--format json] <script.sql|dir>...")
        return 2
    for label, report in reports:
        ok = ok and report.ok
        if as_json:
            payload = report.to_payload()
            if not payload.get("file"):
                payload["file"] = label
            write(json.dumps(payload, indent=2, sort_keys=True))
        else:
            write(f"{label}: " + report.render())
    return 0 if ok else 1


def _explain_command(arguments: list, out: TextIO = sys.stdout) -> int:
    """``repro explain``: run scripts, print plan reports instead of rows."""
    def write(text: str) -> None:
        out.write(text + "\n")

    certify = "--certify" in arguments
    rewrites = "--rewrites" in arguments
    paths = [a for a in arguments if not a.startswith("--")]
    if not paths:
        write("usage: repro explain [--certify] [--rewrites] <script.sql>...")
        return 2
    if rewrites:
        session = Session(executor_config=ExecutorConfig(rewrites="all"))
    else:
        session = Session()
    for path in paths:
        try:
            with open(path) as handle:
                statements = parse_script(handle.read())
        except (OSError, ReproError) as error:
            write(f"error: {error}")
            return 2
        for statement in statements:
            try:
                if isinstance(statement, (SelectStatement, SetOperationStatement)):
                    report = session.report_statement(statement)
                    write(report.explain(certify=certify))
                else:
                    execute_statement(session.database, statement)
            except ReproError as error:
                write(f"error: {error}")
                return 1
    return 0


def _take_flags(arguments: list, parsers: dict):
    """Split ``--name value`` / ``--name=value`` options off an argument list.

    ``parsers`` maps each option name to ``(key, parse)``.  Returns
    ``(values, remaining)``: the parsed values by key, and every other
    argument in order.  A missing or malformed value raises ``ValueError``
    naming the option.
    """
    values: dict = {}
    remaining: list = []
    pending = iter(arguments)
    for argument in pending:
        name, __, inline = argument.partition("=")
        if name not in parsers:
            remaining.append(argument)
            continue
        if not inline:
            try:
                inline = next(pending)
            except StopIteration:
                raise ValueError(f"{name} requires a value") from None
        key, parse = parsers[name]
        try:
            values[key] = parse(inline)
        except ValueError:
            raise ValueError(f"bad {name} value: {inline!r}") from None
    return values, remaining


def parse_workers(text: str) -> int:
    """Parse a ``--workers`` / ``.workers`` value; ``auto`` means the
    autotuner sentinel 0 (resolved to ``os.cpu_count()``, clamped, by
    :func:`repro.costing.cost.resolve_workers`)."""
    if text == "auto":
        return 0
    count = int(text)
    if count < 1:
        raise ValueError("workers must be a positive integer or 'auto'")
    return count


def _serve_command(arguments: list, out: TextIO = sys.stdout) -> int:
    """``repro serve``: run the multi-session TCP server.

    ``repro serve [--host H] [--port P] [--max-slots N] [--max-bytes B]
    [--engine row|vector] [--workers N|auto] [script.sql ...]`` — seed
    scripts load into the database first, then the server accepts
    line-protocol clients (see :mod:`repro.server.net`) until
    interrupted.
    """
    from repro.server.net import ReproServer
    from repro.server.server import Server

    def write(text: str) -> None:
        out.write(text + "\n")

    try:
        values, paths = _take_flags(
            arguments,
            {
                "--host": ("host", str),
                "--port": ("port", int),
                "--max-slots": ("max_slots", int),
                "--max-bytes": ("max_bytes", int),
                "--engine": ("engine", str),
                "--workers": ("workers", parse_workers),
            },
        )
        config = ExecutorConfig(
            **{k: values[k] for k in ("engine", "workers") if k in values}
        )
    except ValueError as error:
        write(f"error: {error}")
        return 2
    database = Database()
    for path in paths:
        try:
            with open(path) as handle:
                statements = parse_script(handle.read())
            for statement in statements:
                execute_statement(database, statement)
        except (OSError, ReproError) as error:
            write(f"error loading {path}: {error}")
            return error_exit_code(error) if isinstance(error, ReproError) else 2
    server = Server(
        database,
        max_slots=values.get("max_slots"),
        max_bytes=values.get("max_bytes"),
        executor_config=config,
    )
    front = ReproServer(
        server, host=values.get("host", "127.0.0.1"), port=values.get("port", 7432)
    )
    bound_host, bound_port = front.address
    write(
        f"serving on {bound_host}:{bound_port} "
        f"({len(database.tables)} tables; .quit to disconnect clients, "
        "Ctrl-C to stop)"
    )
    try:
        front.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        front.stop()
    return 0


def _shard_worker_command(arguments: list, out: TextIO = sys.stdout) -> int:
    """``repro shard-worker``: serve one shard over the framed socket RPC.

    ``repro shard-worker [--host H] [--port P]`` — binds (port 0 picks an
    ephemeral one), prints a ``SHARD-WORKER READY port=... pid=...`` line,
    then answers framed requests (see :mod:`repro.server.transport`) until
    a ``shutdown`` request arrives.  The coordinator's
    :class:`~repro.engine.shardrpc.ShardPool` spawns these as one OS
    process per shard; they can equally be started by hand on other hosts
    for a multi-host layout.
    """
    from repro.server.transport import run_worker

    try:
        values, unknown = _take_flags(
            arguments, {"--host": ("host", str), "--port": ("port", int)}
        )
    except ValueError as error:
        out.write(f"error: {error}\n")
        return 2
    if unknown:
        out.write("usage: repro shard-worker [--host H] [--port P]\n")
        return 2
    return run_worker(out=out, **values)


def _extract_budget_flags(arguments: list):
    """Strip ``--timeout SECONDS``, ``--memory-limit BYTES``,
    ``--morsel-size ROWS|off``, ``--workers N`` and ``--transport NAME``
    from an argument list; returns (remaining, ExecutorConfig or None).

    The flags build the session's resource budget and pipeline shape
    (:class:`~repro.engine.executor.ExecutorConfig` ``timeout_seconds`` /
    ``memory_limit_bytes`` / ``morsel_size`` / ``workers`` /
    ``transport``); a malformed value raises ``ValueError`` with a usage
    message.
    """
    overrides, remaining = _take_flags(
        arguments,
        {
            "--timeout": ("timeout_seconds", float),
            "--memory-limit": ("memory_limit_bytes", int),
            "--morsel-size": (
                "morsel_size",
                lambda text: None if text in ("off", "none") else int(text),
            ),
            "--workers": ("workers", parse_workers),
            "--transport": ("transport", str),
        },
    )
    return remaining, (ExecutorConfig(**overrides) if overrides else None)


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point: subcommands (``lint``, ``explain``), or script paths
    followed by a REPL.

    Global ``--timeout`` / ``--memory-limit`` flags set the session's
    resource budget.  Failed statements set distinct exit codes by error
    family — parse=2, bind=3, execution=4, resource=5 — surfaced when
    input comes from scripts or a pipe (the interactive REPL stays 0).
    """
    arguments = list(argv if argv is not None else sys.argv[1:])
    if arguments and arguments[0] == "lint":
        return _lint_command(arguments[1:])
    if arguments and arguments[0] == "explain":
        return _explain_command(arguments[1:])
    if arguments and arguments[0] == "serve":
        return _serve_command(arguments[1:])
    if arguments and arguments[0] == "shard-worker":
        return _shard_worker_command(arguments[1:])
    try:
        arguments, budget = _extract_budget_flags(arguments)
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    session = Session(executor_config=budget) if budget is not None else None
    shell = Shell(session)
    for path in arguments:
        shell._run_script(path)
        if shell.exit_code:
            return shell.exit_code
    if not sys.stdin.isatty():
        # Piped input: same accumulation rules as the interactive loop.
        feed_lines(shell, sys.stdin.read().splitlines())
        return shell.exit_code
    shell.write("groupby-pushdown SQL shell — .help for commands")
    buffer = ""
    while not shell.done:
        try:
            prompt = CONTINUATION if buffer else PROMPT
            line = input(prompt)
        except EOFError:
            break
        buffer = f"{buffer}\n{line}" if buffer else line
        stripped = buffer.strip()
        if stripped.startswith(".") or stripped.endswith(";"):
            shell.handle(stripped)
            buffer = ""
    return 0


def feed_lines(shell: Shell, lines: Iterable[str]) -> None:
    """Drive a shell from a line sequence (piped stdin, tests).

    Dot-commands complete at end of line; SQL accumulates until a ``;``.
    """
    buffer = ""
    for line in lines:
        if shell.done:
            return
        buffer = f"{buffer}\n{line}" if buffer else line
        stripped = buffer.strip()
        if stripped.startswith(".") or stripped.endswith(";"):
            shell.handle(stripped)
            buffer = ""
    if buffer.strip() and not shell.done:
        shell.handle(buffer.strip())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
