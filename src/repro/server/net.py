"""A small threaded TCP front-end for the server (``repro serve``).

Line protocol, one request per line, UTF-8:

* ``QUERY <select>`` — run on a pinned snapshot; response is
  ``OK <n> rows epoch=<e>`` followed by one tab-separated line per row
  and a terminating blank line.  One row is always exactly one non-empty
  line: in character values a backslash, tab, newline and carriage
  return travel as ``\\\\``, ``\\t``, ``\\n`` and ``\\r``, and the empty
  string as ``\\e``; every other value is its ``str()``, NULL is ``NULL``;
* ``EXEC <statement>`` — DDL/DML through the serialized commit path;
  response ``OK epoch=<e>``;
* ``.sessions`` — list open sessions (id, tenant, queries, writes);
* ``.stats`` — server counters (epoch, commits, admission stats);
* ``.quit`` — close this connection.

Errors answer ``ERR <exit_code> <ErrorType>: <message>`` with the same
exit-code families the CLI uses (parse=2, bind=3, execution=4,
resource=5) — an :class:`~repro.errors.AdmissionRejected` therefore
reports 5 plus its retry hint, and a client can drive
:func:`repro.engine.retry.call_with_backoff` off it.

Each connection gets its own :class:`~repro.server.server.ServerSession`
(the threading server gives it its own thread), so concurrent clients
exercise exactly the snapshot/admission machinery the in-process API
does.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Optional, Tuple

from repro.errors import ReproError, error_exit_code
from repro.server.server import Server


#: The body's field separator, its row terminators (text-mode readers
#: also end a line at a carriage return) and the escape character itself.
_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _render(value: object) -> str:
    if isinstance(value, str):
        return value.translate(_ESCAPES) or "\\e"
    return "NULL" if repr(value) == "NULL" else str(value)


class _Handler(socketserver.StreamRequestHandler):
    # A response leaves in one write on a TCP_NODELAY socket: written line
    # by line, the second segment of a multi-row body sat out the client's
    # delayed ACK (a flat ~40 ms per read, whatever the host's speed).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: Server = self.server.repro_server  # type: ignore[attr-defined]
        session = server.open_session(tenant=self.client_address[0])
        try:
            for raw in self.rfile:
                line = raw.decode("utf-8", "replace").strip()
                if not line:
                    continue
                if line == ".quit":
                    break
                try:
                    self._dispatch(server, session, line)
                except ReproError as error:
                    self._send(
                        f"ERR {error_exit_code(error)} "
                        f"{type(error).__name__}: {error}"
                    )
        finally:
            session.close()

    def _dispatch(self, server: Server, session, line: str) -> None:
        command, __, rest = line.partition(" ")
        upper = command.upper()
        if upper == "QUERY":
            report = session.report(rest)
            rows = report.result.rows
            self._send(
                f"OK {len(rows)} rows epoch={report.snapshot_epoch}",
                *("\t".join(_render(v) for v in row) for row in rows),
                "",
            )
        elif upper == "EXEC":
            epoch = session.execute(rest)
            self._send(f"OK epoch={epoch}")
        elif command == ".sessions":
            sessions = server.sessions()
            self._send(
                f"OK {len(sessions)} sessions",
                *(
                    f"{s.id}\t{s.tenant}\tqueries={s.queries}\t"
                    f"writes={s.writes}\tepoch={s.last_epoch}"
                    for s in sessions
                ),
                "",
            )
        elif command == ".stats":
            stats = server.stats()
            self._send(
                "OK " + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
            )
        else:
            self._send(f"ERR 2 ParseError: unknown command {command!r}")

    def _send(self, *lines: str) -> None:
        """One response — every line of it — in a single write."""
        self.wfile.write("".join(line + "\n" for line in lines).encode("utf-8"))
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ReproServer:
    """Own a :class:`Server` and serve it over TCP until stopped."""

    def __init__(
        self,
        server: Optional[Server] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server if server is not None else Server()
        self._tcp = _ThreadingTCPServer((host, port), _Handler)
        self._tcp.repro_server = self.server  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._tcp.server_address  # type: ignore[return-value]

    def start(self) -> "ReproServer":
        """Serve in a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:  # pragma: no cover - interactive
        self._tcp.serve_forever()

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
