"""Which functions of ``src/repro`` do the examples, the CI benchmarks and
the bench workloads enter?

    python scripts/reach_census.py

Runs, from the repository root and with only the standard library:

* every ``examples/*.py``;
* ``python -m pytest benchmarks -q --benchmark-disable``;
* ``python -m bench --workload W --quick --seed 1 --trace T`` for each
  workload of ``BENCHMARK.json`` and T = 0, 1.

A generated ``sitecustomize`` first on ``PYTHONPATH`` profiles every
process those commands start, ``repro serve`` and the shard workers
included: it records each function entered under ``src/repro`` and writes
the set when the process ends, whether by returning, by ``os._exit`` (a
forked pool worker) or by SIGTERM (how the bench stops ``repro serve``).
A process killed by SIGKILL is lost.

Prints, per module, the lines of the functions entered over the lines of
all its functions, as a Markdown table, then the total.  A line belongs to
the innermost function around it; a decorator is part of its function.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

SITECUSTOMIZE = '''
import atexit, json, os, signal, sys, threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_entered = set()


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _dump():
    found = sorted(
        {{(code.co_filename, code.co_firstlineno) for code in list(_entered)
          if code.co_filename.startswith(_PREFIX)}}
    )
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w") as handle:
        json.dump(found, handle)


def _on_term(signum, frame):
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


_real_exit = os._exit


def _exit(code):
    _dump()
    _real_exit(code)


os._exit = _exit
atexit.register(_dump)
signal.signal(signal.SIGTERM, _on_term)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def commands() -> List[List[str]]:
    python = sys.executable
    runs = [
        [python, path.relative_to(ROOT).as_posix()]
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs.append([python, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable"])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in contract["workloads"]:
        for trace in ("0", "1"):
            runs.append([
                python, "-m", "bench", "--workload", workload["name"],
                "--quick", "--seed", "1", "--trace", trace,
            ])
    return runs


def function_lines(path: Path) -> Dict[int, int]:
    """First line of each function's code object -> the lines it owns."""
    tree = ast.parse(path.read_text())
    owned: Dict[int, int] = {}

    def visit(node: ast.AST, owner: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert child.end_lineno is not None
                span = child.end_lineno - first + 1
                owned[first] = owned.get(first, 0) + span
                if owner:
                    owned[owner] -= span
                visit(child, first)
            else:
                visit(child, owner)

    visit(tree, 0)
    return owned


def run_all(out: str, site: str) -> None:
    environment = dict(os.environ)
    inherited = environment.get("PYTHONPATH")
    paths = [site, str(ROOT / "src")] + ([inherited] if inherited else [])
    environment["PYTHONPATH"] = os.pathsep.join(paths)
    for command in commands():
        print(f"census: python {' '.join(command[1:])}", file=sys.stderr, flush=True)
        completed = subprocess.run(
            command, cwd=ROOT, env=environment,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if completed.returncode:
            print(f"census: exited {completed.returncode}", file=sys.stderr)


def entered(out: str) -> Set[Tuple[str, int]]:
    found: Set[Tuple[str, int]] = set()
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as handle:
            found.update((path, line) for path, line in json.load(handle))
    return found


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        site = os.path.join(scratch, "site")
        os.mkdir(out)
        os.mkdir(site)
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE.format(prefix=str(SOURCE) + os.sep, out=out))
        run_all(out, site)
        seen = entered(out)
    print("| module | entered / function lines | share |")
    print("|---|---:|---:|")
    total_entered = total_lines = 0
    for path in sorted(SOURCE.rglob("*.py")):
        owned = function_lines(path)
        lines = sum(owned.values())
        if not lines:
            continue
        hit = sum(n for first, n in owned.items() if (str(path), first) in seen)
        total_entered += hit
        total_lines += lines
        module = path.relative_to(SOURCE).as_posix()
        print(f"| `{module}` | {hit} / {lines} | {100 * hit / lines:.0f} % |")
    share = 100 * total_entered / total_lines
    print(f"| **all** | {total_entered} / {total_lines} | {share:.0f} % |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
