"""One declared layer order: imports under ``src/repro`` point down.

:data:`ORDER` is the only place the order is written.  Walking every module
with :mod:`ast` (nothing is imported, so a cycle cannot hide from the walk
by happening to resolve), the tree must show

(a) no module-level import of a higher layer — a package's ``__init__`` is
    a module of its layer, so an upward import hidden in its re-exports is
    reported too;
(b) no function-local ``repro`` import outside :data:`SURVIVORS`, each row
    of which carries its reason;
(c) no import of an underscore name from another package;
(d) no module that only its own package's ``__init__`` and ``tests/``
    import, outside :data:`UNREACHED` — the library, the benchmark harness,
    the examples, the CI benchmarks or the scripts must use it.

``if TYPE_CHECKING:`` imports are exempt from all four: they never run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import pytest

#: Lowest first.  A tuple is one rank: its members may import each other.
#: ``__init__`` is the root facade (``repro/__init__.py`` re-exports the
#: public API) and ``__main__`` the entry point; both sit above everything.
ORDER = (
    "errors",
    "sqltypes",
    "expressions",
    "algebra",
    ("catalog", "storage"),
    "workloads",
    "fd",
    "costing",
    "core",
    "parser",
    "analysis",
    "optimizer",
    "engine",
    "statement",
    ("session", "lint", "main_theorem"),
    "server",
    "cli",
    ("__init__", "__main__"),
)

RANK = {
    name: rank
    for rank, names in enumerate(ORDER)
    for name in ((names,) if isinstance(names, str) else names)
}

MEASURED_COST = (
    "measured import cost: an unsharded query never loads the partitioner "
    "or the wire stack, ~4.5 MiB (held by tests/test_first_use.py)"
)
SUBCOMMAND_ONLY = (
    "subcommand-only dependency: `repro serve`, `repro shard-worker` and the "
    "shell's bare `.shards` load it; no other subcommand does"
)

#: Every function-local ``repro`` import left in the tree:
#: (module, imported module, reason).
SURVIVORS = (
    ("repro.engine.executor", "repro.engine.exchange", MEASURED_COST),
    ("repro.engine.vector.executor", "repro.engine.exchange", MEASURED_COST),
    ("repro.optimizer.prepare", "repro.optimizer.distribute", MEASURED_COST),
    (
        "repro.server.transport",
        "repro.engine.exchange",
        "measured import cost: a worker announces READY before it loads the "
        "Exchange runner its first `execute` needs, ~29 ms and ~5 MiB of "
        "`python -X importtime -c 'import repro.server.transport'` (held by "
        "tests/test_first_use.py)",
    ),
    ("repro.cli", "repro.engine.shardrpc", SUBCOMMAND_ONLY),
    ("repro.cli", "repro.server.net", SUBCOMMAND_ONLY),
    ("repro.cli", "repro.server.server", SUBCOMMAND_ONLY),
    ("repro.cli", "repro.server.transport", SUBCOMMAND_ONLY),
)
ALLOWED = frozenset((module, imported) for module, imported, __ in SURVIVORS)

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: The trees besides ``src/`` whose imports show that a module is used.
REACHING_ROOTS = ("bench", "examples", "benchmarks", "scripts")

#: Modules that nothing outside ``tests/`` imports and that stay anyway:
#: (module, reason).
UNREACHED = (
    ("repro.__main__", "the entry point: `python -m repro` runs it by name"),
    (
        "repro.core.pipelining",
        "ROADMAP direction 10 decides it with the other physical plan choices",
    ),
    (
        "repro.server.chaos",
        "robustness machinery a CI gate runs: the concurrency job's "
        "serial-replay oracle (tests/server/test_chaos.py)",
    ),
)


def module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(SOURCE_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


TREE = {module_name(path): path for path in sorted(SOURCE_ROOT.rglob("*.py"))}
PACKAGES = frozenset(
    name for name, path in TREE.items() if path.name == "__init__.py"
)


def layer_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def package_of(module: str, packages: FrozenSet[str]) -> str:
    return module if module in packages else module.rpartition(".")[0]


def _imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, bool]]:
    """Every import statement that can run, with whether it is
    function-local.  Class bodies run at import time, so they are module
    level; ``if TYPE_CHECKING:`` bodies never run, so they are skipped."""

    def visit(node: ast.AST, local: bool) -> Iterator[Tuple[ast.stmt, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, local
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from visit(child, True)
            elif isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                for statement in child.orelse:
                    yield from visit(statement, local)
            else:
                yield from visit(child, local)

    return visit(tree, False)


def _targets(
    statement: ast.stmt, module: str, modules: FrozenSet[str], packages: FrozenSet[str]
) -> Iterator[Tuple[str, Optional[str]]]:
    """(imported module, imported name or None) for each ``repro`` import
    the statement makes; ``from pkg import submodule`` names the submodule."""
    if isinstance(statement, ast.Import):
        for alias in statement.names:
            if alias.name.split(".")[0] == "repro":
                yield alias.name, None
        return
    base = statement.module or ""
    if statement.level:
        package = package_of(module, packages).split(".")
        anchor = package[: len(package) - (statement.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    if base.split(".")[0] != "repro":
        return
    for alias in statement.names:
        if f"{base}.{alias.name}" in modules:
            yield f"{base}.{alias.name}", None
        else:
            yield base, alias.name


def violations(
    module: str,
    source: str,
    modules: FrozenSet[str] = frozenset(TREE),
    packages: FrozenSet[str] = PACKAGES,
) -> List[str]:
    """What ``source``, read as the module ``module``, breaks of (a)–(c),
    one line per import statement and imported module."""
    found = {}
    rank = RANK[layer_of(module)]
    for statement, local in _imports(ast.parse(source)):
        for imported, name in _targets(statement, module, modules, packages):
            where = f"{module}:{statement.lineno}"
            if local and (module, imported) not in ALLOWED:
                found[
                    f"{where} imports {imported} inside a function and is "
                    "not a listed survivor"
                ] = None
            if not local and RANK[layer_of(imported)] > rank:
                found[
                    f"{where} imports {imported} at module level: "
                    f"{layer_of(module)} is below {layer_of(imported)}"
                ] = None
            if (
                name is not None
                and name.startswith("_")
                and package_of(imported, packages) != package_of(module, packages)
            ):
                found[
                    f"{where} imports the private name {name} from {imported}"
                ] = None
    return list(found)


# -- the tree ----------------------------------------------------------------


def test_every_top_level_name_has_a_rank():
    assert {layer_of(module) for module in TREE} == set(RANK)


def test_the_tree_obeys_the_order():
    found = [
        line
        for module, path in TREE.items()
        for line in violations(module, path.read_text())
    ]
    assert found == []


def test_every_survivor_is_still_there_and_has_a_reason():
    """A row outlives its import only by being forgotten; the list stays
    the whole truth, under twenty rows."""
    assert len(SURVIVORS) < 20
    for module, imported, reason in SURVIVORS:
        assert reason.strip()
        local = {
            target
            for statement, is_local in _imports(ast.parse(TREE[module].read_text()))
            if is_local
            for target, __ in _targets(statement, module, frozenset(TREE), PACKAGES)
        }
        assert imported in local, f"{module} no longer imports {imported} locally"


# -- the checker bites -------------------------------------------------------

SYNTHETIC_MODULES = frozenset(TREE) | {"repro.storage.fake", "repro.core.fake"}


@pytest.mark.parametrize(
    "module, source, expected",
    [
        (
            "repro.storage.fake",
            "from repro.engine.dataset import DataSet\n",
            "at module level: storage is below engine",
        ),
        (
            "repro.storage.fake",
            "class Lazy:\n    import repro.session\n",
            "at module level: storage is below session",
        ),
        (
            "repro.core.fake",
            "def build():\n    from repro.core.having import rewrite_having\n",
            "inside a function and is not a listed survivor",
        ),
        (
            "repro.core.fake",
            "from repro.fd.derivation import _closure_cache\n",
            "imports the private name _closure_cache from repro.fd.derivation",
        ),
        (
            "repro.core",  # the package's own __init__
            "from repro.main_theorem import verdict\n",
            "at module level: core is below main_theorem",
        ),
        (
            "repro.core.fake",
            "from repro import session\n",
            "imports repro.session at module level: core is below session",
        ),
        (
            "repro.core.fake",
            "from ..engine import executor\n",
            "imports repro.engine.executor at module level",
        ),
    ],
)
def test_the_checker_reports(module, source, expected):
    [line] = violations(module, source, SYNTHETIC_MODULES)
    assert expected in line


def test_the_checker_exempts_what_never_runs_and_what_is_listed():
    assert violations(
        "repro.fd.fake",
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.engine.dataset import DataSet\n",
    ) == []
    module, imported, __ = SURVIVORS[0]
    assert violations(module, f"def run():\n    import {imported}\n") == []
    assert violations("repro.engine.vector.fake", "from .batch import _Repeat\n") == []


@pytest.mark.parametrize(
    "source, upper",
    [
        ("from repro.analysis.equivalence import verify_rewrite\n", "analysis"),
        ("from repro.optimizer.planner import Planner\n", "optimizer"),
    ],
)
def test_costing_sits_below_the_checker_and_the_planner(source, upper):
    [line] = violations("repro.costing.fake", source)
    assert f"at module level: costing is below {upper}" in line
    assert violations(
        "repro.analysis.fake", "from repro.costing.cost import CostModel\n"
    ) == []


def test_the_old_estimator_path_is_one_re_export():
    """``bench/stepwise.py`` imports the estimator from its old path; that
    module may name it and nothing else, so it cannot become a second home."""
    tree = ast.parse(TREE["repro.optimizer.cardinality"].read_text())
    assert not [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    [exported] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
    ]
    assert ast.literal_eval(exported) == ["CardinalityEstimator"]


# -- module reach ------------------------------------------------------------


def _reexports(package: str) -> Dict[str, str]:
    """Name -> module for each name ``package``'s ``__init__`` imports from
    a module of the tree."""
    found = {}
    for statement, __ in _imports(ast.parse(TREE[package].read_text())):
        for imported, name in _targets(statement, package, frozenset(TREE), PACKAGES):
            if name is not None:
                found[name] = imported
    return found


def _resolve(imported: str, name: Optional[str]) -> str:
    """The module that defines what ``from imported import name`` binds,
    following package re-exports."""
    while name is not None and imported in PACKAGES:
        target = _reexports(imported).get(name)
        if target is None or target == imported:
            break
        imported = target
    return imported


def _sources() -> Iterator[Tuple[str, Path]]:
    """(module name or "" outside ``src/``, path) of every importing file."""
    yield from TREE.items()
    for root in REACHING_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            yield "", path


def importers() -> Dict[str, Set[str]]:
    """For each module of the tree, the files outside ``tests/`` that
    import it, leaving out its own package's ``__init__``."""
    found: Dict[str, Set[str]] = {module: set() for module in TREE}
    for module, path in _sources():
        for statement, __ in _imports(ast.parse(path.read_text())):
            if not module and getattr(statement, "level", 0):
                continue  # a relative import outside src/ is not repro
            targets = _targets(statement, module or "repro", frozenset(TREE), PACKAGES)
            for imported, name in targets:
                target = _resolve(imported, name)
                if target not in found:
                    continue
                if module and module == target.rpartition(".")[0]:
                    continue  # its own package's __init__
                found[target].add(str(path.relative_to(REPO_ROOT)))
    return found


def test_every_module_is_reached_from_outside_the_tests():
    exempt = {module for module, __ in UNREACHED}
    unreached = [
        module
        for module, files in importers().items()
        if module not in PACKAGES and not files and module not in exempt
    ]
    assert unreached == []


def test_every_unreached_row_is_still_unreached_and_has_a_reason():
    """A row whose module gained a user, or went, is removed with it."""
    reach = importers()
    for module, reason in UNREACHED:
        assert reason.strip()
        assert module in TREE, f"{module} is gone"
        assert reach[module] == set(), f"{module} is imported by {reach[module]}"


def test_reach_follows_re_exports_to_the_defining_module():
    assert _resolve("repro", "Session") == "repro.session"
    assert _resolve("repro.core", "test_fd") == "repro.core.testfd"
    assert _resolve("repro.core.testfd", "test_fd") == "repro.core.testfd"
