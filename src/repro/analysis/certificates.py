"""Rewrite certificates: machine-checkable evidence for the eager rewrite.

A YES from TestFD licenses the group-by pushdown (Theorem 4), but the
verdict alone is a single bit.  A :class:`RewriteCertificate` records the
*evidence* — the candidate keys consulted, the equality classes of every
DNF component, the closure each component reached, and the E1/E2 output
schemas — in a form that :func:`audit_certificate` can re-validate
independently of the code that produced it:

* the closure of each component is recomputed from the recorded atoms via
  :func:`repro.fd.closure.closure` (a different code path from TestFD's
  own fixpoint) and must reproduce the recorded closure;
* FD1 (``GA1+ ⊆ closure``) and FD2 (a key of every R2 member reachable)
  must re-derive (rule C501 on failure);
* the keys recorded must match the catalog's current declarations (a
  schema change invalidates outstanding certificates — C501);
* the E1 and E2 plans are rebuilt and their inferred output schemas must
  agree with each other and with the recorded ones (C502).

:func:`repro.analysis.verifier.transform` issues and audits a certificate on
every rewrite, then attaches it to the returned plan root
(:func:`attach_certificate` / :func:`get_certificate`;
:func:`carry_evidence` when a later pass rebuilds that root).

:class:`RuleCertificate` is the evidence for one application of one certified
rewrite rule (R700–R704): the rewriter and the distribution planner issue it,
:func:`repro.analysis.equivalence.verify_rewrite` audits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algebra.display import render_plan
from repro.algebra.ops import PlanNode
from repro.analysis.diagnostics import Diagnostic, DiagnosticSink
from repro.analysis.schema import infer_schema
from repro.catalog.catalog import Database
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.errors import CatalogError
from repro.fd.closure import closure as fd_closure
from repro.fd.dependency import FunctionalDependency
from repro.fd.derivation import candidate_keys

#: Evidence stashed on a frozen plan root, by attribute: the eager rewrite's
#: certificate (:func:`attach_certificate`), the certified rewrite set the
#: root already went through (:func:`repro.optimizer.rewrites.rewrites_applied`)
#: and the R704 shard-exchange certificate (:func:`distribution_certificate`).
CERTIFICATE_ATTR = "_rewrite_certificate"
APPLIED_REWRITES_ATTR = "_certified_rewrites"
DISTRIBUTION_ATTR = "_distribution_certificate"


@dataclass(frozen=True)
class ComponentCertificate:
    """The closure evidence for one DNF component of TestFD's step 4."""

    atoms: Tuple[str, ...]
    seed: Tuple[str, ...]
    constants: Tuple[str, ...]
    equalities: Tuple[Tuple[str, str], ...]
    closure: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "seed": list(self.seed),
            "constants": list(self.constants),
            "equalities": [list(pair) for pair in self.equalities],
            "closure": list(self.closure),
        }


@dataclass(frozen=True)
class RewriteCertificate:
    """Evidence that E2 (group-by before join) is equivalent to E1."""

    r1: Tuple[Tuple[str, str], ...]  # (alias, table_name)
    r2: Tuple[Tuple[str, str], ...]
    ga1: Tuple[str, ...]
    ga2: Tuple[str, ...]
    ga1_plus: Tuple[str, ...]
    keys_by_alias: Tuple[Tuple[str, Tuple[Tuple[str, ...], ...]], ...]
    components: Tuple[ComponentCertificate, ...]
    e1_columns: Tuple[str, ...]
    e2_columns: Tuple[str, ...]
    reason: str
    assume_unique_keys: bool = False

    @property
    def fd1(self) -> str:
        return (
            f"({', '.join(self.ga1 + self.ga2) or '∅'}) → "
            f"({', '.join(self.ga1_plus) or '∅'})"
        )

    @property
    def fd2(self) -> str:
        aliases = ", ".join(alias for alias, __ in self.r2)
        return (
            f"({', '.join(self.ga1_plus + self.ga2) or '∅'}) → "
            f"RowID({aliases})"
        )

    def keys_for(self, alias: str) -> Tuple[Tuple[str, ...], ...]:
        for candidate, keys in self.keys_by_alias:
            if candidate == alias:
                return keys
        return ()

    def to_dict(self) -> dict:
        return {
            "r1": [list(pair) for pair in self.r1],
            "r2": [list(pair) for pair in self.r2],
            "ga1": list(self.ga1),
            "ga2": list(self.ga2),
            "ga1_plus": list(self.ga1_plus),
            "fd1": self.fd1,
            "fd2": self.fd2,
            "keys_by_alias": {
                alias: [list(key) for key in keys]
                for alias, keys in self.keys_by_alias
            },
            "components": [component.to_dict() for component in self.components],
            "e1_columns": list(self.e1_columns),
            "e2_columns": list(self.e2_columns),
            "reason": self.reason,
            "assume_unique_keys": self.assume_unique_keys,
        }

    def render(self) -> str:
        """Human-readable multi-line rendering for ``explain --certify``."""
        lines = [
            "rewrite certificate (Theorem 4 / TestFD):",
            f"  R1: {', '.join(f'{t} AS {a}' for a, t in self.r1)}",
            f"  R2: {', '.join(f'{t} AS {a}' for a, t in self.r2)}",
            f"  FD1: {self.fd1}",
            f"  FD2: {self.fd2}",
            f"  reason: {self.reason}",
        ]
        for alias, keys in self.keys_by_alias:
            rendered = ", ".join("{" + ", ".join(key) + "}" for key in keys)
            lines.append(f"  keys[{alias}]: {rendered or '(none)'}")
        for i, component in enumerate(self.components):
            lines.append(f"  component {i}: atoms {list(component.atoms) or '[]'}")
            lines.append(f"    seed     {sorted(component.seed)}")
            lines.append(f"    closure  {sorted(component.closure)}")
        lines.append(f"  E1 columns: {', '.join(self.e1_columns)}")
        lines.append(f"  E2 columns: {', '.join(self.e2_columns)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RuleCertificate:
    """Evidence for one application of one rewrite rule.

    ``before`` and ``after`` are the *full* plans around the application
    (so the checker can audit context, not just the rewritten site);
    ``path`` is the operator breadcrumb of the rewritten site using the
    same ``$.i:label`` notation as the schema analyzer; ``premises`` are
    (name, value) facts the rewriter claims and the checker re-derives.
    """

    rule: str
    path: str
    before: PlanNode
    after: PlanNode
    premises: Tuple[Tuple[str, str], ...]

    def premise_values(self, name: str) -> Tuple[str, ...]:
        return tuple(value for key, value in self.premises if key == name)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "before": render_plan(self.before),
            "after": render_plan(self.after),
            "premises": [
                {"name": name, "value": value} for name, value in self.premises
            ],
        }

    def render(self) -> str:
        lines = [f"rewrite {self.rule} at {self.path}"]
        for name, value in self.premises:
            lines.append(f"  {name}: {value}")
        return "\n".join(lines)


#: The inferred output column names of a query's (E1, E2).
PlanColumns = Tuple[Tuple[str, ...], Tuple[str, ...]]


def output_columns(
    database: Database,
    query: "object",
    plans: Optional[Tuple[PlanNode, PlanNode]] = None,
) -> PlanColumns:
    """What ``query``'s (E1, E2) put out — ``plans`` when the caller already
    holds the pair, freshly built ones otherwise."""
    standard, eager = plans or (
        build_standard_plan(query), build_eager_plan(query)
    )
    return (
        infer_schema(standard, database).names(),
        infer_schema(eager, database).names(),
    )


def issue_certificate(
    database: Database,
    query: "object",
    testfd: "object",
    assume_unique_keys: bool = False,
    columns: Optional[PlanColumns] = None,
) -> RewriteCertificate:
    """Build the certificate for a YES TestFD verdict on ``query``.

    ``testfd`` is the :class:`~repro.core.testfd.TestFDResult` whose
    component traces carry the structured atoms; ``columns`` is the
    :func:`output_columns` pair when the caller has inferred it already.
    """
    keys = candidate_keys(database, query.all_bindings, assume_unique_keys)
    keys_by_alias = tuple(
        (alias, tuple(tuple(sorted(key)) for key in keys[alias]))
        for alias in sorted(keys)
    )
    components = tuple(
        ComponentCertificate(
            atoms=tuple(trace.atoms),
            seed=tuple(sorted(trace.seed)),
            constants=tuple(sorted(trace.constants)),
            equalities=tuple(trace.equalities),
            closure=tuple(sorted(trace.closure)),
        )
        for trace in testfd.components
    )
    e1_columns, e2_columns = columns or output_columns(database, query)
    return RewriteCertificate(
        r1=tuple((b.alias, b.table_name) for b in query.r1),
        r2=tuple((b.alias, b.table_name) for b in query.r2),
        ga1=tuple(query.ga1),
        ga2=tuple(query.ga2),
        ga1_plus=tuple(query.ga1_plus),
        keys_by_alias=keys_by_alias,
        components=components,
        e1_columns=e1_columns,
        e2_columns=e2_columns,
        reason=testfd.reason,
        assume_unique_keys=assume_unique_keys,
    )


def audit_certificate(
    database: Database,
    query: "object",
    certificate: RewriteCertificate,
    columns: Optional[PlanColumns] = None,
) -> List[Diagnostic]:
    """Independently re-validate ``certificate`` against ``query``.

    Re-derives FD1/FD2 with :func:`repro.fd.closure.closure` (not TestFD's
    own fixpoint) from the recorded atoms, re-reads the keys from the
    catalog, and compares the recorded output schemas with ``columns`` —
    the :func:`output_columns` of the plans about to run, or of rebuilt
    ones when omitted.  Returns the list of C501/C502 diagnostics (empty =
    certificate stands).
    """
    sink = DiagnosticSink()
    path = "certificate"

    # -- the certified query must be the query we were handed --------------
    recorded_tables = {alias: table for alias, table in certificate.r1}
    recorded_tables.update({alias: table for alias, table in certificate.r2})
    actual_tables = {b.alias: b.table_name for b in query.all_bindings}
    if recorded_tables != actual_tables:
        sink.report(
            "C501", path,
            f"certificate covers tables {sorted(recorded_tables.items())} but "
            f"the query binds {sorted(actual_tables.items())}",
        )
        return sink.diagnostics
    if (
        tuple(certificate.ga1) != tuple(query.ga1)
        or tuple(certificate.ga2) != tuple(query.ga2)
        or tuple(certificate.ga1_plus) != tuple(query.ga1_plus)
    ):
        sink.report(
            "C501", path,
            "certificate grouping columns do not match the query "
            f"(GA1 {certificate.ga1} vs {query.ga1}, "
            f"GA2 {certificate.ga2} vs {query.ga2}, "
            f"GA1+ {certificate.ga1_plus} vs {query.ga1_plus})",
        )

    # -- keys must match the catalog's current declarations -----------------
    columns_by_alias: Dict[str, frozenset] = {}
    current_keys: Dict[str, Tuple[Tuple[str, ...], ...]] = {}

    try:
        raw = candidate_keys(
            database, query.all_bindings, certificate.assume_unique_keys
        )
    except CatalogError as error:
        sink.report("C501", path, f"catalog changed under the certificate: {error}")
        return sink.diagnostics
    for binding in query.all_bindings:
        schema = database.table(binding.table_name).schema
        columns_by_alias[binding.alias] = frozenset(
            f"{binding.alias}.{c}" for c in schema.column_names()
        )
        current_keys[binding.alias] = tuple(
            tuple(sorted(key)) for key in raw[binding.alias]
        )
    for alias, recorded_keys in certificate.keys_by_alias:
        if set(recorded_keys) != set(current_keys.get(alias, ())):
            sink.report(
                "C501", path,
                f"recorded keys for {alias} {list(recorded_keys)} differ from "
                f"the catalog's {list(current_keys.get(alias, ()))} — "
                "certificate is stale",
            )

    # -- re-derive each component's closure, FD1 and FD2 --------------------
    r2_aliases = sorted(alias for alias, __ in certificate.r2)
    ga1_plus = frozenset(certificate.ga1_plus)
    expected_seed = frozenset(query.ga1) | frozenset(query.ga2)
    for i, component in enumerate(certificate.components):
        where = f"{path}.component[{i}]"
        if frozenset(component.seed) != expected_seed:
            sink.report(
                "C501", where,
                f"seed {sorted(component.seed)} is not GA1 ∪ GA2 "
                f"{sorted(expected_seed)}",
            )
        dependencies: List[FunctionalDependency] = []
        for column in component.constants:
            dependencies.append(FunctionalDependency((), (column,)))
        for left, right in component.equalities:
            dependencies.append(FunctionalDependency((left,), (right,)))
            dependencies.append(FunctionalDependency((right,), (left,)))
        for alias, keys in current_keys.items():
            for key in keys:
                dependencies.append(
                    FunctionalDependency(key, columns_by_alias[alias])
                )
        rederived = fd_closure(component.seed, dependencies)
        if rederived != frozenset(component.closure):
            sink.report(
                "C501", where,
                "recorded closure does not re-derive: recorded "
                f"{sorted(component.closure)}, recomputed {sorted(rederived)}",
            )
            continue
        if not ga1_plus <= rederived:
            missing = sorted(ga1_plus - rederived)
            sink.report(
                "C501", where,
                f"FD1 does not re-derive: GA1+ columns {missing} are outside "
                "the recomputed closure",
            )
        for alias in r2_aliases:
            if not any(
                frozenset(key) <= rederived for key in current_keys.get(alias, ())
            ):
                sink.report(
                    "C501", where,
                    f"FD2 does not re-derive: no candidate key of {alias} is "
                    "inside the recomputed closure",
                )

    # -- E1/E2 output schemas must agree ------------------------------------
    e1_columns, e2_columns = columns or output_columns(database, query)
    if e1_columns != tuple(certificate.e1_columns) or e2_columns != tuple(
        certificate.e2_columns
    ):
        sink.report(
            "C501", path,
            f"recorded output schemas (E1 {list(certificate.e1_columns)}, "
            f"E2 {list(certificate.e2_columns)}) do not match the rebuilt "
            f"plans (E1 {list(e1_columns)}, E2 {list(e2_columns)})",
        )
    if e1_columns != e2_columns:
        sink.report(
            "C502", path,
            f"E1 output schema {list(e1_columns)} diverges from E2 output "
            f"schema {list(e2_columns)} — the rewrite does not preserve the "
            "SELECT list",
        )
    return sink.diagnostics


# -- attachment on frozen plan roots ---------------------------------------


def attach_certificate(plan: PlanNode, certificate: RewriteCertificate) -> PlanNode:
    """Stash ``certificate`` on the plan root (frozen dataclasses allow
    ``object.__setattr__``; the attribute takes no part in ``==``/``hash``)."""
    object.__setattr__(plan, CERTIFICATE_ATTR, certificate)
    return plan


def get_certificate(plan: PlanNode) -> Optional[RewriteCertificate]:
    """The certificate attached to ``plan``'s root, if any."""
    return getattr(plan, CERTIFICATE_ATTR, None)


def distribution_certificate(plan: PlanNode) -> Optional[RuleCertificate]:
    """The R704 certificate attached to a distributed plan root, if any."""
    return getattr(plan, DISTRIBUTION_ATTR, None)


def carry_evidence(old_root: PlanNode, new_root: PlanNode) -> PlanNode:
    """Re-attach what ``old_root`` carried to the root that replaced it
    (fusing, a rewrite and an Exchange wrap each rebuild the root); what
    ``new_root`` already carries stays."""
    for attr in (CERTIFICATE_ATTR, APPLIED_REWRITES_ATTR, DISTRIBUTION_ATTR):
        evidence = getattr(old_root, attr, None)
        if evidence is not None and getattr(new_root, attr, None) is None:
            object.__setattr__(new_root, attr, evidence)
    return new_root
