"""Static semantic analysis over the SQL2 algebra (the *plan verifier*).

The transformation theory of the paper only pays off if the rewritten plan
E2 is provably equivalent to E1 — so this package checks plans *without
executing them* and reports typed :class:`~repro.analysis.diagnostics.Diagnostic`
records (rule id, severity, plan path, message, fix hint).

Layers:

* :mod:`repro.analysis.columns` — the vocabulary of inferred schemas;
* :mod:`repro.analysis.typecheck` — expression type checking against an
  inferred schema, including 3VL/null-literal hazards;
* :mod:`repro.analysis.schema` — output-schema inference for every
  operator of :mod:`repro.algebra.ops` (typed, nullability-aware);
* :mod:`repro.analysis.verifier` — the analysis passes over a plan tree
  (scope resolution, grouped-table discipline, duplicate-sensitive
  aggregate pushdown, null-safety, typing), and :func:`certify` — the one
  place an eager plan's certificate is issued, audited and attached;
* :mod:`repro.analysis.certificates` — machine-checkable *rewrite
  certificates* issued by :func:`issue_certificate` and independently
  re-validated by :func:`audit_certificate`, the :class:`RuleCertificate`
  of the certified rewrite rules, and :func:`carry_evidence` for what a
  plan root carries;
* :mod:`repro.analysis.nullability` — a three-valued-logic abstract
  interpreter over predicates (which truth values are reachable when a
  column is NULL), shared by the rewriter and the checker;
* :mod:`repro.analysis.equivalence` — the *plan-equivalence checker*:
  independently re-verifies every :class:`~repro.analysis.certificates.RuleCertificate`
  issued by the certified rewrite pass (R700–R703 diagnostics).

The driver of ``repro lint`` is :mod:`repro.lint`, above the planner whose
plans it analyzes.
"""

from repro.analysis.certificates import (
    RewriteCertificate,
    RuleCertificate,
    attach_certificate,
    audit_certificate,
    carry_evidence,
    get_certificate,
    issue_certificate,
)
from repro.analysis.diagnostics import RULES, Diagnostic, Severity
from repro.analysis.equivalence import verify_rewrite
from repro.analysis.nullability import (
    possible_truth_values,
    rejects_null,
)
from repro.analysis.schema import ColumnInfo, PlanSchema, infer_schema
from repro.analysis.verifier import analyze_plan, analyze_query, certify, transform

__all__ = [
    "RULES",
    "ColumnInfo",
    "Diagnostic",
    "PlanSchema",
    "RewriteCertificate",
    "RuleCertificate",
    "Severity",
    "analyze_plan",
    "analyze_query",
    "attach_certificate",
    "audit_certificate",
    "carry_evidence",
    "certify",
    "get_certificate",
    "infer_schema",
    "issue_certificate",
    "possible_truth_values",
    "rejects_null",
    "transform",
    "verify_rewrite",
]
