"""Section 5 applications: query evaluation dichotomy, containment, rewritability.

Every application routes an ontology-mediated query through the
correspondences of Section 4 — atomic queries become (generalized, marked)
CSPs via Theorem 4.6, UCQs become MDDlog/MMSNP via Theorem 3.3 and
Proposition 4.1 — and then applies the CSP-side machinery:

* **dichotomy** (Theorems 5.1 / 5.3): classify the data complexity of an OMQ
  as PTIME or coNP-hard via the algebraic criterion on its CSP templates;
* **containment** (Theorems 5.6 / 5.7): decide ``Q1 ⊆ Q2`` via homomorphisms
  between templates (atomic queries) or via bounded counterexample search
  plus the MMSNP route (UCQs);
* **FO-/datalog-rewritability** (Theorems 5.15 / 5.16): decide rewritability
  via finite duality and bounded width of the templates, and construct
  concrete UCQ / datalog rewritings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.homomorphism import marked_homomorphism_exists
from ..core.instance import Instance
from ..core.schema import Schema
from ..core.structures import all_instances_over
from ..csp.dichotomy import PTIME, TemplateClassification, classify_template
from ..csp.rewritability import (
    cocsp_datalog_rewritable,
    cocsp_fo_rewritable,
    generalized_datalog_rewritable,
    generalized_fo_rewritable,
)
from ..csp.template import prune_to_incomparable
from ..omq.query import OntologyMediatedQuery
from ..translations.csp_templates import CspEncoding, omq_to_csp


# ---------------------------------------------------------------------------
# Data-complexity classification (Theorems 5.1 and 5.3)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmqComplexityReport:
    """Data-complexity classification of an ontology-mediated query."""

    complexity: str
    template_reports: tuple[TemplateClassification, ...]
    fo_rewritable: bool
    datalog_rewritable: bool

    def is_tractable(self) -> bool:
        return self.complexity == PTIME


def classify_omq(omq: OntologyMediatedQuery) -> OmqComplexityReport:
    """Classify the data complexity of an (ALC(H)(U), AQ/BAQ) query.

    The query's CSP templates (Theorem 4.6) are classified algebraically; the
    query evaluation problem is in PTIME iff every template CSP is, and
    coNP-hard as soon as one template CSP is NP-hard (evaluation is the
    complement of the CSP).
    """
    encoding = omq_to_csp(omq)
    templates = _all_template_instances(encoding)
    reports = tuple(classify_template(t) for t in templates)
    complexity = PTIME if all(r.complexity == PTIME for r in reports) else "coNP-hard"
    return OmqComplexityReport(
        complexity=complexity,
        template_reports=reports,
        fo_rewritable=omq_fo_rewritable(omq, encoding),
        datalog_rewritable=omq_datalog_rewritable(omq, encoding),
    )


def _all_template_instances(encoding: CspEncoding) -> list[Instance]:
    if encoding.boolean:
        return list(encoding.templates)
    from ..csp.rewritability import marked_template_expansion

    return [marked_template_expansion(t) for t in encoding.marked_templates]


# ---------------------------------------------------------------------------
# Rewritability (Theorems 5.15 and 5.16)
# ---------------------------------------------------------------------------


def omq_fo_rewritable(
    omq: OntologyMediatedQuery, encoding: CspEncoding | None = None
) -> bool:
    """Is the (ALC(H)(U), AQ/BAQ) query FO-rewritable?  (Theorem 5.16.)"""
    encoding = encoding if encoding is not None else omq_to_csp(omq)
    if encoding.boolean:
        pruned = prune_to_incomparable(list(encoding.templates))
        return all(cocsp_fo_rewritable(t) for t in pruned)
    return generalized_fo_rewritable(list(encoding.marked_templates))


def omq_datalog_rewritable(
    omq: OntologyMediatedQuery, encoding: CspEncoding | None = None
) -> bool:
    """Is the (ALC(H)(U), AQ/BAQ) query datalog-rewritable?  (Theorem 5.16.)"""
    encoding = encoding if encoding is not None else omq_to_csp(omq)
    if encoding.boolean:
        pruned = prune_to_incomparable(list(encoding.templates))
        return all(cocsp_datalog_rewritable(t) for t in pruned)
    return generalized_datalog_rewritable(list(encoding.marked_templates))


# ---------------------------------------------------------------------------
# Query containment (Theorems 5.6 and 5.7)
# ---------------------------------------------------------------------------


def atomic_omq_contained_in(
    first: OntologyMediatedQuery, second: OntologyMediatedQuery
) -> bool:
    """Containment for atomic-query OMQs over the same data schema, decided via
    homomorphisms between their CSP templates (the NEXPTIME procedure behind
    Theorem 5.7: answers of coCSP(F) ⊆ answers of coCSP(F') iff every template
    of F' maps into some template of F ... oriented for the complement)."""
    if first.data_schema != second.data_schema:
        raise ValueError("containment requires a common data schema")
    first_encoding = omq_to_csp(first)
    second_encoding = omq_to_csp(second)
    if first_encoding.boolean != second_encoding.boolean:
        raise ValueError("queries must both be Boolean or both be unary")
    if first_encoding.boolean:
        # q1 ⊆ q2 iff every counter-witness for q2 is one for q1:
        # every template of F2 admits a homomorphism from ... — via the
        # homomorphism characterisation: coCSP(F1) ⊆ coCSP(F2) iff
        # ∀ B2 ∈ F2 ∃ B1 ∈ F1 with B2 → B1.
        from ..core.homomorphism import has_homomorphism

        return all(
            any(has_homomorphism(b2, b1) for b1 in first_encoding.templates)
            for b2 in second_encoding.templates
        )
    return all(
        any(
            marked_homomorphism_exists(b2, b1)
            for b1 in first_encoding.marked_templates
        )
        for b2 in second_encoding.marked_templates
    )


def omq_contained_in_bounded(
    first: OntologyMediatedQuery,
    second: OntologyMediatedQuery,
    max_elements: int = 2,
    max_facts: int = 3,
    engine: str = "auto",
) -> bool:
    """Bounded-counterexample containment check for arbitrary OMQs.

    Enumerates data instances over the common schema up to the given size and
    verifies ``cert_{q1,O1}(D) ⊆ cert_{q2,O2}(D)`` on each.  This is the
    sound-but-bounded companion to the decidability statement of Theorem 5.6
    (whose exact procedure goes through MMSNP containment); a returned
    counterexample is always genuine.
    """
    schema = first.data_schema
    domain = [f"e{i}" for i in range(max_elements)]
    for data in all_instances_over(schema, domain, max_facts):
        if data.is_empty():
            continue
        left = first.certain_answers(data, engine=engine)
        right = second.certain_answers(data, engine=engine)
        if not left <= right:
            return False
    return True


def containment_counterexample(
    first: OntologyMediatedQuery,
    second: OntologyMediatedQuery,
    max_elements: int = 2,
    max_facts: int = 3,
    engine: str = "auto",
):
    """A witness instance (and tuple) showing non-containment, if one exists
    within the bound."""
    schema = first.data_schema
    domain = [f"e{i}" for i in range(max_elements)]
    for data in all_instances_over(schema, domain, max_facts):
        if data.is_empty():
            continue
        left = first.certain_answers(data, engine=engine)
        right = second.certain_answers(data, engine=engine)
        extra = left - right
        if extra:
            return data, sorted(extra)[0]
    return None


# ---------------------------------------------------------------------------
# Schema-free OMQs (Section 6)
# ---------------------------------------------------------------------------


def schema_free_variant(omq: OntologyMediatedQuery) -> OntologyMediatedQuery:
    """The schema-free version of an OMQ (Section 6): the data may use any
    relation symbol; decision problems reduce to the fixed-schema query over
    ``sig(O) ∪ sig(q)``, which is how all Section 6 upper bounds are proved."""
    return OntologyMediatedQuery(
        ontology=omq.ontology,
        query=omq.query,
        data_schema=None,
        schema_free=True,
    )


def schema_free_equivalent_fixed_schema(
    omq: OntologyMediatedQuery,
) -> OntologyMediatedQuery:
    """The fixed-schema query over ``sig(O) ∪ sig(q)`` that a schema-free query
    behaves like (the observation opening Section 6)."""
    return OntologyMediatedQuery(
        ontology=omq.ontology, query=omq.query, data_schema=None, schema_free=False
    )


def restrict_to_schema(instance: Instance, schema: Schema) -> Instance:
    """Drop facts outside the schema — how schema-free answering reduces to the
    fixed-schema case for ontologies that cannot see the extra symbols."""
    return instance.restrict_to_schema(schema)


# ---------------------------------------------------------------------------
# Serving (repro.service)
# ---------------------------------------------------------------------------


def serve_omq_workload(
    workload,
    initial_instance: Instance | None = None,
    shards: int = 1,
    policy=None,
):
    """Compile an OMQ workload into a live serving session.

    ``workload`` is one OMQ (or DDlog program) or a mapping of query names
    to them; the result is an :class:`repro.service.session.ObdaSession`
    whose certain answers are maintained incrementally under
    ``insert_facts`` / ``delete_facts``.  Each compiled query is routed by
    the tiered planner (:mod:`repro.planner`) to its cheapest sound
    serving state — stateless UCQ evaluation, DRed-maintained fixpoint, or
    the guarded CDCL solver; ``session.explain()`` reports the decisions.
    With ``shards`` > 1 the fact stream is consistent-hash-partitioned
    across that many per-shard sessions
    (:class:`repro.service.shards.ShardedObdaSession`; requires shardable —
    connected, constant-free — programs) and per-shard certain answers are
    merged.  This is the deployment-facing entry point tying Section 5's
    one-shot applications to the streaming serving layer.

    ``policy`` is the unified :class:`~repro.planner.PlanPolicy` (forced
    tier, semantic stage, diagnostics, adaptive re-planning).
    """
    initial = () if initial_instance is None else initial_instance.facts
    if shards > 1:
        from ..service.shards import ShardedObdaSession

        return ShardedObdaSession(
            workload, shards=shards, initial_facts=initial, policy=policy
        )
    from ..service.session import ObdaSession

    return ObdaSession(workload, initial_facts=initial, policy=policy)


def serve_frontend_workload(
    workload,
    initial_instance: Instance | None = None,
    shards: int = 1,
    policy=None,
    *,
    tenants=(),
    config=None,
    faults=None,
):
    """Serve an OMQ workload through the multi-tenant asyncio frontend.

    Compiles the workload into a session exactly as
    :func:`serve_omq_workload` (including ``shards`` > 1) and wraps it in
    a :class:`repro.service.frontend.Frontend` whose *default group*
    serves that session: tenants share the compiled programs, writes are
    group-committed, reads run against versioned snapshots, and admission
    control sheds tier-2 tenants first.  ``tenants`` is an iterable of
    names or ``(name, tier)`` pairs registered up front (a single
    ``"tenant-0"`` at tier 1 when empty); ``config`` is a
    :class:`~repro.service.frontend.FrontendConfig`, ``faults`` an
    optional :class:`~repro.service.frontend.FaultInjector` for harness
    runs.  The returned frontend's async API (``query`` / ``insert`` /
    ``delete`` / ``drain`` / ``close``) must be driven from one event
    loop.
    """
    from ..service.frontend import Frontend

    session = serve_omq_workload(
        workload, initial_instance=initial_instance, shards=shards, policy=policy
    )
    frontend = Frontend(
        session=session, policy=policy, config=config, faults=faults
    )
    entries = list(tenants) or ["tenant-0"]
    for entry in entries:
        if isinstance(entry, str):
            frontend.register_tenant(entry)
        else:
            name, tier = entry
            frontend.register_tenant(name, tier=tier)
    return frontend


def plan_omq_workload(workload, policy=None) -> dict:
    """Plan a workload without serving it: query name -> :class:`QueryPlan`.

    Compiles each entry exactly as :func:`serve_omq_workload` would (OMQs
    through the Theorem 3.3 translation, DDlog programs as-is) and returns
    the planner's explainable routing decisions — which queries run as
    plain UCQs, which as datalog fixpoints, and which genuinely need the
    ground+CDCL engine; syntactic tier-2 programs additionally report the
    semantic rewritability verdict (:mod:`repro.planner.semantic`).  The
    runtime mirror of the Section 5 dichotomy.
    """
    from collections.abc import Mapping

    from ..planner import plan_workload
    from ..service.session import DEFAULT_QUERY, _compile

    if not isinstance(workload, Mapping):
        workload = {DEFAULT_QUERY: workload}
    return plan_workload(
        {name: _compile(entry) for name, entry in workload.items()}, policy
    )
