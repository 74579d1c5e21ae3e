"""Semantic rewritability routing: construct the rewriting, not just detect it.

The syntactic tiers of :mod:`repro.planner.plan` are sound but blunt: every
Theorem 3.3 type-elimination compilation contains a disjunctive guess rule,
so every compiled OMQ lands on the ground+CDCL tier even when the paper
proves it FO- or datalog-rewritable.  This module is the planner's semantic
stage for exactly that gap.  When the syntactic plan says tier 2 and the
program is an MDDlog compilation, it runs the Section 5.3 decision
procedures *constructively*:

1. **Templates** (Theorem 4.6).  The program is connected to (generalized,
   marked) CSP templates — either through the source OMQ recorded by
   :func:`repro.omq.certain.compile_to_mddlog` (atomic / Boolean atomic
   queries), or, for bare programs, through the MMSNP/MDDlog bridge
   (:func:`repro.translations.mmsnp_mddlog.mddlog_to_mmsnp` certifies the
   simple connected MMSNP fragment of Proposition 4.1/4.4, then
   :func:`repro.translations.alc_aq_mddlog.mddlog_to_alc_aq` +
   :func:`repro.translations.csp_templates.omq_to_csp` produce templates).
2. **FO-rewritability** (Theorem 5.10 first half, lifted by Proposition
   5.11/Theorem 5.15): the Larose–Loten–Tardif dismantling test of
   :mod:`repro.csp.duality` on every pruned template expansion.  On
   success, the bounded critical obstruction sets are *materialized* into a
   UCQ (Section 5.3's construction; Feier–Kuusisto–Lutz prove the general
   MDDlog decision problem decidable) that the existing tier-0 executor
   runs unchanged — marked elements become the answer variable.
3. **Datalog-rewritability** (Theorem 5.10 second half, via the
   Barto–Kozik bounded-width certificate of :mod:`repro.csp.polymorphisms`):
   on success the canonical arc-consistency datalog program of
   :mod:`repro.csp.canonical_datalog` (Feder–Vardi) is materialized — for
   marked templates as a *parameterized* variant whose extra argument
   carries the candidate answer — and executed by the tier-1 fixpoint.

Every constructed artifact passes a **soundness cross-validation hook**
before it is allowed to route: the rewriting's certain answers are compared
against the forced tier-2 (ground+CDCL) answers of the original program on
an exhaustively enumerated family of small instances over the program's EDB
schema (:func:`cross_validate`).  Obstruction sets are computed within size
bounds and arc consistency is complete only for width-1 templates, so the
hook is what turns "plausible rewriting" into "rewriting we will serve";
a failed validation degrades to tier 2 with a rationale saying so.

Everything is governed by a :class:`SemanticBudget` — wall-clock deadline
plus size gates on the type space, the templates, the obstruction search
and the validation family — so undecidable-in-practice blowups (the full
Table 1 ontology's 90-element templates, say) degrade gracefully to
tier 2 instead of hanging the planner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.cq import Atom, Variable
from ..core.instance import Fact, Instance
from ..core.schema import RelationSymbol
from ..core.structures import expansion_with_constants
from ..datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from ..obs import telemetry as _telemetry
from .analysis import UcqUnfolding, UnfoldedDisjunct

__all__ = [
    "SemanticBudget",
    "SemanticReport",
    "analyse_rewritability",
    "cross_validate",
]


class BudgetExceeded(Exception):
    """Internal control flow: a semantic budget gate tripped."""


class DeadlineExceeded(BudgetExceeded):
    """The soft wall-clock deadline tripped — a *transient* verdict (it
    reflects machine load, not the program), so the planner does not cache
    it."""


class _Inapplicable(Exception):
    """Internal control flow: the semantic procedures do not apply."""


@dataclass(frozen=True)
class SemanticBudget:
    """Resource knobs for the semantic stage (all trip to tier 2, never fail).

    ``time_budget_s`` is a soft wall-clock deadline checked between stages
    and between templates; the size gates below bound the stages whose cost
    explodes before a clock check could fire.
    """

    #: soft wall-clock deadline for the whole analysis
    time_budget_s: float = 10.0
    #: allow the program-level MMSNP/MDDlog bridge for programs without a
    #: compile-time source-OMQ hint (the bridge builds a type system over
    #: the program's own IDB predicates, so it is gated hard below)
    bridge: bool = True
    #: bridge gate: max unary IDB predicates of an unhinted program
    max_bridge_predicates: int = 4
    #: type-space gate: max decision concepts before ``all_types`` blows up
    max_type_decisions: int = 12
    #: max marked/unmarked templates produced by the Theorem 4.6 encoding
    max_templates: int = 12
    #: max active-domain elements of any template (dismantling is quadratic
    #: in the square of this; pruning is a homomorphism search over it)
    max_template_elements: int = 12
    #: bounded-width certificate gate (the 4-ary WNU search is O(n^4) table
    #: points with O(tuples^4) constraints)
    max_width_elements: int = 6
    #: canonical-program gate: subsets of the template domain become IDB
    #: predicates, so rules grow as 2^elements
    max_canonical_elements: int = 5
    #: escalating (max elements, max facts) bounds for the critical
    #: obstruction search
    obstruction_bounds: tuple[tuple[int, int], ...] = ((2, 2), (3, 3))
    #: cap on the distributed obstruction-product UCQ
    max_ucq_disjuncts: int = 64
    #: cross-validation family: stratified instances over the EDB schema —
    #: exhaustive-first per fact count up to (validation_elements,
    #: validation_facts) (three elements so the family contains triangles —
    #: the smallest witnesses separating width 1 from width 2), plus an
    #: escalation stratum one element / one fact larger, sized to probe
    #: *past* the largest obstruction bound; ``max_validation_instances``
    #: caps the whole family, with oversized strata sampled by a
    #: deterministic stride instead of truncated lexicographically
    validation_elements: int = 3
    validation_facts: int = 3
    max_validation_instances: int = 400


DEFAULT_BUDGET = SemanticBudget()


@dataclass(frozen=True)
class SemanticReport:
    """What the semantic stage decided, and why — cached on the QueryPlan.

    ``route`` records how templates were obtained (``source-omq`` for
    compile-time hints, ``mmsnp-bridge`` for the program-level bridge);
    ``rewriting`` names the constructed artifact (``obstruction-ucq`` or
    ``canonical-datalog``) when one routed.
    """

    applicable: bool
    rationale: str
    route: str | None = None
    fo_rewritable: bool | None = None
    datalog_rewritable: bool | None = None
    rewriting: str | None = None
    templates: int = 0
    template_elements: tuple[int, ...] = ()
    obstructions: int = 0
    validated_instances: int = 0
    elapsed_s: float = 0.0
    #: the verdict came from a tripped wall-clock deadline and must not be
    #: cached (machine load, not program structure)
    transient: bool = False

    def describe(self) -> dict:
        info = {
            "applicable": self.applicable,
            "rationale": self.rationale,
        }
        if self.route is not None:
            info["route"] = self.route
        if self.fo_rewritable is not None:
            info["fo_rewritable"] = self.fo_rewritable
        if self.datalog_rewritable is not None:
            info["datalog_rewritable"] = self.datalog_rewritable
        if self.rewriting is not None:
            info["rewriting"] = self.rewriting
        if self.templates:
            info["templates"] = self.templates
        if self.obstructions:
            info["obstructions"] = self.obstructions
        if self.validated_instances:
            info["validated_instances"] = self.validated_instances
        if self.transient:
            info["transient"] = True
        info["elapsed_s"] = round(self.elapsed_s, 3)
        return info


@dataclass
class _Deadline:
    """Soft wall-clock deadline checked between stages.

    With telemetry enabled, every check also records the time elapsed since
    the previous check into the ``planner.semantic.phase.<stage>``
    histogram — per-phase timing measured at exactly the points the budget
    is enforced, with no extra bookkeeping on the disabled path.
    """

    seconds: float
    started: float = field(default_factory=_telemetry.now)
    last_check: float | None = None

    def check(self, stage: str) -> None:
        now = _telemetry.now()
        tel = _telemetry.ACTIVE
        if tel is not None:
            previous = self.last_check if self.last_check is not None else self.started
            tel.record(f"planner.semantic.phase.{stage}", now - previous)
            self.last_check = now
        if now - self.started > self.seconds:
            raise DeadlineExceeded(
                f"wall-clock budget of {self.seconds:g}s exhausted during {stage}"
            )

    @property
    def elapsed(self) -> float:
        return _telemetry.now() - self.started


@dataclass(frozen=True)
class _TemplateFamily:
    """The Theorem 4.6 encoding normalized for the constructions below.

    ``expansions`` carries ``(expanded instance, mark symbols)`` pairs — for
    the Boolean case the mark tuple is empty and the expansion is the
    template itself, so both arities flow through one code path.
    ``unmarked`` carries the template instances *without* marks: a model of
    the compiled program over ``D`` is a homomorphism of ``D`` into some
    unmarked template, so these drive the constructed *consistency* test
    (``is_consistent`` and the sharded vacuous-escalation protocol).
    """

    arity: int
    route: str
    expansions: tuple[tuple[Instance, tuple[RelationSymbol, ...]], ...]
    unmarked: tuple[Instance, ...]


# ---------------------------------------------------------------------------
# Stage 1: templates — source-OMQ route and the MMSNP/MDDlog bridge
# ---------------------------------------------------------------------------


def _templates_for(
    program: DisjunctiveDatalogProgram,
    budget: SemanticBudget,
    deadline: _Deadline,
) -> _TemplateFamily:
    """Theorem 4.6 templates for the program, via the cheapest available route."""
    omq = getattr(program, "source_omq", None)
    route = "source-omq"
    if omq is None:
        omq = _bridge_omq(program, budget)
        route = "mmsnp-bridge"
    if not (omq.is_atomic() or omq.is_boolean_atomic()):
        raise _Inapplicable(
            "the semantic procedures run through Theorem 4.6, which covers "
            "atomic / Boolean atomic queries; the source query is a CQ/UCQ"
        )
    _gate_type_space(omq, budget)
    deadline.check("type-system construction")
    from ..dl.reasoner import UnsupportedOntologyError
    from ..translations.csp_templates import omq_to_csp

    try:
        encoding = omq_to_csp(omq)
    except (UnsupportedOntologyError, ValueError) as error:
        raise _Inapplicable(f"Theorem 4.6 encoding unavailable: {error}") from error
    deadline.check("Theorem 4.6 template construction")
    if encoding.boolean:
        raw: list[tuple[Instance, tuple[RelationSymbol, ...]]] = [
            (template, ()) for template in encoding.templates
        ]
        unmarked: list[Instance] = list(encoding.templates)
        arity = 0
    else:
        raw = [
            expansion_with_constants(marked.instance, marked.marks)
            for marked in encoding.marked_templates
        ]
        # Several marked templates share one instance; for consistency only
        # the distinct instances matter.
        unmarked = list(dict.fromkeys(m.instance for m in encoding.marked_templates))
        arity = encoding.marked_templates[0].arity if encoding.marked_templates else 1
    if not raw:
        raise _Inapplicable("the Theorem 4.6 encoding produced no templates")
    if any(not expansion.active_domain for expansion, _marks in raw):
        # A template with no facts over the data schema cannot speak about
        # the program's adom semantics (elements reaching the active domain
        # through relations outside the EDB schema still feed the guess
        # rule); refuse rather than serve a vacuously-true rewriting.
        raise _Inapplicable(
            "the Theorem 4.6 encoding produced a degenerate empty-domain "
            "template (empty effective data schema)"
        )
    if len(raw) > budget.max_templates:
        raise BudgetExceeded(
            f"{len(raw)} templates exceed the {budget.max_templates}-template budget"
        )
    for expansion, _marks in raw:
        size = len(expansion.active_domain)
        if size > budget.max_template_elements:
            raise BudgetExceeded(
                f"a template with {size} elements exceeds the "
                f"{budget.max_template_elements}-element budget"
            )
    deadline.check("unmarked-template pruning")
    from ..csp.template import prune_to_incomparable

    return _TemplateFamily(
        arity=arity,
        route=route,
        expansions=tuple(raw),
        unmarked=tuple(prune_to_incomparable(unmarked)),
    )


def _bridge_omq(program: DisjunctiveDatalogProgram, budget: SemanticBudget):
    """The program-level bridge: MDDlog → MMSNP (fragment check) → (ALC, AQ).

    Proposition 4.1 puts MDDlog inside MMSNP-with-fact-variables; the plain
    MMSNP fragment (simple connected rules) is exactly what Theorem 4.4 and
    Theorem 3.4 (2) translate back into (ALC, AQ/BAQ), from where Theorem
    4.6 takes over.  The bridge builds a type system over the program's own
    IDB predicates, so it is gated on their number.
    """
    if not budget.bridge:
        raise _Inapplicable(
            "no compile-time source-OMQ hint and the program-level "
            "MMSNP bridge is disabled (SemanticBudget(bridge=True) enables it)"
        )
    unary_idbs = [
        symbol
        for symbol in program.idb_relations
        if symbol.arity == 1 and symbol.name not in (GOAL, ADOM)
    ]
    if len(unary_idbs) > budget.max_bridge_predicates:
        raise BudgetExceeded(
            f"{len(unary_idbs)} unary IDB predicates exceed the "
            f"{budget.max_bridge_predicates}-predicate bridge budget"
        )
    from ..translations.alc_aq_mddlog import mddlog_to_alc_aq
    from ..translations.mmsnp_mddlog import mddlog_to_mmsnp

    try:
        formula = mddlog_to_mmsnp(program)
    except ValueError as error:
        raise _Inapplicable(f"not an MDDlog program: {error}") from error
    if not formula.is_mmsnp():
        raise _Inapplicable(
            "the program's MMSNP form leaves the plain MMSNP fragment "
            "(Proposition 4.1 fact variables); no CSP connection applies"
        )
    try:
        return mddlog_to_alc_aq(program)
    except ValueError as error:
        raise _Inapplicable(f"outside the Theorem 3.4 fragment: {error}") from error


def _gate_type_space(omq, budget: SemanticBudget) -> None:
    """Bound the 2^decisions type enumeration before attempting it."""
    from ..dl.concepts import ConceptName
    from ..dl.reasoner import TypeSystem, UnsupportedOntologyError

    schema = omq.data_schema
    extra = [ConceptName(s.name) for s in schema.concept_names] if schema else []
    try:
        atom = next(iter(omq.ucq().disjuncts[0].atoms))
        extra.append(ConceptName(atom.relation.name))
        system = TypeSystem(omq.ontology, extra_concepts=extra)
    except (UnsupportedOntologyError, ValueError) as error:
        raise _Inapplicable(f"type elimination unavailable: {error}") from error
    decisions = len(system.concept_name_decisions) + len(
        system.existential_decisions
    )
    if decisions > budget.max_type_decisions:
        raise BudgetExceeded(
            f"the type space has {decisions} decision concepts, past the "
            f"{budget.max_type_decisions}-decision budget"
        )


# ---------------------------------------------------------------------------
# Stage 2: FO-rewritability and the obstruction-set UCQ
# ---------------------------------------------------------------------------


def _prune_expansions(
    family: _TemplateFamily, deadline: _Deadline
) -> list[tuple[Instance, tuple[RelationSymbol, ...]]]:
    """Keep homomorphically incomparable expansions (Lemma 5.13 / Thm 5.15).

    Marked templates are compared through their ``(B, b)^c`` expansions —
    a homomorphism of expansions is exactly a mark-respecting homomorphism
    — so pruning the expansions prunes the marked templates.
    """
    from ..core.homomorphism import has_homomorphism

    kept: list[tuple[Instance, tuple[RelationSymbol, ...]]] = []
    for candidate, marks in family.expansions:
        deadline.check("template pruning")
        if any(has_homomorphism(candidate, other) for other, _ in kept):
            continue
        kept = [
            (other, other_marks)
            for other, other_marks in kept
            if not has_homomorphism(other, candidate)
        ]
        kept.append((candidate, marks))
    return kept


def _obstruction_ucq_at(
    pruned: Sequence[tuple[Instance, tuple[RelationSymbol, ...]]],
    unmarked: Sequence[Instance],
    arity: int,
    bound: tuple[int, int],
    budget: SemanticBudget,
    deadline: _Deadline,
) -> tuple[UcqUnfolding, int] | None:
    """The distributed obstruction-set UCQ of the generalized coCSP, at one
    obstruction size bound.

    A tuple ``a`` is a certain answer iff ``(D, a)`` maps to *no* pruned
    template, i.e. iff **every** template has **some** critical obstruction
    mapping into ``(D, a)^c`` (Section 5.3).  Distributing the conjunction
    over the per-template obstruction disjunctions yields a UCQ: one
    disjunct per choice of one obstruction per template, with every
    ``Pi``-marked obstruction element identified with answer variable
    ``xi``.  Returns ``None`` when some template has no obstruction within
    the bound; the caller escalates through ``budget.obstruction_bounds``
    and cross-validates each constructed UCQ, because a bound that is too
    small yields an *incomplete* set (a UCQ missing answers), not a wrong
    obstruction.

    The *constraint* disjuncts encode the consistency test the same way
    over the ``unmarked`` templates: no model of the compiled program
    extends ``D`` iff ``D`` maps into none of them, i.e. iff every
    unmarked template has an obstruction mapping into ``D``.  An unmarked
    template with no obstruction within the bound contributes an empty
    product — "never inconsistent" — which is either genuinely the case or
    an incompleteness the consistency half of the cross-validation hook
    rejects.
    """
    from ..csp.duality import bounded_obstruction_set

    max_elements, max_facts = bound
    answer_vars = tuple(Variable(f"x{i}") for i in range(arity))
    per_template: list[list[tuple[Atom, ...]]] = []
    total_obstructions = 0
    counter = itertools.count()
    for expansion, marks in pruned:
        deadline.check("obstruction search")
        obstructions = bounded_obstruction_set(expansion, max_elements, max_facts)
        deadline.check("obstruction search")
        if not obstructions:
            return None
        disjuncts = []
        for obstruction in obstructions:
            atoms = _obstruction_atoms(obstruction, marks, answer_vars, counter)
            if atoms is not None:
                disjuncts.append(atoms)
        if not disjuncts:
            return None
        per_template.append(disjuncts)
        total_obstructions += len(disjuncts)
    product_size = 1
    for disjuncts in per_template:
        product_size *= len(disjuncts)
        if product_size > budget.max_ucq_disjuncts:
            raise BudgetExceeded(
                f"the distributed obstruction UCQ exceeds the "
                f"{budget.max_ucq_disjuncts}-disjunct budget"
            )
    goal_disjuncts = tuple(
        UnfoldedDisjunct(
            answer_vars,
            tuple(atom for component in combination for atom in component),
            (),
        )
        for combination in itertools.product(*per_template)
    )
    # Consistency constraints over the unmarked templates.
    per_unmarked: list[list[tuple[Atom, ...]]] = []
    constraint_size = 1
    for template in unmarked:
        deadline.check("consistency obstruction search")
        obstructions = bounded_obstruction_set(template, max_elements, max_facts)
        disjuncts = [
            atoms
            for obstruction in obstructions
            if (atoms := _obstruction_atoms(obstruction, (), (), counter))
            is not None
        ]
        if not disjuncts:
            per_unmarked = []
            break
        constraint_size *= len(disjuncts)
        if constraint_size > budget.max_ucq_disjuncts:
            raise BudgetExceeded(
                f"the distributed consistency UCQ exceeds the "
                f"{budget.max_ucq_disjuncts}-disjunct budget"
            )
        per_unmarked.append(disjuncts)
    constraint_disjuncts = tuple(
        UnfoldedDisjunct(
            (),
            tuple(atom for component in combination for atom in component),
            (),
        )
        for combination in itertools.product(*per_unmarked)
    ) if per_unmarked else ()
    return (
        UcqUnfolding(goal_disjuncts, constraint_disjuncts),
        total_obstructions,
    )


def _obstruction_atoms(
    obstruction: Instance,
    marks: Sequence[RelationSymbol],
    answer_vars: tuple[Variable, ...],
    counter,
) -> tuple[Atom, ...] | None:
    """One obstruction as CQ atoms: ``Pi``-carrying elements become ``xi``.

    An obstruction that places two distinct marks on one element would need
    an equality between answer variables; that never arises for the unary
    (AQ) and Boolean cases routed here, so such obstructions are skipped.
    """
    mark_names = {symbol.name: index for index, symbol in enumerate(marks)}
    variables: dict = {}
    for fact in sorted(obstruction.facts, key=str):
        index = mark_names.get(fact.relation.name)
        if index is None:
            continue
        element = fact.arguments[0]
        if element in variables and variables[element] != answer_vars[index]:
            return None
        variables[element] = answer_vars[index]
    for element in sorted(obstruction.active_domain, key=repr):
        if element not in variables:
            variables[element] = Variable(f"o{next(counter)}")
    return tuple(
        Atom(fact.relation, tuple(variables[a] for a in fact.arguments))
        for fact in sorted(obstruction.facts, key=str)
        if fact.relation.name not in mark_names
    )


# ---------------------------------------------------------------------------
# Stage 3: datalog-rewritability and the (parameterized) canonical program
# ---------------------------------------------------------------------------


def _subset_symbol(
    lattice_index: int, template_index: int, arity: int, prefix: str
) -> RelationSymbol:
    """One predicate per reachable lattice member, named by its *index* in
    the sorted lattice — string-joining element reprs is not injective
    (elements whose reprs contain the separator can alias two distinct
    subsets onto one symbol)."""
    return RelationSymbol(f"{prefix}{template_index}_S{lattice_index}", 1 + arity)


def _parameterized_canonical_program(
    expansion: Instance,
    marks: Sequence[RelationSymbol],
    arity: int,
    template_index: int,
    goal: RelationSymbol,
) -> tuple[list[Rule], Atom | None]:
    """The canonical arc-consistency program of ``coCSP((B, b)^c)``, with the
    mark replaced by answer-variable parameters (Feder–Vardi, Section 5.3).

    The AC run on ``(D, a)^c`` is factored into two predicate families so
    the materialized fixpoint stays near-linear in the data:

    * ``Y_S(v)`` — the **mark-independent** image-set restrictions ("the
      possible template images of ``v`` lie within ``S``"), identical for
      every candidate ``a``: unary-fact restrictions, role range/loop
      restrictions, their propagations and meets.  This is the canonical
      *unary* program of :mod:`repro.csp.canonical_datalog`, restricted to
      the subset lattice actually reachable from the template's seeds.
    * ``X_S(v, a)`` — the restrictions **caused by the mark**: seeded as
      ``X_M(a, a)`` (the expansion's single ``P1(a)`` fact, with ``M`` the
      marked template elements), propagated through roles and met with the
      ``Y`` sets.  ``X`` facts exist only for pairs the mark's restriction
      actually reaches, instead of the full ``adom²`` product a naive
      parameterization materializes.

    ``goal(a)`` fires when a run's image set empties — through ``X_∅`` (the
    mark's restriction contradicts the data) or ``Y_∅`` (the data admits no
    homomorphism into this template at all).  For the Boolean case (no
    marks) the ``X`` family is empty and this is the classical
    construction.  Returns the rules (with the caller-supplied per-template
    ``goal``) plus the ``Y_∅(v)`` failure atom when the empty set is
    reachable — ``None`` means this template's unmarked AC can never fail,
    so it never contributes to inconsistency.
    """
    domain = sorted(expansion.active_domain, key=repr)
    full = frozenset(domain)
    mark_names = {s.name for s in marks}
    roles = [
        symbol
        for symbol in expansion.schema.role_names
        if symbol.name not in mark_names
    ]
    unaries = [
        symbol
        for symbol in expansion.schema.concept_names
        if symbol.name not in mark_names
    ]

    def images(subset: frozenset, pairs) -> tuple[frozenset, frozenset, frozenset]:
        forward = frozenset(b for (a, b) in pairs if a in subset)
        backward = frozenset(a for (a, b) in pairs if b in subset)
        loops = frozenset(a for (a, b) in pairs if a == b and a in subset)
        return forward, backward, loops

    # The reachable subset lattice: seeds are the unary/mark/role-range
    # restrictions; close under role images and pairwise meets.  Only these
    # subsets can ever label an AC set, so only they become predicates.
    role_pairs = {role: expansion.tuples(role) for role in roles}
    seeds: set[frozenset] = set()
    for unary in unaries:
        seeds.add(frozenset(t[0] for t in expansion.tuples(unary)))
    for mark in marks:
        seeds.add(frozenset(t[0] for t in expansion.tuples(mark)))
    for role, pairs in role_pairs.items():
        forward, backward, loops = images(full, pairs)
        seeds.update((forward, backward, loops))
    seeds.discard(full)
    reachable: set[frozenset] = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        derived: list[frozenset] = []
        for pairs in role_pairs.values():
            derived.extend(images(current, pairs))
        derived.extend(current & other for other in list(reachable))
        for subset in derived:
            if subset != full and subset not in reachable:
                reachable.add(subset)
                frontier.append(subset)

    ordered = sorted(reachable, key=lambda s: (len(s), sorted(map(repr, s))))
    lattice_index = {subset: i for i, subset in enumerate(ordered)}

    def y_sym(subset: frozenset) -> RelationSymbol:
        return _subset_symbol(lattice_index[subset], template_index, 0, "ACY")

    def x_sym(subset: frozenset) -> RelationSymbol:
        return _subset_symbol(lattice_index[subset], template_index, arity, "ACX")

    x, y = Variable("x"), Variable("y")
    params = tuple(Variable(f"a{i}") for i in range(arity))
    param_atoms = tuple(Atom(RelationSymbol(ADOM, 1), (p,)) for p in params)
    rules: list[Rule] = []

    def y_atom(subset: frozenset, element) -> Atom:
        return Atom(y_sym(subset), (element,))

    def x_atom(subset: frozenset, element) -> Atom:
        return Atom(x_sym(subset), (element,) + params)

    # -- Y: mark-independent restrictions --------------------------------------
    for unary in unaries:
        allowed = frozenset(t[0] for t in expansion.tuples(unary))
        if allowed != full:
            rules.append(Rule((y_atom(allowed, x),), (Atom(unary, (x,)),)))
    for role, pairs in role_pairs.items():
        forward, backward, loops = images(full, pairs)
        if forward != full:
            rules.append(Rule((y_atom(forward, y),), (Atom(role, (x, y)),)))
        if backward != full:
            rules.append(Rule((y_atom(backward, x),), (Atom(role, (x, y)),)))
        if loops != full:
            rules.append(Rule((y_atom(loops, x),), (Atom(role, (x, x)),)))
        for subset in ordered:
            forward, backward, loops = images(subset, pairs)
            if forward != full:
                rules.append(
                    Rule(
                        (y_atom(forward, y),),
                        (Atom(role, (x, y)), y_atom(subset, x)),
                    )
                )
                rules.append(
                    Rule(
                        (x_atom(forward, y),),
                        (Atom(role, (x, y)), x_atom(subset, x)),
                    )
                )
            if backward != full:
                rules.append(
                    Rule(
                        (y_atom(backward, x),),
                        (Atom(role, (x, y)), y_atom(subset, y)),
                    )
                )
                rules.append(
                    Rule(
                        (x_atom(backward, x),),
                        (Atom(role, (x, y)), x_atom(subset, y)),
                    )
                )
            if loops != full:
                rules.append(
                    Rule(
                        (y_atom(loops, x),),
                        (Atom(role, (x, x)), y_atom(subset, x)),
                    )
                )
                rules.append(
                    Rule(
                        (x_atom(loops, x),),
                        (Atom(role, (x, x)), x_atom(subset, x)),
                    )
                )
    # -- meets: Y∧Y stays mark-free, X∧Y and X∧X stay parameterized.  An
    # X∧Y meet is emitted whenever it sharpens the X side (even when it
    # equals the Y set): the run's *own* restriction must carry the met set
    # forward, because the image of a meet can be strictly smaller than the
    # meet of the images.
    for first, second in itertools.combinations(ordered, 2):
        meet = first & second
        if meet != first and meet != second:
            rules.append(
                Rule((y_atom(meet, x),), (y_atom(first, x), y_atom(second, x)))
            )
            rules.append(
                Rule((x_atom(meet, x),), (x_atom(first, x), x_atom(second, x)))
            )
        if meet != first:
            rules.append(
                Rule((x_atom(meet, x),), (x_atom(first, x), y_atom(second, x)))
            )
        if meet != second:
            rules.append(
                Rule((x_atom(meet, x),), (x_atom(second, x), y_atom(first, x)))
            )
    # -- mark seeding ----------------------------------------------------------
    for index, mark in enumerate(marks):
        allowed = frozenset(t[0] for t in expansion.tuples(mark))
        if allowed != full:
            rules.append(Rule((x_atom(allowed, params[index]),), param_atoms))
    # -- failure: an empty image set anywhere fires this template's goal -------
    empty = frozenset()
    failure_atom: Atom | None = None
    if empty in reachable:
        rules.append(Rule((Atom(goal, params),), (x_atom(empty, x),)))
        rules.append(
            Rule((Atom(goal, params),), (y_atom(empty, x),) + param_atoms)
        )
        failure_atom = y_atom(empty, x)
    # When the empty set is unreachable in the lattice, AC can never fail:
    # this template admits every run, so its goal derives nothing.
    return rules, failure_atom


def _canonical_datalog_rewriting(
    pruned: Sequence[tuple[Instance, tuple[RelationSymbol, ...]]],
    arity: int,
    budget: SemanticBudget,
    deadline: _Deadline,
) -> DisjunctiveDatalogProgram:
    """Combine the per-template canonical programs (Lemma 5.14 closure).

    A tuple is certain iff its run fails for *every* pruned template, so
    the shared ``goal`` conjoins the per-template goals.  The combined
    program additionally carries one *constraint* rule — "every template's
    unmarked AC failed" — which is exactly the no-model condition the
    serving sessions probe through ``is_consistent`` (and the sharded
    merge escalates on); it is omitted, conservatively, when some template
    can never fail, and the consistency half of the cross-validation hook
    arbitrates.
    """
    goal = RelationSymbol(GOAL, arity)
    params = tuple(Variable(f"a{i}") for i in range(arity))
    param_atoms = tuple(Atom(RelationSymbol(ADOM, 1), (p,)) for p in params)
    combined: list[Rule] = []
    template_goals: list[Atom] = []
    failure_atoms: list[Atom] = []
    all_can_fail = True
    for index, (expansion, marks) in enumerate(pruned):
        deadline.check("canonical program construction")
        size = len(expansion.active_domain)
        if size > budget.max_canonical_elements:
            raise BudgetExceeded(
                f"the canonical program over a {size}-element template "
                f"exceeds the {budget.max_canonical_elements}-element budget"
            )
        if any(
            symbol.arity > 2
            for symbol in expansion.schema
            if symbol.name not in {s.name for s in marks}
        ):
            raise _Inapplicable(
                "the canonical arc-consistency construction covers unary "
                "and binary data relations only"
            )
        template_goal = RelationSymbol(f"ACGOAL{index}", arity)
        rules, failure = _parameterized_canonical_program(
            expansion, marks, arity, index, template_goal
        )
        combined.extend(rules)
        template_goals.append(Atom(template_goal, params))
        if failure is None:
            all_can_fail = False
        else:
            failure_atoms.append(failure)
    if all(
        any(rule.head and rule.head[0].relation == atom.relation for rule in combined)
        for atom in template_goals
    ):
        combined.append(Rule((Atom(goal, params),), tuple(template_goals)))
    # else: some template's goal is underivable — no tuple is ever certain,
    # and the goal-rule-free program correctly derives nothing.
    if all_can_fail and failure_atoms:
        # Rename the per-template failure variables apart: the constraint
        # body is a conjunction of independent unary failure atoms.
        constraint_body = tuple(
            Atom(atom.relation, (Variable(f"w{index}"),) + atom.arguments[1:])
            for index, atom in enumerate(failure_atoms)
        )
        combined.append(Rule((), constraint_body))
    return DisjunctiveDatalogProgram(combined, goal_relation=goal)


# ---------------------------------------------------------------------------
# The soundness cross-validation hook
# ---------------------------------------------------------------------------


def _validation_family(schema, budget: SemanticBudget):
    """The deterministic stratified instance family ``cross_validate`` runs.

    Two groups of strata, sharing ``budget.max_validation_instances``:

    * the **base** group (2/3 of the budget): fact counts
      ``0..validation_facts`` over a ``validation_elements`` domain;
    * the **escalation** group (the rest): fact counts
      ``1..validation_facts + 1`` over one more element — one step past
      the largest obstruction bound, where an incomplete obstruction set
      has its smallest missing witnesses.

    Budget is allotted per fact count in ascending order, exhausting small
    strata completely and stride-sampling oversized ones across their full
    lexicographic range (a plain prefix cap would silently drop the
    late-enumerated shapes — all-role triangles and their kin — that the
    family exists to contain).
    """

    def strata(domain, sizes, cap):
        possible = [
            Fact(symbol, args)
            for symbol in schema
            for args in itertools.product(domain, repeat=symbol.arity)
        ]
        remaining_cap = cap
        sizes = [k for k in sizes if k <= len(possible)]
        for position, size in enumerate(sizes):
            if remaining_cap <= 0:
                return
            allotment = max(1, remaining_cap // (len(sizes) - position))
            total = math.comb(len(possible), size)
            stride = max(1, -(-total // allotment))
            taken = 0
            for combination in itertools.islice(
                itertools.combinations(possible, size), 0, None, stride
            ):
                yield Instance(combination, schema=schema)
                taken += 1
            remaining_cap -= taken

    base_cap = (2 * budget.max_validation_instances) // 3
    base_domain = [f"e{i}" for i in range(budget.validation_elements)]
    yield from strata(base_domain, range(budget.validation_facts + 1), base_cap)
    extra_cap = budget.max_validation_instances - base_cap
    extra_domain = [f"e{i}" for i in range(budget.validation_elements + 1)]
    yield from strata(
        extra_domain, range(1, budget.validation_facts + 2), extra_cap
    )


def cross_validate(
    program: DisjunctiveDatalogProgram,
    candidate_plan,
    budget: SemanticBudget = DEFAULT_BUDGET,
    deadline: _Deadline | None = None,
) -> int:
    """Certify a constructed rewriting against the ground+CDCL engine.

    Enumerates a deterministic stratified family of instances over the
    program's EDB schema — per fact count, exhaustive when a stratum fits
    the budget and stride-sampled across the whole stratum otherwise (so
    late-enumerated shapes like all-role triangles are represented), plus
    an escalation stratum with one more element and one more fact than the
    base bounds, which probes *past* the largest obstruction bound (an
    obstruction set that is complete only up to its own bound has its
    smallest missing witnesses there).  On each instance the candidate
    plan is compared against the forced tier-2 behaviour of the original
    program on **both** observable surfaces:

    * the certain answers, and
    * the consistency verdict (does any model extend the data?) — what
      sessions expose as ``is_consistent`` and what the sharded merge
      escalates on, served by the constructed constraint artifacts.

    The schema is extended by one *foreign* unary relation the program
    never mentions, so the family also probes elements that reach the
    active domain (and hence the guess rule and the candidate space)
    without carrying any program-visible fact.  Returns the number of
    instances checked; raises ``ValueError`` on the first divergence.
    The family is a certificate within its bounds, not a proof — sessions
    and tests can call this with their own plans (and budgets) to
    re-certify a routed rewriting at any scale.
    """
    from ..engine.grounder import ground_program
    from .execute import (
        execute_plan,
        fixpoint_certain_answers,
        fixpoint_program,
        plan_consistent,
    )
    from .plan import TIER_FIXPOINT

    schema = program.edb_schema().union(
        [RelationSymbol("Foreign__probe", 1)]
    )
    checked = 0
    for data in _validation_family(schema, budget):
        if deadline is not None and checked % 16 == 0:
            deadline.check("cross-validation")
        # One grounding serves both reference surfaces, and on tier 1 one
        # fixpoint serves both of the candidate's.
        reference = ground_program(program, data)
        expected = reference.certain_answers()
        model = None
        if candidate_plan.tier == TIER_FIXPOINT:
            model = fixpoint_program(candidate_plan).least_fixpoint(data)
            got = fixpoint_certain_answers(candidate_plan, data, model)
        else:
            got = execute_plan(candidate_plan, data)
        if got != expected:
            raise ValueError(
                f"rewriting diverges from ground+CDCL on {data!r}: "
                f"{sorted(got, key=repr)} != {sorted(expected, key=repr)}"
            )
        if candidate_plan.skips_sat:
            consistent = plan_consistent(candidate_plan, data, model)
            reference_consistent = reference.has_model_avoiding([])
            if consistent != reference_consistent:
                raise ValueError(
                    "constructed consistency test diverges from the solver "
                    f"on {data!r}: {consistent} != {reference_consistent}"
                )
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# The semantic stage proper
# ---------------------------------------------------------------------------


def analyse_rewritability(
    program: DisjunctiveDatalogProgram,
    budget: SemanticBudget = DEFAULT_BUDGET,
):
    """Attempt to route a syntactic tier-2 program off SAT, constructively.

    Returns a :class:`repro.planner.plan.QueryPlan` — tier 0 carrying an
    obstruction-set UCQ, tier 1 carrying a canonical datalog program, or
    tier 2 with a :class:`SemanticReport` explaining why the program stays
    on the ground+CDCL engine (inapplicable, budget exceeded, genuinely
    unrewritable, or failed cross-validation).

    With telemetry enabled the analysis runs under a
    ``planner.semantic.analyse`` span annotated with the outcome and the
    fraction of the wall-clock budget consumed; the per-phase timings land
    in the ``planner.semantic.phase.*`` histograms (see :class:`_Deadline`).
    """
    tel = _telemetry.ACTIVE
    if tel is None:
        return _analyse_rewritability(program, budget)
    with tel.span(
        "planner.semantic.analyse", time_budget_s=budget.time_budget_s
    ) as handle:
        plan = _analyse_rewritability(program, budget)
        report = plan.semantic
        if report is not None:
            handle.set(
                tier=plan.tier,
                applicable=report.applicable,
                rewriting=report.rewriting,
                elapsed_s=report.elapsed_s,
                budget_consumed=(
                    report.elapsed_s / budget.time_budget_s
                    if budget.time_budget_s
                    else None
                ),
                transient=report.transient,
            )
        return plan


def _analyse_rewritability(
    program: DisjunctiveDatalogProgram,
    budget: SemanticBudget,
):
    from ..core.homomorphism import core as core_of
    from ..csp.canonical_datalog import has_tree_duality
    from ..csp.duality import is_fo_definable_csp
    from ..csp.polymorphisms import has_bounded_width_certificate
    from .plan import QueryPlan, TIER_FIXPOINT, TIER_REWRITE, plan_program
    from .policy import PlanPolicy

    syntactic = plan_program(program, PlanPolicy(semantic=False))
    deadline = _Deadline(budget.time_budget_s)

    def stay(rationale: str, applicable: bool = False, **fields) -> QueryPlan:
        report = SemanticReport(
            applicable=applicable,
            rationale=rationale,
            elapsed_s=deadline.elapsed,
            **fields,
        )
        return replace(syntactic, semantic=report)

    try:
        deadline.check("applicability analysis")
        family = _templates_for(program, budget, deadline)
        pruned = _prune_expansions(family, deadline)
        sizes = tuple(len(e.active_domain) for e, _ in pruned)

        fo = True
        for expansion, _marks in pruned:
            deadline.check("FO-rewritability test")
            if not is_fo_definable_csp(expansion):
                fo = False
                break
        if fo:
            validation_failure: str | None = None
            for bound in budget.obstruction_bounds:
                deadline.check("obstruction-set construction")
                constructed = _obstruction_ucq_at(
                    pruned, family.unmarked, family.arity, bound, budget, deadline
                )
                if constructed is None:
                    continue  # some template had no obstruction: larger bound
                unfolding, obstructions = constructed
                candidate = replace(
                    syntactic,
                    tier=TIER_REWRITE,
                    rationale="semantic routing (Theorem 5.10 via finite duality): "
                    "FO-rewritable; obstruction-set UCQ with "
                    f"{len(unfolding.goal_disjuncts)} disjunct(s) over "
                    f"{len(pruned)} template(s) runs on the tier-0 executor",
                    unfolding=unfolding,
                )
                try:
                    validated = cross_validate(program, candidate, budget, deadline)
                except ValueError as error:
                    # Incomplete set at this bound (the UCQ misses answers);
                    # a larger bound may complete it.
                    validation_failure = str(error)
                    continue
                report = SemanticReport(
                    applicable=True,
                    rationale="FO-rewritable (finite duality of every pruned "
                    "template expansion); serving the obstruction-set UCQ "
                    f"(obstructions bounded by {bound})",
                    route=family.route,
                    fo_rewritable=True,
                    datalog_rewritable=True,
                    rewriting="obstruction-ucq",
                    templates=len(pruned),
                    template_elements=sizes,
                    obstructions=obstructions,
                    validated_instances=validated,
                    elapsed_s=deadline.elapsed,
                )
                return replace(candidate, semantic=report)
            if validation_failure is not None:
                return stay(
                    "obstruction UCQ failed cross-validation at every bound "
                    f"in {budget.obstruction_bounds} (the bounded set is "
                    f"incomplete): {validation_failure}",
                    applicable=True,
                    route=family.route,
                    fo_rewritable=True,
                    templates=len(pruned),
                    template_elements=sizes,
                )

        # Datalog rewritability: bounded width of every pruned core decides
        # (Theorem 5.10); tree duality (width 1, Feder–Vardi) additionally
        # gates the *construction* — the canonical arc-consistency program
        # is a complete rewriting exactly for tree-duality templates, and
        # K2-style bounded-width-2 templates must not be served by it.
        datalog = True
        width_one = True
        for expansion, _marks in pruned:
            deadline.check("bounded-width certificate")
            kernel = core_of(expansion)
            if not kernel.active_domain:
                continue
            if len(kernel.active_domain) > budget.max_width_elements:
                raise BudgetExceeded(
                    f"a {len(kernel.active_domain)}-element core exceeds the "
                    f"{budget.max_width_elements}-element bounded-width budget"
                )
            if not has_bounded_width_certificate(kernel):
                datalog = False
                break
            if width_one:
                # The tree-duality test searches a homomorphism from the
                # 2^n−1-element power structure; gate it at the canonical
                # construction's own bound (whose lattice is the same
                # 2^n object) so the power structure stays ≤ 31 elements.
                if len(kernel.active_domain) > budget.max_canonical_elements:
                    raise BudgetExceeded(
                        f"the tree-duality test over a "
                        f"{len(kernel.active_domain)}-element core exceeds "
                        f"the {budget.max_canonical_elements}-element budget"
                    )
                deadline.check("tree-duality test")
                if not has_tree_duality(kernel, assume_core=True):
                    width_one = False
        if datalog and not width_one:
            report = SemanticReport(
                applicable=True,
                rationale="datalog-rewritable (bounded width) but past width "
                "1: the constructible arc-consistency rewriting would be "
                "incomplete (no tree duality), and the canonical "
                "(k, k+1)-programs are not materialized; staying on "
                "ground+CDCL",
                route=family.route,
                fo_rewritable=fo,
                datalog_rewritable=True,
                templates=len(pruned),
                template_elements=sizes,
                elapsed_s=deadline.elapsed,
            )
            return replace(syntactic, semantic=report)
        if datalog:
            deadline.check("canonical program construction")
            rewritten = _canonical_datalog_rewriting(
                pruned, family.arity, budget, deadline
            )
            candidate = replace(
                syntactic,
                tier=TIER_FIXPOINT,
                rationale="semantic routing (Theorem 5.10 via bounded width): "
                "datalog-rewritable; the canonical arc-consistency program "
                f"({len(rewritten.rules)} rules over {len(pruned)} "
                "template(s)) runs on the tier-1 fixpoint",
                rewritten=rewritten,
            )
            try:
                validated = cross_validate(program, candidate, budget, deadline)
            except ValueError as error:
                return stay(
                    "canonical datalog program failed cross-validation "
                    f"(arc consistency is complete for width 1 only): {error}",
                    applicable=True,
                    route=family.route,
                    fo_rewritable=fo,
                    datalog_rewritable=True,
                    templates=len(pruned),
                    template_elements=sizes,
                )
            report = SemanticReport(
                applicable=True,
                rationale="datalog-rewritable (bounded-width certificate on "
                "every pruned core); serving the canonical datalog program",
                route=family.route,
                fo_rewritable=fo,
                datalog_rewritable=True,
                rewriting="canonical-datalog",
                templates=len(pruned),
                template_elements=sizes,
                validated_instances=validated,
                elapsed_s=deadline.elapsed,
            )
            return replace(candidate, semantic=report)

        report = SemanticReport(
            applicable=True,
            rationale="semantically confirmed disjunctive: neither FO- nor "
            "datalog-rewritable (no finite duality, no bounded-width "
            "certificate); the ground+CDCL tier is required",
            route=family.route,
            fo_rewritable=fo,
            datalog_rewritable=False,
            templates=len(pruned),
            template_elements=sizes,
            elapsed_s=deadline.elapsed,
        )
        return replace(syntactic, semantic=report)
    except DeadlineExceeded as limit:
        return stay(
            f"semantic budget exceeded: {limit}; staying on ground+CDCL",
            transient=True,
        )
    except BudgetExceeded as limit:
        return stay(f"semantic budget exceeded: {limit}; staying on ground+CDCL")
    except _Inapplicable as reason:
        return stay(f"semantic analysis inapplicable: {reason}")
