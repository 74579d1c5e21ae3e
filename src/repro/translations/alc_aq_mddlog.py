"""Theorem 3.4: (ALC, AQ) ≡ unary connected simple MDDlog.

* :func:`alc_aq_to_mddlog` — the exponential translation from an (ALC, AQ)
  ontology-mediated query to an equivalent unary connected simple MDDlog
  program.  Following the proof, the program guesses a good type for every
  data element (one IDB predicate per type), rejects type assignments that
  are incompatible with asserted facts or role edges, and fires the goal on
  elements whose type contains the query concept.
* :func:`mddlog_to_alc_aq` — the converse linear translation turning every
  unary connected simple MDDlog program into an (ALC, AQ) query by reading
  each rule as a concept inclusion.
"""

from __future__ import annotations

import itertools

from ..core.cq import Atom, ConjunctiveQuery, Variable, atomic_query
from ..core.schema import RelationSymbol, Schema
from ..datalog.ddlog import ADOM, DisjunctiveDatalogProgram, Rule, adom_atom, goal_atom
from ..dl.concepts import (
    And,
    Bottom,
    Concept,
    ConceptName,
    Exists,
    Not,
    Role,
    Top,
    big_and,
    big_or,
)
from ..dl.ontology import ConceptInclusion, Ontology
from ..dl.reasoner import TypeSystem
from ..omq.query import OntologyMediatedQuery


def _type_predicate(index: int) -> RelationSymbol:
    return RelationSymbol(f"T{index}", 1)


def alc_aq_to_mddlog(omq: OntologyMediatedQuery) -> DisjunctiveDatalogProgram:
    """Translate an (ALC(H), AQ) or (ALC(H), BAQ) query into an equivalent
    unary connected simple MDDlog program (Theorem 3.4 / 3.13)."""
    if not (omq.is_atomic() or omq.is_boolean_atomic()):
        raise ValueError("Theorem 3.4 applies to atomic queries")
    query_atom = next(iter(omq.ucq().disjuncts[0].atoms))
    query_concept = ConceptName(query_atom.relation.name)
    data_schema = omq.data_schema

    system = TypeSystem(
        omq.ontology,
        extra_concepts=[query_concept]
        + [ConceptName(s.name) for s in data_schema.concept_names],
    )
    good_types = system.good_types()
    predicates = {t: _type_predicate(i) for i, t in enumerate(good_types)}
    x, y = Variable("x"), Variable("y")
    rules: list[Rule] = []

    # Guess one type per element.
    rules.append(
        Rule(
            tuple(Atom(predicates[t], (x,)) for t in good_types),
            (adom_atom(x),),
        )
    )
    # Concept assertions restrict the guessed type.
    for symbol in data_schema.concept_names:
        name = ConceptName(symbol.name)
        if name not in system.closure:
            continue
        for t in good_types:
            if name not in t:
                rules.append(
                    Rule((), (Atom(predicates[t], (x,)), Atom(symbol, (x,))))
                )
    # Role assertions restrict pairs of guessed types.
    type_ids = [(t, system.type_id(t)) for t in good_types]
    for symbol in data_schema.role_names:
        rows = system.compatibility_rows(Role(symbol.name))
        for (source, i), (target, j) in itertools.product(type_ids, repeat=2):
            if not rows[i] >> j & 1:
                rules.append(
                    Rule(
                        (),
                        (
                            Atom(predicates[source], (x,)),
                            Atom(symbol, (x, y)),
                            Atom(predicates[target], (y,)),
                        ),
                    )
                )
    # Goal: the query concept is contained in the guessed type.
    for t in good_types:
        if query_concept in t:
            head = goal_atom(x) if omq.is_atomic() else goal_atom()
            rules.append(Rule((head,), (Atom(predicates[t], (x,)),)))
    return DisjunctiveDatalogProgram(rules)


def mddlog_to_alc_aq(program: DisjunctiveDatalogProgram) -> OntologyMediatedQuery:
    """Translate a unary (or Boolean) connected simple MDDlog program into an
    equivalent (ALC, AQ) / (ALC, BAQ) query (Theorem 3.4 (2) and 3.13)."""
    if not program.is_monadic():
        raise ValueError("the program must be an MDDlog program")
    if not program.is_simple() or not program.is_connected():
        raise ValueError("the program must be connected and simple")
    if program.arity not in (0, 1):
        raise ValueError("the goal relation must be unary or Boolean")

    goal_name = "goal"
    axioms: list[ConceptInclusion] = []
    edb = program.edb_relations
    for rule in program.rules:
        axioms.append(_rule_to_inclusion(rule, edb, goal_name))

    ontology = Ontology(axioms)
    schema = Schema(edb)
    query = atomic_query(goal_name) if program.arity == 1 else _boolean_goal_query(goal_name)
    return OntologyMediatedQuery(ontology=ontology, query=query, data_schema=schema)


def _boolean_goal_query(goal_name: str) -> ConjunctiveQuery:
    from ..core.cq import boolean_atomic_query

    return boolean_atomic_query(goal_name)


def _rule_to_inclusion(
    rule: Rule, edb: frozenset[RelationSymbol], goal_name: str
) -> ConceptInclusion:
    """Encode one connected simple MDDlog rule as an ALC concept inclusion.

    The body of a connected simple rule uses at most one EDB atom.  When that
    atom is binary, the rule speaks about an element ``x`` and an ``R``-successor
    ``y``; otherwise about a single element.  The inclusion states that the
    body concepts at ``x`` together with an ``R``-successor satisfying the body
    concepts at ``y`` and none of the head concepts at ``y`` imply one of the
    head concepts at ``x`` (⊥ when there are none).
    """
    binary_atoms = [a for a in rule.body if a.relation.arity == 2]
    if len(binary_atoms) > 1:
        raise ValueError("simple rules have at most one binary atom")

    def concepts_at(variable, atoms) -> list[Concept]:
        result = []
        for atom in atoms:
            if atom.relation.arity == 1 and atom.arguments == (variable,):
                name = atom.relation.name
                result.append(ConceptName(goal_name if name == "goal" else name))
        return result

    # A Boolean goal head (``goal()``) is encoded as the goal concept becoming
    # true at the rule's anchor element (Theorem 3.13).
    has_boolean_goal = any(
        atom.relation.name == "goal" and atom.relation.arity == 0
        for atom in rule.head
    )

    if binary_atoms:
        binary = binary_atoms[0]
        source, target = binary.arguments
        role = Role(binary.relation.name)
        body_source = concepts_at(source, [a for a in rule.body if a.relation.name != ADOM])
        body_target = concepts_at(target, [a for a in rule.body if a.relation.name != ADOM])
        head_source = concepts_at(source, rule.head)
        head_target = concepts_at(target, rule.head)
        if not isinstance(source, Variable) or not isinstance(target, Variable):
            raise ValueError("rules must not contain constants")
        successor = big_and(body_target) if body_target else Top()
        if head_target:
            successor = And(successor, Not(big_or(head_target)))
        lhs_parts = list(body_source) + [Exists(role, successor)]
        lhs = big_and(lhs_parts)
        if has_boolean_goal:
            head_source.append(ConceptName(goal_name))
        rhs = big_or(head_source) if head_source else Bottom()
        return ConceptInclusion(lhs, rhs)

    # Single-variable rule: all atoms talk about the same element.
    variables = sorted(rule.variables, key=str)
    variable = variables[0] if variables else Variable("x")
    body = concepts_at(variable, [a for a in rule.body if a.relation.name != ADOM])
    head = concepts_at(variable, rule.head)
    if has_boolean_goal:
        head.append(ConceptName(goal_name))
    lhs = big_and(body) if body else Top()
    rhs = big_or(head) if head else Bottom()
    return ConceptInclusion(lhs, rhs)
