"""Theorem 3.3: (ALC, UCQ) ≡ MDDlog.

* :func:`alc_ucq_to_mddlog` — the exponential translation from an (ALC(H), UCQ)
  ontology-mediated query to an equivalent MDDlog program.  As in the paper's
  proof, the program guesses, for every data element, a label describing the
  forest extension around it — a good type together with the set of
  tree-shaped subqueries the attached tree satisfies — rejects incoherent
  guesses, and derives the goal whenever the guessed labels force a match of
  the UCQ.  The labels are exactly the pairs computed by
  :class:`repro.omq.forest.ForestAbstraction`; auxiliary monadic IDB
  predicates record which query concept names and tree requirements a label
  satisfies, which keeps the goal rules compact without leaving MDDlog.
* :func:`mddlog_to_alc_ucq` — the converse polynomial translation (Theorem 3.3
  (2)): IDB relations become concept names ``A`` with complements ``Ā``, the
  ontology forces each element into exactly one of the two, and the UCQ
  collects goal-rule bodies plus the complements of non-goal rules.
"""

from __future__ import annotations

import itertools

from ..core.cq import (
    Atom,
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    Variable,
    as_ucq,
)
from ..core.schema import RelationSymbol, Schema
from ..datalog.ddlog import ADOM, DisjunctiveDatalogProgram, Rule, adom_atom, goal_atom
from ..dl.concepts import And, ConceptName, Not, Or, Role, Top
from ..dl.ontology import ConceptInclusion, Ontology
from ..omq.forest import ForestAbstraction, QuerySplit
from ..omq.query import OntologyMediatedQuery


def _label_predicate(index: int) -> RelationSymbol:
    return RelationSymbol(f"L{index}", 1)


def _name_predicate(name: str) -> RelationSymbol:
    return RelationSymbol(f"SatName_{name}", 1)


def _requirement_predicate(index: int) -> RelationSymbol:
    return RelationSymbol(f"SatReq_{index}", 1)


def alc_ucq_to_mddlog(omq: OntologyMediatedQuery) -> DisjunctiveDatalogProgram:
    """Translate an (ALC(H), UCQ) query into an equivalent MDDlog program."""
    ucq = omq.ucq()
    abstraction = ForestAbstraction(omq.ontology, ucq)
    system = abstraction.system
    labels = abstraction.labelled_types()
    predicates = {label: _label_predicate(i) for i, label in enumerate(labels)}
    data_schema = omq.data_schema
    relevant_names = sorted(
        {
            atom.relation.name
            for disjunct in ucq.disjuncts
            for atom in disjunct.atoms
            if atom.relation.arity == 1
            and ConceptName(atom.relation.name) in system.closure
        }
    )
    requirement_index = {req: i for i, req in enumerate(abstraction.requirements)}

    x, y = Variable("x"), Variable("y")
    # Atoms are frozen, so each one is built once and shared by every rule
    # that mentions it: the constraints below reuse a few hundred atoms.
    at_x = {label: Atom(predicates[label], (x,)) for label in labels}
    rules: list[Rule] = []
    # One label per element.
    rules.append(Rule(tuple(at_x[l] for l in labels), (adom_atom(x),)))
    # Asserted concept names must belong to the guessed type.
    for symbol in data_schema.concept_names:
        name = ConceptName(symbol.name)
        if name not in system.closure:
            continue
        asserted = Atom(symbol, (x,))
        for label in labels:
            if name not in label[0]:
                rules.append(Rule((), (at_x[label], asserted)))
    # Role edges must connect compatible types.
    label_ids = [(label, system.type_id(label[0])) for label in labels]
    at_y = {label: Atom(predicates[label], (y,)) for label in labels}
    for symbol in data_schema.role_names:
        rows = system.compatibility_rows(Role(symbol.name))
        edge = Atom(symbol, (x, y))
        for (source, i), (target, j) in itertools.product(label_ids, repeat=2):
            if not rows[i] >> j & 1:
                rules.append(Rule((), (at_x[source], edge, at_y[target])))
    # Auxiliary predicates: which labels satisfy which query names / requirements.
    for name in relevant_names:
        satisfied = Atom(_name_predicate(name), (x,))
        for label in labels:
            if ConceptName(name) in label[0]:
                rules.append(Rule((satisfied,), (at_x[label],)))
    for requirement, index in requirement_index.items():
        satisfied = Atom(_requirement_predicate(index), (x,))
        for label in labels:
            if requirement in label[1]:
                rules.append(Rule((satisfied,), (at_x[label],)))
    # Goal rules: one per split (and per sub-role choice for hierarchy atoms).
    arity = ucq.arity
    super_roles = {
        symbol.name: {
            r.name
            for r in omq.ontology.super_roles(Role(symbol.name))
            if not r.is_universal()
        }
        for symbol in data_schema.role_names
    }
    relevant_set = set(relevant_names)
    for index in range(len(ucq.disjuncts)):
        for split in abstraction.splits[index]:
            rules.extend(
                _goal_rules_for_split(
                    split, relevant_set, requirement_index, super_roles, arity
                )
            )
    return DisjunctiveDatalogProgram(rules)


def _goal_rules_for_split(
    split: QuerySplit,
    relevant_names: set[str],
    requirement_index: dict,
    super_roles: dict[str, set[str]],
    arity: int,
) -> list[Rule]:
    """Goal rules asserting that a particular split of a disjunct matches."""
    body: list[Atom] = []
    for name, variable in split.core_unary:
        if name in relevant_names:
            body.append(Atom(_name_predicate(name), (variable,)))
        else:
            body.append(Atom(RelationSymbol(name, 1), (variable,)))
    for anchor, requirement in split.attached:
        body.append(
            Atom(_requirement_predicate(requirement_index[requirement]), (anchor,))
        )
    for position, requirement in enumerate(split.floating):
        body.append(
            Atom(
                _requirement_predicate(requirement_index[requirement]),
                (Variable(f"__float{position}"),),
            )
        )
    # Role atoms between core variables: a super-role atom is witnessed by any
    # asserted sub-role edge, so emit one rule per choice of sub-role.
    role_options: list[list[Atom]] = []
    for name, source, target in split.core_binary:
        subs = [sub for sub, supers in super_roles.items() if name in supers] or [name]
        role_options.append(
            [Atom(RelationSymbol(sub, 2), (source, target)) for sub in subs]
        )
    answer_variables = split.disjunct.answer_variables
    head = (goal_atom(*answer_variables),) if arity else (goal_atom(),)

    rules: list[Rule] = []
    for combination in itertools.product(*role_options) if role_options else [()]:
        full_body = list(body) + list(combination)
        bound = {v for atom in full_body for v in atom.variables}
        for variable in split.core_variables | set(answer_variables):
            if variable not in bound:
                full_body.append(adom_atom(variable))
                bound.add(variable)
        if not full_body:
            full_body.append(adom_atom(Variable("x")))
        rules.append(Rule(head, tuple(full_body)))
    return rules


def mddlog_to_alc_ucq(program: DisjunctiveDatalogProgram) -> OntologyMediatedQuery:
    """Theorem 3.3 (2): translate an MDDlog program into an equivalent
    (ALC, UCQ) ontology-mediated query of linear size."""
    if not program.is_monadic():
        raise ValueError("the program must be an MDDlog program")
    edb = program.edb_relations
    idb_names = sorted(
        {
            symbol.name
            for symbol in program.idb_relations
            if symbol.arity == 1 and symbol.name not in ("goal", ADOM)
        }
    )
    domain_name = "Dom"
    axioms = [ConceptInclusion(Top(), ConceptName(domain_name))]
    for name in idb_names:
        positive = ConceptName(name)
        negative = ConceptName(f"{name}__comp")
        axioms.append(
            ConceptInclusion(
                Top(),
                And(Or(positive, negative), Not(And(positive, negative))),
            )
        )
    ontology = Ontology(axioms)

    arity = program.arity
    answer_variables = tuple(Variable(f"z{i}") for i in range(arity))
    disjuncts: list[ConjunctiveQuery] = []
    for rule in program.goal_rules():
        goal_head = rule.head[0]
        atoms = [_strip_adom(atom) for atom in rule.body]
        substitution = dict(zip(goal_head.arguments, answer_variables))
        atoms = [a.substitute(substitution) for a in atoms]
        atoms += [
            Atom(RelationSymbol(domain_name, 1), (v,)) for v in answer_variables
        ]
        disjuncts.append(ConjunctiveQuery(answer_variables, atoms))
    for rule in program.non_goal_rules():
        atoms = [_strip_adom(atom) for atom in rule.body]
        for head_atom in rule.head:
            atoms.append(
                Atom(
                    RelationSymbol(f"{head_atom.relation.name}__comp", 1),
                    head_atom.arguments,
                )
            )
        atoms += [
            Atom(RelationSymbol(domain_name, 1), (v,)) for v in answer_variables
        ]
        disjuncts.append(ConjunctiveQuery(answer_variables, atoms))
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries"
    if disjuncts:
        query = UnionOfConjunctiveQueries(disjuncts)
    else:
        query = as_ucq(ConjunctiveQuery(answer_variables, []))
    return OntologyMediatedQuery(
        ontology=ontology, query=query, data_schema=Schema(edb)
    )


def _strip_adom(atom: Atom) -> Atom:
    """Replace ``adom(x)`` body atoms by ``Dom(x)`` atoms; keep everything else."""
    if atom.relation.name == ADOM:
        return Atom(RelationSymbol("Dom", 1), atom.arguments)
    return atom
