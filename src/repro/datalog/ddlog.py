"""Disjunctive datalog programs and their syntactic fragments (Section 3).

A DDlog rule has the form ``S1(x1) v ... v Sm(xm) <- R1(y1) & ... & Rn(yn)``
with every head variable occurring in the body.  A program has a selected
``goal`` relation not occurring in rule bodies.  The paper's fragments are
implemented as predicates over programs:

* **MDDlog** — all IDB relations except possibly ``goal`` are monadic;
* **simple** — each rule has at most one EDB atom, with pairwise distinct
  variables;
* **connected** — every rule body is connected;
* **unary / Boolean** — the goal relation is unary / nullary;
* **frontier-guarded** — every head atom has a body atom containing all of
  its variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..core.cq import Atom, Variable
from ..core.schema import RelationSymbol, Schema

GOAL = "goal"
ADOM = "adom"


@dataclass(frozen=True)
class Rule:
    """A disjunctive datalog rule ``head_1 v ... v head_m <- body_1 & ... & body_n``.

    An empty head denotes ``⊥`` (a constraint).  The body must be non-empty and
    contain every head variable.
    """

    head: tuple[Atom, ...]
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("rule bodies must be non-empty")
        if not self.head:
            return  # a constraint has no head variable that could be unsafe
        body_vars = {v for atom in self.body for v in atom.variables}
        for atom in self.head:
            for variable in atom.variables:
                if variable not in body_vars:
                    raise ValueError(
                        f"head variable {variable} does not occur in the body"
                    )

    def __str__(self) -> str:
        head = " v ".join(str(a) for a in self.head) if self.head else "⊥"
        body = " & ".join(str(a) for a in self.body)
        return f"{head} <- {body}"

    @property
    def variables(self) -> frozenset[Variable]:
        result = {v for atom in self.body for v in atom.variables}
        result.update(v for atom in self.head for v in atom.variables)
        return frozenset(result)

    def is_constraint(self) -> bool:
        return not self.head

    def is_goal_rule(self) -> bool:
        return any(atom.relation.name == GOAL for atom in self.head)

    def is_disjunction_free(self) -> bool:
        return len(self.head) <= 1

    def is_connected(self) -> bool:
        """Connectedness of the co-occurrence graph on the rule's body variables."""
        variables = sorted({v for atom in self.body for v in atom.variables}, key=str)
        if len(variables) <= 1:
            return True
        parent = {v: v for v in variables}

        def find(x: Variable) -> Variable:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for atom in self.body:
            atom_vars = list(atom.variables)
            for other in atom_vars[1:]:
                root_a, root_b = find(atom_vars[0]), find(other)
                if root_a != root_b:
                    parent[root_a] = root_b
        roots = {find(v) for v in variables}
        return len(roots) == 1

    def is_frontier_guarded(self) -> bool:
        for head_atom in self.head:
            head_vars = set(head_atom.variables)
            if not any(
                head_vars <= set(body_atom.variables) for body_atom in self.body
            ):
                return False
        return True

    def is_guarded(self) -> bool:
        all_vars = {v for atom in self.body for v in atom.variables}
        return any(set(atom.variables) >= all_vars for atom in self.body)

    def size(self) -> int:
        return sum(2 + len(a.arguments) for a in itertools.chain(self.head, self.body))

    def substitute(self, mapping: Mapping) -> "Rule":
        return Rule(
            tuple(a.substitute(mapping) for a in self.head),
            tuple(a.substitute(mapping) for a in self.body),
        )


class DisjunctiveDatalogProgram:
    """A (negation-free) disjunctive datalog program with a selected goal relation.

    The goal relation may only occur in heads of *goal rules* (rules whose head
    is a single goal atom).  Relations occurring in some head are IDB; all
    others are EDB.  The ``adom`` relation is treated as a built-in IDB
    shorthand for active-domain membership (Section 3).
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        goal_relation: RelationSymbol | None = None,
    ) -> None:
        self.rules: tuple[Rule, ...] = tuple(rules)
        goal_candidates = {
            atom.relation
            for rule in self.rules
            for atom in rule.head
            if atom.relation.name == GOAL
        }
        if goal_relation is None:
            if len(goal_candidates) > 1:
                raise ValueError("ambiguous goal relation arity")
            goal_relation = next(iter(goal_candidates), RelationSymbol(GOAL, 0))
        self.goal_relation = goal_relation
        self._validate()

    def _validate(self) -> None:
        for rule in self.rules:
            for atom in rule.body:
                if atom.relation.name == GOAL:
                    raise ValueError("the goal relation must not occur in rule bodies")
            if len(rule.head) != 1 and any(
                a.relation.name == GOAL for a in rule.head
            ):
                raise ValueError("goal rules must have a single head atom")

    # -- relations -------------------------------------------------------------

    @property
    def idb_relations(self) -> frozenset[RelationSymbol]:
        result = {atom.relation for rule in self.rules for atom in rule.head}
        result.add(self.goal_relation)
        result.add(RelationSymbol(ADOM, 1))
        return frozenset(result)

    @property
    def edb_relations(self) -> frozenset[RelationSymbol]:
        idb_names = {sym.name for sym in self.idb_relations}
        result = set()
        for rule in self.rules:
            for atom in itertools.chain(rule.head, rule.body):
                if atom.relation.name not in idb_names:
                    result.add(atom.relation)
        return frozenset(result)

    def edb_schema(self) -> Schema:
        return Schema(self.edb_relations)

    @property
    def arity(self) -> int:
        return self.goal_relation.arity

    def size(self) -> int:
        return sum(rule.size() for rule in self.rules)

    def __repr__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    # -- fragments (Section 3) ---------------------------------------------------

    def is_monadic(self) -> bool:
        """MDDlog: all IDB relations except goal (and adom) are monadic."""
        for symbol in self.idb_relations:
            if symbol.name in (GOAL, ADOM):
                continue
            if symbol.arity != 1:
                return False
        return True

    def is_disjunction_free(self) -> bool:
        return all(rule.is_disjunction_free() for rule in self.rules)

    def is_connected(self) -> bool:
        return all(rule.is_connected() for rule in self.rules)

    def is_simple(self) -> bool:
        """Each rule has at most one EDB atom, whose variables are pairwise distinct."""
        edb = self.edb_relations
        for rule in self.rules:
            edb_atoms = [a for a in rule.body if a.relation in edb]
            if len(edb_atoms) > 1:
                return False
            for atom in edb_atoms:
                if len(set(atom.arguments)) != len(atom.arguments):
                    return False
        return True

    def is_unary(self) -> bool:
        return self.goal_relation.arity == 1

    def is_boolean(self) -> bool:
        return self.goal_relation.arity == 0

    def is_frontier_guarded(self) -> bool:
        return all(rule.is_frontier_guarded() for rule in self.rules)

    def is_guarded(self) -> bool:
        return all(rule.is_guarded() for rule in self.rules)

    # -- helpers ------------------------------------------------------------------

    def with_rules(self, rules: Iterable[Rule]) -> "DisjunctiveDatalogProgram":
        return DisjunctiveDatalogProgram(
            list(self.rules) + list(rules), goal_relation=self.goal_relation
        )

    def goal_rules(self) -> list[Rule]:
        return [rule for rule in self.rules if rule.is_goal_rule()]

    def non_goal_rules(self) -> list[Rule]:
        return [rule for rule in self.rules if not rule.is_goal_rule()]


def goal_atom(*arguments) -> Atom:
    """Convenience constructor for goal atoms of the matching arity."""
    return Atom(RelationSymbol(GOAL, len(arguments)), tuple(arguments))


def adom_atom(argument) -> Atom:
    """The built-in ``adom(x)`` atom."""
    return Atom(RelationSymbol(ADOM, 1), (argument,))


def mddlog_program(rules: Iterable[Rule]) -> DisjunctiveDatalogProgram:
    """Build a program and assert that it is an MDDlog program."""
    program = DisjunctiveDatalogProgram(rules)
    if not program.is_monadic():
        raise ValueError("program is not monadic")
    return program
