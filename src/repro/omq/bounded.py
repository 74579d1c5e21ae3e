"""Bounded counter-model search: the reference certain-answer engine.

This engine implements the textbook definition of certain answers directly:
``a ∈ cert_{q,O}(D)`` iff every finite model of ``O`` extending ``D``
satisfies ``q(a)``.  It searches for a counter-model among structures whose
domain extends ``adom(D)`` by at most ``extra_elements`` fresh elements.  The
search grounds the FO translation of the ontology and the negated query over
that finite domain and hands the resulting propositional problem to the small
SAT search in :mod:`repro.fo.grounding` — ground facts are the propositional
variables, the data facts are forced true, and everything else is free.

* A discovered counter-model is always a genuine refutation, so a ``False``
  verdict is sound unconditionally.
* A ``True`` verdict is complete only relative to the bound: it means no
  counter-model with at most ``extra_elements`` fresh elements exists.  For
  the small ontologies and instances used in the tests and benchmarks this is
  exhaustive in practice; the engine is used as an *independent cross-check*
  for the complete type-based engines and as the only engine covering
  ``ALCF`` (functional roles), where certain answering is undecidable in
  general (Theorem 5.8 / 5.17).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..core.instance import Fact, Instance
from ..dl.fo_translation import ontology_to_fo_sentence
from ..engine.sat import TseitinAux, solver_for_clauses, tseitin_clauses, tseitin_encode
from ..fo.grounding import ground, ground_ucq, model_from_assignment, satisfying_assignment
from .query import OntologyMediatedQuery


class BoundedModelEngine:
    """Certain answers via bounded counter-model search (grounding + SAT)."""

    def __init__(self, omq: OntologyMediatedQuery, extra_elements: int = 1):
        self.omq = omq
        self.extra_elements = extra_elements
        self.ucq = omq.ucq()
        self._sentence = ontology_to_fo_sentence(omq.ontology)
        self._functional = sorted(omq.ontology.functional_roles())

    # -- grounding helpers -----------------------------------------------------------

    def _domains(self, instance: Instance) -> list[list]:
        base = sorted(instance.active_domain, key=repr)
        domains = []
        for extra in range(self.extra_elements + 1):
            domains.append(base + [f"__fresh{i}" for i in range(extra)])
        return domains

    def _ontology_constraint(self, domain):
        return ground(self._sentence, domain)

    def _functionality_constraints(self, domain):
        """func(R): no element has two distinct R-successors."""
        from ..core.schema import RelationSymbol

        constraints = []
        for name in self._functional:
            symbol = RelationSymbol(name, 2)
            for source in domain:
                for first, second in itertools.combinations(domain, 2):
                    constraints.append(
                        (
                            "or",
                            (
                                ("lit", Fact(symbol, (source, first)), False),
                                ("lit", Fact(symbol, (source, second)), False),
                            ),
                        )
                    )
        return constraints

    def _forced_facts(self, instance: Instance) -> dict[Fact, bool]:
        return {fact: True for fact in instance}

    # -- counter-model search ---------------------------------------------------------

    def countermodel(self, instance: Instance, answer: Sequence = ()) -> Instance | None:
        """A model of the ontology extending the data in which ``q(answer)`` fails."""
        answer = tuple(answer)
        forced = self._forced_facts(instance)
        for domain in self._domains(instance):
            constraints = [self._ontology_constraint(domain)]
            constraints.extend(self._functionality_constraints(domain))
            constraints.append(ground_ucq(self.ucq, domain, answer, positive=False))
            assignment = satisfying_assignment(constraints, forced)
            if assignment is not None:
                return model_from_assignment(assignment, instance)
        return None

    def some_model(self, instance: Instance) -> Instance | None:
        """Any model of the ontology extending the data within the bound."""
        forced = self._forced_facts(instance)
        for domain in self._domains(instance):
            constraints = [self._ontology_constraint(domain)]
            constraints.extend(self._functionality_constraints(domain))
            assignment = satisfying_assignment(constraints, forced)
            if assignment is not None:
                return model_from_assignment(assignment, instance)
        return None

    # -- certain answers ------------------------------------------------------------------

    def is_certain(self, instance: Instance, answer: Sequence = ()) -> bool:
        answer = tuple(answer)
        if not instance.active_domain:
            return False
        if any(value not in instance.active_domain for value in answer):
            return False
        return self.countermodel(instance, answer) is None

    def certain_answers(self, instance: Instance) -> frozenset[tuple]:
        """All certain answers, grounding the ontology once per domain.

        The ontology, functionality and data constraints are encoded into
        one persistent engine solver per candidate domain; each candidate's
        negated query is then attached behind a fresh activation literal and
        decided with an assumption-based ``solve`` (the incremental-SAT
        pattern), instead of rebuilding the whole propositional problem for
        every ``(candidate, domain)`` pair.
        """
        base = sorted(instance.active_domain, key=repr)
        if not base:
            return frozenset()
        remaining = set(itertools.product(base, repeat=self.ucq.arity))
        for domain in self._domains(instance):
            if not remaining:
                break
            constraints = [self._ontology_constraint(domain)]
            constraints.extend(self._functionality_constraints(domain))
            clauses = tseitin_clauses(constraints)
            if clauses is None:
                continue  # ontology unsatisfiable over this domain
            solver = solver_for_clauses(clauses)
            for fact in instance:
                solver.add_clause((), (fact,))
            if not solver.solve():
                continue  # no model extends the data over this domain
            for index, candidate in enumerate(sorted(remaining, key=repr)):
                encoded = tseitin_encode(
                    [ground_ucq(self.ucq, domain, candidate, positive=False)]
                )
                if encoded is None:
                    continue  # the query holds in every interpretation
                extra, roots = encoded
                if not roots:
                    # negated query is trivially true: the base model above
                    # is already a counter-model
                    remaining.discard(candidate)
                    continue
                guard = TseitinAux(("candidate", index))
                for negative, positive in extra:
                    solver.add_clause(negative, positive)
                for atom, polarity in roots:
                    if polarity:
                        solver.add_clause([guard], [atom])
                    else:
                        solver.add_clause([guard, atom], [])
                if solver.solve(true_atoms=[guard]):
                    remaining.discard(candidate)
        return frozenset(remaining)

    def has_countermodel(self, instance: Instance, answer: Sequence = ()) -> bool:
        """Convenience negation of :meth:`is_certain` (bounded refutation search)."""
        return not self.is_certain(instance, answer)
