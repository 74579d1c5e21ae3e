"""Type-elimination reasoning for the ALC family.

The reasoner implements the classical *type elimination* procedure that also
underlies the proofs of Theorems 3.3 and 3.4: a *type* is a truth assignment
to the subconcepts of the ontology (closed under negation normal form), a type
is *good* if it can be realised at the root of a tree-shaped model, and an
ABox (instance) is consistent with the ontology iff its elements can be
labelled with good types compatible with the asserted facts.

Supported natively: ``ALC``, role hierarchies (``H``) and the universal role
(``U``).  Inverse roles and transitive roles are handled by the equivalence
preserving rewritings of :mod:`repro.dl.rewritings` (Theorems 3.6 and 3.11);
functional roles (``ALCF``) are outside the scope of this engine — the paper
uses them for negative results — and are served by the bounded-model search in
:mod:`repro.omq.bounded`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ..core.homomorphism import HomomorphismSearch
from ..core.instance import Fact, Instance
from ..core.schema import RelationSymbol, Schema
from .concepts import (
    And,
    Bottom,
    Concept,
    ConceptName,
    Exists,
    Forall,
    Not,
    Or,
    Role,
    Top,
)
from .ontology import Ontology

Element = Hashable
Type = frozenset  # frozenset of closure concepts that are true

#: Unary relation holding at every data element and every template type, so
#: that elements and types without other facts still take part in a search.
_DOMAIN = RelationSymbol("__type_domain", 1)


class UnsupportedOntologyError(ValueError):
    """Raised when the type-elimination reasoner cannot handle the ontology."""


def _check_supported(ontology: Ontology) -> None:
    if ontology.uses_inverse_roles():
        raise UnsupportedOntologyError(
            "inverse roles are not supported natively; apply "
            "repro.dl.rewritings.eliminate_inverse_roles first (Theorem 3.6)"
        )
    if ontology.uses_transitive_roles():
        raise UnsupportedOntologyError(
            "transitive roles are not supported natively; apply "
            "repro.dl.rewritings.eliminate_transitive_roles first (Theorem 3.11)"
        )
    if ontology.uses_functional_roles():
        raise UnsupportedOntologyError(
            "functional roles are not supported by type elimination; use the "
            "bounded-model engine in repro.omq.bounded"
        )


def _bitset(ids: Iterable[int], size: int) -> int:
    """The int with exactly the bits ``ids`` set (``size`` bounds them)."""
    digits = bytearray(b"0" * size)
    for i in ids:
        digits[size - 1 - i] = ord("1")
    return int(digits, 2)


def _truth_masks(decisions: Sequence[Concept]) -> Callable[[Concept], int]:
    """Truth of concepts at all ``2^n`` assignments to ``decisions`` at once.

    A concept's truth is one int mask whose bit ``a`` is its value at
    assignment ``a``, the ``a``-th of ``itertools.product((False, True),
    repeat=n)``: decision ``k`` is true at ``a`` when bit ``n-1-k`` of ``a``
    is set.  A concept name or ∃-restriction that is no decision is false
    everywhere; ¬, ⊓, ⊔ are complement, ``&``, ``|``; and ∀R.C is the
    complement of its dual ∃R.¬C.
    """
    n = len(decisions)
    size = 1 << n
    everything = (1 << size) - 1
    masks: dict[Concept, int] = {}
    for k, decision in enumerate(decisions):
        run = 1 << (n - 1 - k)  # consecutive assignments agreeing on decision k
        mask = ((1 << run) - 1) << run
        period = 2 * run
        while period < size:
            mask |= mask << period
            period *= 2
        masks[decision] = mask

    def truth(concept: Concept) -> int:
        mask = masks.get(concept)
        if mask is not None:
            return mask
        if isinstance(concept, Top):
            mask = everything
        elif isinstance(concept, (Bottom, ConceptName, Exists)):
            mask = 0
        elif isinstance(concept, Not):
            mask = everything & ~truth(concept.operand)
        elif isinstance(concept, And):
            mask = truth(concept.left) & truth(concept.right)
        elif isinstance(concept, Or):
            mask = truth(concept.left) | truth(concept.right)
        elif isinstance(concept, Forall):
            dual = Exists(concept.role, concept.filler.negate())
            mask = everything & ~truth(dual)
        else:
            raise TypeError(f"unknown concept constructor: {concept!r}")
        masks[concept] = mask
        return mask

    return truth


def negation_closure(concepts: Iterable[Concept]) -> frozenset[Concept]:
    """Close a set of NNF concepts under subconcepts and NNF negation."""
    result: set[Concept] = set()
    frontier = [c.nnf() for c in concepts]
    while frontier:
        current = frontier.pop()
        if current in result:
            continue
        result.add(current)
        frontier.extend(current.children())
        negated = current.negate()
        if negated not in result:
            frontier.append(negated)
    return frozenset(result)


class TypeSystem:
    """Types over the closure of an ontology (plus extra tracked concepts).

    A type is represented as the frozenset of closure concepts it makes true.
    Truth of composite concepts is derived from *decision concepts*: concept
    names and existential restrictions.  Universal restrictions are derived via
    their existential duals, which keeps types semantically coherent by
    construction (``∀R.C`` is true exactly when ``∃R.¬C`` is false).

    :meth:`all_types` is enumerated once, by evaluating each closure concept
    once as a truth mask over all decision assignments; a type's position in
    it is its dense id (:meth:`type_id`).  Edge compatibility is kept as one
    int bitset row per source type and role (:meth:`compatibility_rows`),
    built on first use from the closure's ∀/∃ constraints, so
    :meth:`compatible` is one bit read.
    """

    def __init__(self, ontology: Ontology, extra_concepts: Iterable[Concept] = ()):
        _check_supported(ontology)
        self.ontology = ontology
        seeds: list[Concept] = []
        for inclusion in ontology.concept_inclusions():
            seeds.append(inclusion.lhs.nnf())
            seeds.append(inclusion.lhs.negate())
            seeds.append(inclusion.rhs.nnf())
            seeds.append(inclusion.rhs.negate())
        seeds.extend(c.nnf() for c in extra_concepts)
        seeds.extend(c.negate() for c in extra_concepts)
        self.closure = negation_closure(seeds)
        self._axioms = [
            (ci.lhs.nnf(), ci.rhs.nnf()) for ci in ontology.concept_inclusions()
        ]
        self.concept_name_decisions = sorted(
            {c for c in self.closure if isinstance(c, ConceptName)},
            key=str,
        )
        self.existential_decisions = sorted(
            {c for c in self.closure if isinstance(c, Exists)},
            key=str,
        )
        self.u_existentials = [
            c for c in self.existential_decisions if c.role.is_universal()
        ]
        self._types: list[Type] | None = None
        self._ids: dict[Type, int] = {}
        self._members: dict[Concept, int] = {}
        self._rows: dict[Role, list[int]] = {}

    def all_types(self) -> list[Type]:
        """All locally consistent types (axioms respected), in id order: one
        per decision assignment, in :func:`_truth_masks` order, at which
        every axiom holds."""
        if self._types is None:
            decisions = list(self.concept_name_decisions) + list(
                self.existential_decisions
            )
            if len(decisions) > 18:
                raise UnsupportedOntologyError(
                    f"closure too large for exhaustive type enumeration "
                    f"({len(decisions)} decision concepts)"
                )
            truth = _truth_masks(decisions)
            violated = 0
            for lhs, rhs in self._axioms:
                violated |= truth(lhs) & ~truth(rhs)
            kept = truth(Top()) & ~violated
            columns = [(c, truth(c)) for c in self.closure]
            types: list[Type] = [
                frozenset(c for c, mask in columns if mask >> a & 1)
                for a in range(1 << len(decisions))
                if kept >> a & 1
            ]
            self._types = types
            self._ids = {t: i for i, t in enumerate(types)}
            holders: dict[Concept, list[int]] = {}
            for i, t in enumerate(types):
                for concept in t:
                    holders.setdefault(concept, []).append(i)
            self._members = {
                concept: _bitset(ids, len(types)) for concept, ids in holders.items()
            }
        return list(self._types)

    def type_id(self, type_: Type) -> int:
        """The dense id of a type: its position in :meth:`all_types`."""
        if self._types is None:
            self.all_types()
        return self._ids[type_]

    # -- edge compatibility -------------------------------------------------------------

    def super_roles(self, role: Role) -> frozenset[Role]:
        return self.ontology.super_roles(role)

    def compatibility_rows(self, base_role: Role) -> list[int]:
        """Per source type id, the bitset of the target type ids that may label
        an R-successor of it (R = ``base_role``): ``rows[s] >> t & 1``.

        The successor inherits value restrictions along all super-roles of
        ``base_role`` (and the universal role) and must not witness existential
        restrictions that the source type declares false (types are
        semantically exact).
        """
        rows = self._rows.get(base_role)
        if rows is None:
            types = self.all_types()
            supers = self.super_roles(base_role)
            members = self._members
            # (restriction, types satisfying its filler) per relevant ∀ / ∃
            foralls = [
                (c, members.get(c.filler.nnf(), 0))
                for c in self.closure
                if isinstance(c, Forall) and (c.role in supers or c.role.is_universal())
            ]
            exists = [
                (c, members.get(c.filler.nnf(), 0))
                for c in self.closure
                if isinstance(c, Exists) and c.role in supers
            ]
            everything = (1 << len(types)) - 1
            rows = []
            for source in types:
                row = everything
                for concept, fillers in foralls:
                    if concept in source:
                        row &= fillers
                for concept, fillers in exists:
                    if concept not in source:
                        row &= ~fillers
                rows.append(row)
            self._rows[base_role] = rows
        return rows

    def compatible(self, source: Type, target: Type, base_role: Role) -> bool:
        """May ``target`` label an R-successor of ``source`` (R = ``base_role``)?

        One bit of :meth:`compatibility_rows`; both types must come from
        :meth:`all_types`.
        """
        rows = self.compatibility_rows(base_role)
        return bool(rows[self._ids[source]] >> self._ids[target] & 1)

    # -- the Theorem 4.6 type template ----------------------------------------------------

    def type_template(
        self,
        types: Sequence[Type],
        schema: Schema,
        domain: RelationSymbol | None = None,
    ) -> Instance:
        """The template ``B_T`` over ``types`` for ``schema`` (proof of Theorem 4.6).

        Its elements are the types: a unary symbol holds at the types that
        contain the concept name, a binary symbol at the pairs that may label
        the endpoints of such an edge, and ``domain`` at every type.  Without
        ``domain`` a type carrying no fact is no element, which is harmless
        for data whose every element occurs in a fact.
        """
        ids = [self.type_id(t) for t in types]
        facts: list[Fact] = []
        for symbol in schema:
            if symbol == domain:
                facts.extend(Fact(symbol, (t,)) for t in types)
            elif symbol.arity == 1:
                name = ConceptName(symbol.name)
                facts.extend(Fact(symbol, (t,)) for t in types if name in t)
            elif symbol.arity == 2:
                rows = self.compatibility_rows(Role(symbol.name))
                facts.extend(
                    Fact(symbol, (source, target))
                    for source, row in zip(types, (rows[i] for i in ids))
                    for target, j in zip(types, ids)
                    if row >> j & 1
                )
        return Instance(facts, schema=schema)

    def assignment_search(
        self, instance: Instance, types: Sequence[Type]
    ) -> HomomorphismSearch:
        """One reusable search for labellings of ``instance`` with ``types``.

        The source is the data: every element, its asserted closure concept
        names and its role edges; the target is :meth:`type_template` over
        ``types``.  A homomorphism is exactly a labelling that respects the
        asserted concepts and puts compatible types on every edge.  Queries
        narrow it with ``solve(domains=...)`` / ``all(domains=...)``.
        """
        facts = [Fact(_DOMAIN, (e,)) for e in instance.active_domain]
        for fact in instance:
            arity = fact.relation.arity
            if arity == 2 or (
                arity == 1 and ConceptName(fact.relation.name) in self.closure
            ):
                facts.append(fact)
        data = Instance(facts)
        return HomomorphismSearch(data, self.type_template(types, data.schema, _DOMAIN))

    # -- good types (tree realisability) ---------------------------------------------------

    def good_types(self, types: Sequence[Type] | None = None) -> list[Type]:
        """Types realisable at the root of a tree-shaped model (type elimination).

        A type survives if each of its existential restrictions (over ordinary
        roles) has a surviving witness type compatible with it.  Universal-role
        existentials are handled globally by :meth:`globally_coherent_types`.
        """
        alive = list(types if types is not None else self.all_types())
        changed = True
        while changed:
            changed = False
            survivors = []
            for candidate in alive:
                if self._has_witnesses(candidate, alive):
                    survivors.append(candidate)
                else:
                    changed = True
            alive = survivors
        return alive

    def _has_witnesses(self, candidate: Type, alive: Sequence[Type]) -> bool:
        for concept in candidate:
            if not isinstance(concept, Exists) or concept.role.is_universal():
                continue
            witness_found = False
            for witness in alive:
                if concept.filler.nnf() in witness and self.compatible(
                    candidate, witness, concept.role
                ):
                    witness_found = True
                    break
            if not witness_found:
                return False
        return True

    def globally_coherent_families(self) -> Iterator[list[Type]]:
        """Families of good types that agree on the universal role.

        Each yielded family is a maximal set of good types that may jointly
        populate one model: they agree on every ``∃U.C`` / ``∀U.C`` and every
        positively asserted ``∃U.C`` has a witness inside the family.  Without
        the universal role there is a single family: all good types.
        """
        if not self.uses_universal_role():
            yield self.good_types()
            return
        u_decisions = self.u_existentials
        for bits in itertools.product((False, True), repeat=len(u_decisions)):
            valuation = {d: bit for d, bit in zip(u_decisions, bits)}
            candidates = [
                t
                for t in self.all_types()
                if all((d in t) == bit for d, bit in valuation.items())
                and all(
                    d.filler.nnf() not in t
                    for d, bit in valuation.items()
                    if not bit
                )
            ]
            good = self.good_types(candidates)
            # Every ∃U.C asserted true needs a witness type in the family.
            if good and all(
                (not bit) or any(d.filler.nnf() in t for t in good)
                for d, bit in valuation.items()
            ):
                yield good

    def uses_universal_role(self) -> bool:
        return bool(self.u_existentials) or any(
            isinstance(c, Forall) and c.role.is_universal() for c in self.closure
        )


# -- high-level reasoning services ------------------------------------------------------


def concept_satisfiable(concept: Concept, ontology: Ontology) -> bool:
    """Is the concept satisfiable w.r.t. the ontology (in some model of O)?"""
    system = TypeSystem(ontology, extra_concepts=[concept])
    target = concept.nnf()
    return any(
        any(target in t for t in family)
        for family in system.globally_coherent_families()
    )


def concept_subsumed(sub: Concept, sup: Concept, ontology: Ontology) -> bool:
    """Does ``O ⊨ sub ⊑ sup`` hold?"""
    return not concept_satisfiable(And(sub, Not(sup)), ontology)


def ontology_consistent(ontology: Ontology) -> bool:
    """Is the ontology satisfiable at all (has a non-empty model)?"""
    return concept_satisfiable(Top(), ontology)


class AboxTypeAssignment:
    """Search for assignments of good types to the elements of an instance.

    Each globally coherent family of good types gets one reusable
    :meth:`TypeSystem.assignment_search`: a homomorphism from the data into the
    family's Theorem 4.6 type template, solved with the arc-consistency-based
    search of :mod:`repro.core.homomorphism`.  Forced and forbidden concepts
    narrow a query through the search's ``domains``.
    """

    def __init__(
        self,
        ontology: Ontology,
        instance: Instance,
        extra_concepts: Iterable[Concept] = (),
    ) -> None:
        self.ontology = ontology
        self.instance = instance
        extra = list(extra_concepts)
        extra.extend(
            ConceptName(symbol.name)
            for symbol in instance.schema.concept_names
        )
        self.system = TypeSystem(ontology, extra_concepts=extra)
        self._searches = [
            (family, self.system.assignment_search(instance, family))
            for family in self.system.globally_coherent_families()
            if family
        ]

    def _queries(self, forced, forbidden) -> Iterator[tuple[HomomorphismSearch, dict]]:
        """Each family's search with the domains ``forced``/``forbidden`` leave."""
        forced = {k: [c.nnf() for c in v] for k, v in (forced or {}).items()}
        forbidden = {k: [c.nnf() for c in v] for k, v in (forbidden or {}).items()}
        for family, search in self._searches:
            domains = {
                element: [
                    t
                    for t in family
                    if all(c in t for c in forced.get(element, ()))
                    and not any(c in t for c in forbidden.get(element, ()))
                ]
                for element in forced.keys() | forbidden.keys()
            }
            yield search, domains

    # -- public API ------------------------------------------------------------------------

    def assignments(
        self,
        forced: dict[Element, Iterable[Concept]] | None = None,
        forbidden: dict[Element, Iterable[Concept]] | None = None,
    ) -> Iterator[dict[Element, Type]]:
        """Enumerate consistent type assignments.

        ``forced[e]`` lists closure concepts that must be *true* at ``e``;
        ``forbidden[e]`` lists closure concepts that must be *false* at ``e``.
        """
        for search, domains in self._queries(forced, forbidden):
            yield from search.all(domains=domains)

    def exists(self, forced=None, forbidden=None) -> bool:
        return any(
            search.exists(domains=domains)
            for search, domains in self._queries(forced, forbidden)
        )


def instance_consistent(instance: Instance, ontology: Ontology) -> bool:
    """Is the instance (viewed as an ABox under the standard name assumption)
    consistent with the ontology — i.e. extendable to a model of O?"""
    if not instance.active_domain:
        return True
    return AboxTypeAssignment(ontology, instance).exists()
