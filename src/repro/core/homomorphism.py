"""Homomorphisms between instances.

Homomorphism existence between relational structures is the computational
backbone of the paper: conjunctive-query evaluation, CSPs (``D -> B``),
forbidden-pattern problems and obstruction sets all reduce to it.

The search maintains generalised arc consistency over the source facts and
backtracks on the smallest-candidate-set element (MAC).  All support queries
go through the target instance's per-relation / per-position indexes
(:meth:`Instance.tuples_with`, :meth:`Instance.position_values`), so a
propagation round touches only the tuples compatible with the current
candidate sets instead of rescanning every tuple of every relation.

:class:`HomomorphismSearch` packages the precomputed data (fact incidence,
base candidate sets) for one (source, target) pair so that callers answering
many queries against the same pair — e.g. the marked-template coCSP queries
of Section 4.2, which re-solve with different fixed marks — pay the set-up
cost once.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Hashable, Iterator, Mapping, Sequence

from .instance import Fact, Instance, MarkedInstance

Element = Hashable
PartialMap = Mapping[Element, Element]
Domains = Mapping[Element, Collection[Element]]


class HomomorphismSearch:
    """Reusable indexed homomorphism search from ``source`` into ``target``.

    Construction precomputes, per source element, the *base* candidate set
    (the target elements surviving unary/positional pruning) and, per
    element, the facts it occurs in (the incidence list driving propagation).
    Each :meth:`solve` / :meth:`all` call then starts from the base sets,
    which is what makes re-solving under different ``fixed`` maps cheap.
    ``domains`` narrows a query further: it maps source elements to the
    target elements they may take, and elements it omits keep their base
    candidates.
    """

    def __init__(self, source: Instance, target: Instance) -> None:
        self.source = source
        self.target = target
        # Per fact: (relation, arguments, first occurrence position per argument).
        # The first-occurrence tuple lets propagation enforce equality of
        # repeated arguments with one comparison per position.
        self._facts: list[tuple] = []
        self._incidence: dict[Element, list[int]] = {
            element: [] for element in source.active_domain
        }
        self._unsatisfiable = False
        for fact in source:
            index = len(self._facts)
            arguments = fact.arguments
            first = tuple(arguments.index(element) for element in arguments)
            self._facts.append((fact.relation, arguments, first))
            for element in set(arguments):
                self._incidence[element].append(index)
            if not target.tuples(fact.relation):
                self._unsatisfiable = True
        self._base: dict[Element, frozenset] = {}
        if not self._unsatisfiable:
            base: dict[Element, set] = {
                element: set(target.active_domain)
                for element in source.active_domain
            }
            for relation, arguments, _first in self._facts:
                for position, element in enumerate(arguments):
                    base[element] &= target.position_values(relation, position)
                    if not base[element]:
                        self._unsatisfiable = True
            # A value without support under the base sets has none under any
            # narrowing of them, so the base is made arc consistent once here
            # and each query re-propagates only from the elements it narrows.
            if not self._unsatisfiable and not self._propagate(
                base, deque(range(len(self._facts)))
            ):
                self._unsatisfiable = True
            self._base = {element: frozenset(cands) for element, cands in base.items()}

    # -- propagation -----------------------------------------------------------

    def _supported_rows(
        self, relation, arguments: tuple, candidates: dict[Element, set]
    ) -> Iterator[tuple]:
        """Target tuples of ``relation`` compatible with the candidate sets.

        Enumerates via the position index of the most constrained argument
        when that is cheaper than scanning the relation's full tuple set.
        """
        pivot = min(range(len(arguments)), key=lambda i: len(candidates[arguments[i]]))
        pivot_candidates = candidates[arguments[pivot]]
        all_rows = self.target.tuples(relation)
        if len(pivot_candidates) < len(all_rows):
            for value in pivot_candidates:
                yield from self.target.tuples_with(relation, pivot, value)
        else:
            yield from all_rows

    def _propagate(
        self, candidates: dict[Element, set], queue: deque[int]
    ) -> bool:
        """Generalised arc consistency restricted to the queued facts.

        Facts incident to any element whose candidate set shrinks are
        re-queued; returns False on wipe-out.
        """
        queued = set(queue)
        while queue:
            index = queue.popleft()
            queued.discard(index)
            relation, arguments, first = self._facts[index]
            if not arguments:
                continue  # nullary facts were checked at construction
            supported: dict[Element, set] = {
                element: set() for element in set(arguments)
            }
            for row in self._supported_rows(relation, arguments, candidates):
                consistent = True
                for position, element in enumerate(arguments):
                    # membership in the candidate set, and equality with the
                    # first occurrence for repeated arguments
                    if row[position] not in candidates[element] or (
                        row[first[position]] != row[position]
                    ):
                        consistent = False
                        break
                if not consistent:
                    continue
                for position, element in enumerate(arguments):
                    supported[element].add(row[position])
            for element in set(arguments):
                if candidates[element] <= supported[element]:
                    continue
                candidates[element] &= supported[element]
                if not candidates[element]:
                    return False
                for affected in self._incidence[element]:
                    if affected not in queued:
                        queue.append(affected)
                        queued.add(affected)
        return True

    # -- search ----------------------------------------------------------------

    def _initial_candidates(
        self, fixed: PartialMap, domains: Domains
    ) -> tuple[dict[Element, set], deque[int]] | None:
        """The base sets narrowed by ``fixed`` and ``domains``, and the facts
        incident to the narrowed elements (the propagation queue)."""
        candidates: dict[Element, set] = {}
        queue: dict[int, None] = {}
        for element, base in self._base.items():
            if element in fixed:
                image = fixed[element]
                narrowed = {image} if image in base else set()
            else:
                narrowed = set(base)
            if element in domains:
                narrowed.intersection_update(domains[element])
            if not narrowed:
                return None
            if len(narrowed) < len(base):
                queue.update(dict.fromkeys(self._incidence[element]))
            candidates[element] = narrowed
        return candidates, deque(queue)

    def _search(
        self, candidates: dict[Element, set], queue: deque[int], find_all: bool
    ) -> Iterator[dict[Element, Element]]:
        if not self._propagate(candidates, queue):
            return
        undecided = [e for e, cands in candidates.items() if len(cands) > 1]
        if not undecided:
            yield {e: next(iter(cands)) for e, cands in candidates.items()}
            return
        pivot = min(undecided, key=lambda e: len(candidates[e]))
        for value in sorted(candidates[pivot], key=repr):
            branch = {e: set(c) for e, c in candidates.items()}
            branch[pivot] = {value}
            for result in self._search(
                branch, deque(self._incidence[pivot]), find_all
            ):
                yield result
                if not find_all:
                    return

    def all(
        self, fixed: PartialMap | None = None, domains: Domains | None = None
    ) -> Iterator[dict[Element, Element]]:
        """Enumerate all homomorphisms extending ``fixed`` within ``domains``."""
        # _unsatisfiable must win over the empty-domain shortcut: a source
        # with only nullary facts has an empty active domain, yet the empty
        # map is a homomorphism only when those facts hold in the target.
        if self._unsatisfiable:
            return
        if not self.source.active_domain:
            yield {}
            return
        start = self._initial_candidates(dict(fixed or {}), domains or {})
        if start is None:
            return
        yield from self._search(*start, True)

    def solve(
        self, fixed: PartialMap | None = None, domains: Domains | None = None
    ) -> dict[Element, Element] | None:
        """One homomorphism extending ``fixed`` within ``domains``, or None."""
        if self._unsatisfiable:
            return None
        if not self.source.active_domain:
            return {}
        start = self._initial_candidates(dict(fixed or {}), domains or {})
        if start is None:
            return None
        for result in self._search(*start, False):
            return result
        return None

    def exists(
        self, fixed: PartialMap | None = None, domains: Domains | None = None
    ) -> bool:
        return self.solve(fixed, domains) is not None


def homomorphisms(
    source: Instance,
    target: Instance,
    fixed: PartialMap | None = None,
) -> Iterator[dict[Element, Element]]:
    """Enumerate all homomorphisms from ``source`` to ``target`` extending ``fixed``."""
    yield from HomomorphismSearch(source, target).all(fixed)


def find_homomorphism(
    source: Instance,
    target: Instance,
    fixed: PartialMap | None = None,
) -> dict[Element, Element] | None:
    """One homomorphism from ``source`` to ``target`` extending ``fixed``, or None."""
    return HomomorphismSearch(source, target).solve(fixed)


def has_homomorphism(
    source: Instance,
    target: Instance,
    fixed: PartialMap | None = None,
) -> bool:
    """``source -> target`` in the paper's notation."""
    return find_homomorphism(source, target, fixed) is not None


def marked_homomorphism_exists(
    source: MarkedInstance,
    target: MarkedInstance,
) -> bool:
    """``(D, d) -> (B, b)``: a homomorphism mapping each mark to the matching mark."""
    if source.arity != target.arity:
        raise ValueError("marked instances must have the same arity")
    fixed = marks_as_fixed_map(source.marks, target.marks)
    if fixed is None:
        return False
    return has_homomorphism(source.instance, target.instance, fixed)


def marks_as_fixed_map(
    source_marks: Sequence[Element], target_marks: Sequence[Element]
) -> dict[Element, Element] | None:
    """The fixed map sending each source mark to its target mark, or None when
    a repeated source mark would need two distinct images."""
    fixed: dict[Element, Element] = {}
    for src_mark, tgt_mark in zip(source_marks, target_marks):
        if src_mark in fixed and fixed[src_mark] != tgt_mark:
            return None
        fixed[src_mark] = tgt_mark
    return fixed


def homomorphically_equivalent(first: Instance, second: Instance) -> bool:
    """Homomorphisms exist in both directions."""
    return has_homomorphism(first, second) and has_homomorphism(second, first)


def homomorphically_incomparable(first: Instance, second: Instance) -> bool:
    """No homomorphism in either direction (used by Proposition 5.11)."""
    return not has_homomorphism(first, second) and not has_homomorphism(second, first)


def is_homomorphism(
    mapping: Mapping[Element, Element], source: Instance, target: Instance
) -> bool:
    """Check that ``mapping`` is a homomorphism from ``source`` to ``target``."""
    for element in source.active_domain:
        if element not in mapping:
            return False
    for fact in source:
        image = Fact(fact.relation, tuple(mapping[a] for a in fact.arguments))
        if image not in target:
            return False
    return True


def endomorphisms(instance: Instance) -> Iterator[dict[Element, Element]]:
    """All homomorphisms from an instance to itself."""
    yield from homomorphisms(instance, instance)


def core(instance: Instance) -> Instance:
    """A core of ``instance``: a minimal induced sub-instance it retracts onto.

    The core is unique up to isomorphism; CSP templates are interchangeable
    with their cores, which the FO-definability and bounded-width tests rely on.
    """
    current = instance
    changed = True
    while changed:
        changed = False
        domain = sorted(current.active_domain, key=repr)
        for element in domain:
            remaining = [d for d in domain if d != element]
            candidate = current.restrict_to_domain(remaining)
            folding = find_homomorphism(current, candidate)
            if folding is not None:
                # The homomorphic image of ``current`` under the folding is a
                # retract with strictly fewer elements; iterating reaches the core.
                current = Instance(fact.map(folding.__getitem__) for fact in current)
                changed = True
                break
    return current


def is_core(instance: Instance) -> bool:
    """True if every endomorphism of the instance is surjective on its domain."""
    size = len(instance.active_domain)
    return all(
        len(set(endo.values())) >= size for endo in endomorphisms(instance)
    )


def retracts_onto(instance: Instance, sub_domain: Sequence[Element]) -> bool:
    """Is there a retraction of ``instance`` onto the sub-instance induced by ``sub_domain``?"""
    kept = set(sub_domain)
    candidate = instance.restrict_to_domain(kept)
    return (
        find_homomorphism(instance, candidate, fixed={d: d for d in kept}) is not None
    )
